"""Canonical result serialization: golden-file CSV and structured JSON.

Both writers are deterministic byte-for-byte: floats render at 9 significant
digits in CSV (full repr in JSON), keys sort canonically, and every file
embeds the seed, a hash of the resolved parameters, and the tool version.
Writes are atomic (temp file in the target directory, then rename), so a
failed run never leaves a partial output file behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the writers need no numpy until a result exists
    from .experiments import ExperimentResult

TOOL_VERSION = "0.1.0"

FORMATS = ("csv", "structured")
_EXTENSION = {"csv": "csv", "structured": "json"}


def config_hash(params: dict) -> str:
    """Short stable digest of the fully resolved parameter mapping."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def result_to_csv_bytes(result: ExperimentResult) -> bytes:
    lines = [
        f"# seed={result.seed}",
        f"# config_hash={config_hash(result.params)}",
        f"# version={TOOL_VERSION}",
        "label,metric,value,dispersion",
    ]
    for row in result.rows:
        lines.append(
            f"{row.label},{row.metric},"
            f"{format_value(row.value)},{format_value(row.dispersion)}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def result_to_json_bytes(result: ExperimentResult) -> bytes:
    doc = {
        "experiment": result.name,
        "seed": result.seed,
        "config_hash": config_hash(result.params),
        "version": TOOL_VERSION,
        "params": result.params,
        "rows": [
            {
                "label": row.label,
                "metric": row.metric,
                "value": row.value,
                "dispersion": row.dispersion,
            }
            for row in result.rows
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n").encode("utf-8")


def write_atomic(path, data: bytes) -> None:
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp_name, 0o666 & ~mask)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def result_path(result: ExperimentResult, out_dir, fmt: str) -> Path:
    return Path(out_dir) / f"{result.name}_{result.seed}.{_EXTENSION[fmt]}"


def write_result(result: ExperimentResult, out_dir, fmt: str = "csv") -> Path:
    """Serialize one experiment result; returns the written path."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    data = (
        result_to_csv_bytes(result) if fmt == "csv"
        else result_to_json_bytes(result)
    )
    path = result_path(result, out_dir, fmt)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, data)
    return path
