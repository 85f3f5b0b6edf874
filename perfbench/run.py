"""The tipleak benchmark: study workloads driven through the CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decentralized --seed 1 --seconds 20 --trace 0

Each workload (see ``workloads.py``) is a closed loop of one
``tipleak.cli.main([...])`` call at a time, in this process, with
``--workers 1``; the seed is passed through as ``--seed``.  Every output is
checked by the workload's oracle, and repeated calls with one seed must
write identical bytes.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, untraced -- ``setup_s`` (median
  over fresh interpreters of importing ``tipleak`` and its CLI), ``run_s``
  (median wall time of the CLI call), ``units_per_s`` and ``peak_rss_mb``.
  ``error_rate`` is ``failed / attempted`` and is printed above the JSON.
* ``--trace 1``: the per-layer metrics of ``layers.py``, from two untraced
  calls (the first warms up), one traced call, a traced reference call for
  the path the workload does not reach, layer microbenchmarks, and the
  variance study at workers=1 and workers=2.  The traced call's spans are
  written to ``perfbench/.out/trace_<workload>_<seed>.json``.

Exit code 2, with no result line, when the checkout holds no tipleak sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from layers import Metrics, call_metrics, cell_metrics, micro_metrics, simulation_metrics
from tracing import LayerProbe
from workloads import (
    POOLED,
    POOLED_RATE,
    REFERENCES,
    WORKLOADS,
    Check,
    Workload,
    check_pooled_rate,
    check_same_bytes,
    heatmap_cells,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"
MIN_CALLS = 3  # a median, and two same-seed byte comparisons

# Time from before ``import tipleak`` until the CLI can be called, measured
# inside a fresh interpreter so every sample pays the whole import.
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tipleak, tipleak.cli\n"
    "print(time.perf_counter() - start)\n"
)


@dataclass(frozen=True)
class Profile:
    """Sizes of everything one benchmark run does."""

    workloads: dict[str, Workload]
    references: dict[str, Workload]  # by the path a workload may not reach
    pmap: Workload                   # study timed at workers=1 and workers=2
    pooled: Workload                 # extra unconditioned check on "cells"
    pooled_layouts: int
    setup_repeats: int
    micro_ops: int


FULL = Profile(WORKLOADS, REFERENCES, WORKLOADS["variance"], POOLED,
               pooled_layouts=2, setup_repeats=5, micro_ops=20_000)


def import_tipleak() -> None:
    """Import tipleak from this checkout's sources, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tipleak

    if Path(tipleak.__file__).resolve().parent != SRC / "tipleak":
        raise ImportError(f"tipleak imported from {tipleak.__file__}, not {SRC}")


def setup_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def call_study(workload: Workload, seed: int, out_dir: str, checks: list[Check],
               *, workers: int = 1, probe: LayerProbe | None = None
               ) -> tuple[float, bytes]:
    """One CLI call: its wall time and result bytes, with its oracle checks."""
    from tipleak import cli

    argv = workload.cli_args(seed, out_dir, workers)
    path = Path(out_dir) / f"{workload.experiment}_{seed}.csv"
    path.unlink(missing_ok=True)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = probe.call(cli.main, argv) if probe else cli.main(argv)
    except Exception as exc:  # a crashed study is a failed check
        code = f"{type(exc).__name__}: {exc}"
    took = perf_counter() - start
    checks.append((f"{workload.name}.exit", code == 0, f"exit {code}"))
    if code != 0:
        return took, b""
    data = path.read_bytes()
    checks.extend(workload.oracle(data, workload))
    return took, data


def pooled_check(seed: int, profile: Profile, out_dir: str,
                 checks: list[Check]) -> Check:
    """Untimed: unconditioned cell sampling must hit at exactly C/N."""
    cells = []
    for layout in range(profile.pooled_layouts):
        study = replace(profile.pooled,
                        settings=profile.pooled.settings + (f"layout_index={layout}",))
        _, data = call_study(study, seed, out_dir, checks)
        cells += heatmap_cells(data)
    return check_pooled_rate(cells, POOLED_RATE)


def timed_run(workload: Workload, seed: int, seconds: float, profile: Profile,
              out_dir: str, checks: list[Check]) -> Metrics:
    # Set-up samples are taken between calls, so that both sample the same
    # stretch of machine load; ``seconds`` counts measured call time only.
    setups: list[float] = []
    durations: list[float] = []
    first = None
    while len(durations) < MIN_CALLS or sum(durations) < seconds:
        if len(setups) < profile.setup_repeats:
            setups.append(setup_seconds())
        took, data = call_study(workload, seed, out_dir, checks)
        durations.append(took)
        if first is None:
            first = data
            print(f"result_sha256 {workload.name} {hashlib.sha256(data).hexdigest()}")
        else:
            checks.append(check_same_bytes(f"{workload.name}.same_seed_bytes", first, data))
    while len(setups) < profile.setup_repeats:
        setups.append(setup_seconds())
    if workload.reaches == "cells":
        checks.append(pooled_check(seed, profile, out_dir, checks))
    run_s = statistics.median(durations)
    print(f"calls {len(durations)} of {workload.units} {workload.unit} each, "
          f"run_s {' '.join(f'{d:.4f}' for d in durations)}")
    print(f"setups {len(setups)}, setup_s {' '.join(f'{d:.4f}' for d in setups)}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "units_per_s": (workload.units / run_s, "units/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_call(workload: Workload, seed: int, out_dir: str,
                checks: list[Check]) -> tuple[LayerProbe, bytes]:
    probe = LayerProbe()
    with probe.installed():
        _, data = call_study(workload, seed, out_dir, checks, probe=probe)
    return probe, data


def traced_run(workload: Workload, seed: int, profile: Profile,
               out_dir: str, checks: list[Check]) -> Metrics:
    # The first call in a process runs slower; the second is the baseline
    # that the traced call is compared with.
    _, expected = call_study(workload, seed, out_dir, checks)
    print(f"result_sha256 {workload.name} {hashlib.sha256(expected).hexdigest()}")
    untraced_s, data = call_study(workload, seed, out_dir, checks)
    checks.append(check_same_bytes(f"{workload.name}.same_seed_bytes", expected, data))
    probe, data = traced_call(workload, seed, out_dir, checks)
    checks.append(check_same_bytes(f"{workload.name}.traced_bytes", expected, data))
    sources = {workload.reaches: (workload.name, probe)}
    for reaches, reference in profile.references.items():
        if reaches not in sources:
            sources[reaches] = (reference.name,
                                traced_call(reference, seed, out_dir, checks)[0])
    sim, cells = sources["simulation"][1], sources["cells"][1]

    groups = {
        "call": lambda: call_metrics(probe, untraced_s),
        "simulation": lambda: simulation_metrics(sim),
        "cells": lambda: cell_metrics(cells),
        "micro": lambda: micro_metrics(seed, round(statistics.fmean(sim.tip_counts)),
                                       profile.micro_ops, sim.match_args),
    }
    metrics: Metrics = {}
    problems = [f"no probe point {name}" for name in probe.missing]
    for group, compute in groups.items():
        try:
            metrics.update(compute())
        except Exception as exc:  # probes that no longer fit the program
            problems.append(f"{group} metrics: {type(exc).__name__}: {exc}")

    study = profile.pmap
    if study == workload:
        one_s, one = untraced_s, expected
    else:
        one_s, one = call_study(study, seed, out_dir, checks)
    two_s, two = call_study(study, seed, out_dir, checks, workers=2)
    checks.append(check_same_bytes(f"{study.name}.workers_1_vs_2", one, two))
    metrics["experiments.pmap_speedup_2w"] = (one_s / two_s, "x")

    # A metric no group could measure reads 0, so the result line stays whole.
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        if spec["name"] not in metrics:
            problems.append(f"{spec['name']} not measured")
            metrics[spec["name"]] = (0.0, spec["unit"])
    for problem in problems:
        print(f"PROBE {problem}")
    write_trace(OUT / f"trace_{workload.name}_{seed}.json", workload, seed,
                probe, metrics, {path: name for path, (name, _) in sources.items()},
                problems)
    return metrics


def write_trace(path: Path, workload: Workload, seed: int, probe: LayerProbe,
                metrics: Metrics, sources: dict[str, str], problems: list[str]) -> None:
    """The workload call's spans, with the metrics and the call behind each path."""
    spans = probe.tracer.spans
    origin = min(start for _, _, _, start, _ in spans)
    doc = {
        "workload": workload.name,
        "seed": seed,
        "sources": sources,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "calls": dict(probe.tracer.calls),
        "spans": [
            {"id": span_id, "parent": parent, "name": name,
             "start_ms": (start - origin) * 1e3, "end_ms": (end - origin) * 1e3}
            for span_id, parent, name, start, end in sorted(spans, key=lambda s: s[3])
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def parse_args(argv, profile: Profile) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(profile.workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, profile: Profile = FULL) -> int:
    args = parse_args(argv, profile)
    if not (SRC / "tipleak" / "__init__.py").is_file():
        print(f"perfbench: no tipleak sources under {SRC}", file=sys.stderr)
        return 2
    import_tipleak()
    workload = profile.workloads[args.workload]
    checks: list[Check] = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        if args.trace:
            metrics = traced_run(workload, args.seed, profile, out_dir, checks)
        else:
            metrics = timed_run(workload, args.seed, args.seconds, profile,
                                out_dir, checks)
    failed = sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        if not ok:
            print(f"FAIL {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / len(checks):.6g} ratio ({failed}/{len(checks)} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
