#!/usr/bin/env python3
"""Run the full experiment battery and write one result file per study.

Reproduces every table and figure the package supports, at the default
parameters, into --out (created if missing).  Re-running with the same
--seed produces byte-identical files regardless of --workers.
"""

import sys
import time
from pathlib import Path

from tipleak.cli import _Parser  # exits 1, not argparse's 2, on bad usage
from tipleak.experiments import DEFAULT_SEED, STUDIES
from tipleak.results import FORMATS, write_result

# Runs per study, each a settings map written to its own file: the heatmap
# once per placement, and `custom`, one free-form simulation, not at all.
RUNS = {
    "heatmap": [
        {"placement": placement}
        for placement in ("uniform_grid", "uniform_random", "clustered")
    ],
    "custom": [],
}

# --fast: smaller sample counts, per study, for a quick smoke run.
FAST = {
    "decentralized": {"rounds": 20},
    "heatmap": {"samples_per_cell": 200},
    "variance": {"runs": 20, "samples_per_cell": 200},
    "mixer": {"participants": 10_000},
    "mitigations": {"baseline_rounds": 40, "scaling_rounds": 200},
}


def main(argv=None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel workers (default: 1); never affects results",
    )
    parser.add_argument("--format", choices=FORMATS, default="csv")
    parser.add_argument(
        "--fast", action="store_true",
        help="smaller sample counts for a quick smoke run",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if not -2**63 <= args.seed < 2**63:  # stream keys pack the seed in 64 bits
        parser.error(f"--seed must be a signed 64-bit integer, got {args.seed}")

    total_start = time.perf_counter()
    for name, study in STUDIES.items():
        for variant in RUNS.get(name, [{}]):
            settings = {**(FAST.get(name, {}) if args.fast else {}), **variant}
            started = time.perf_counter()
            result = study.run(settings, args.seed, args.workers)
            result.name = "-".join((name, *variant.values()))
            try:
                path = write_result(result, args.out, args.format)
            except OSError as exc:
                parser.exit(1, f"{parser.prog}: error: cannot write to --out: {exc}\n")
            print(f"{result.name:<26} {time.perf_counter() - started:6.1f}s  -> {path}")
    print(f"total {time.perf_counter() - total_start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
