"""Repeat benchmark runs over seeds and summarise every end-to-end metric.

Run from the root of a checkout::

    python3 perfbench/record.py --seeds 1-10 [--workloads variance,...] [--point LABEL]

For each workload and end-to-end metric this prints the median over the
seeds and the spread, the distance between the first and third quartiles as
a share of the median (``statistics.quantiles(values, n=4)``); one traced
run at the first seed adds the per-layer metrics.  With ``--point`` the
medians, spreads, per-layer metrics and result-file hashes are appended to
``perfbench/trajectory.json`` as one trajectory point, together with the
environment they were measured in.  The hashes are information, not a gate:
a change of the random-stream scheme changes seeded bytes on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, str]:
    """The result line of one run, and its result file's sha256."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    sha = next(line.split()[-1] for line in lines if line.startswith("result_sha256 "))
    return json.loads(lines[-1]), sha


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--point", help="label of the trajectory point to append")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point: dict = {}
    for workload in args.workloads.split(","):
        seeds = seed_range(args.seeds)
        runs, hashes = zip(*(run_once(workload, seed, bench["run_seconds"])
                             for seed in seeds))
        errors = sum(r["failed"] for r in runs)
        point[workload] = {"failed_checks": errors,
                           "result_sha256": dict(zip(map(str, seeds), hashes))}
        for name, bound in bounds.items():
            summary = summarise([r["metrics"][name]["value"] for r in runs])
            point[workload][name] = summary
            print(f"{workload:16s} {name:12s} median={summary['median']:.6g} "
                  f"spread={summary['spread']:.4f} bound/3={bound / 3:.4f}")
        print(f"{workload:16s} failed checks over {len(runs)} runs: {errors}")
        traced, _ = run_once(workload, seeds[0], bench["run_seconds"], trace=1)
        point[workload]["failed_checks"] += traced["failed"]
        point[workload]["per_layer"] = traced["metrics"]

    if args.point:
        doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
        doc["points"].append({"label": args.point, "seeds": args.seeds,
                              "environment": environment(), "workloads": point})
        TRAJECTORY.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
