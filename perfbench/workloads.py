"""Workloads of the tipleak benchmark and the oracles that check their output.

A workload is one ``tipleak run`` invocation, given as the argument list
that ``tipleak.cli.main`` receives.  The seed is appended by the caller, so
the program sees only generated CLI arguments.  Every oracle takes the bytes
of a result CSV and returns a list of ``(check, ok, detail)`` tuples; a
failed tuple counts against the run's ``error_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

Check = tuple[str, bool, str]

# C hostile among N full nodes give a link rate of C/N whatever the request
# fanout (tipleak.analytic).  The CLI's ``custom`` defaults are N=100 with a
# tenth of them hostile.
CUSTOM_FULL_NODES = 100
CUSTOM_ADVERSARIES = 10
Z_LIMIT = 4.0


@dataclass(frozen=True)
class Workload:
    """One closed-loop study call and how to judge it.

    ``units`` is the number of work items one call performs, so that
    ``units / run_s`` is a throughput.  ``reaches`` names the instrumented
    paths the call exercises: ``"simulation"`` (rng, tangle, network round)
    or ``"cells"`` (spatial sampling in experiments).
    """

    name: str
    experiment: str
    settings: tuple[str, ...]
    units: int
    unit: str
    reaches: str
    oracle: Callable[[bytes, "Workload"], list[Check]]

    def cli_args(self, seed: int, out_dir: str, workers: int = 1) -> list[str]:
        args = ["run", self.experiment, "--seed", str(seed),
                "--workers", str(workers), "--out", str(out_dir)]
        for setting in self.settings:
            args += ["--set", f"{self.experiment}.{setting}"]
        return args

    def setting(self, key: str, default):
        for setting in self.settings:
            name, _, value = setting.partition("=")
            if name == key:
                return type(default)(value)
        return default


# ---------------------------------------------------------------------------
# result parsing
# ---------------------------------------------------------------------------

def parse_rows(data: bytes) -> list[tuple[str, str, float, float | None]]:
    """Rows of a tipleak result CSV as (label, metric, value, dispersion)."""
    rows = []
    for line in data.decode("utf-8").splitlines():
        if not line or line.startswith("#") or line == "label,metric,value,dispersion":
            continue
        label, metric, value, dispersion = line.split(",")
        rows.append((label, metric, float(value),
                     float(dispersion) if dispersion else None))
    return rows


def _parsed(data: bytes, check: str) -> tuple[list, list[Check]]:
    try:
        return parse_rows(data), []
    except (UnicodeDecodeError, ValueError) as exc:
        return [], [(check, False, f"unparseable result: {exc}")]


def within_z(observed: float, expected: float, se: float) -> tuple[bool, float]:
    """Whether ``observed`` lies within Z_LIMIT standard errors of ``expected``."""
    if se <= 0.0:
        return observed == expected, math.inf if observed != expected else 0.0
    z = (observed - expected) / se
    return abs(z) <= Z_LIMIT, z


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def check_decentralized(data: bytes, workload: Workload) -> list[Check]:
    """Every empirical link rate within 4 SE of its closed-form row."""
    rows, failed = _parsed(data, "decentralized.empirical_vs_analytic")
    if failed:
        return failed
    analytic = {label: value for label, metric, value, _ in rows if metric == "analytic"}
    empirical = [(label, value, se) for label, metric, value, se in rows
                 if metric == "empirical"]
    if not empirical:
        return [("decentralized.empirical_vs_analytic", False, "no empirical rows")]
    checks = []
    for label, value, se in empirical:
        if label not in analytic:
            checks.append((f"decentralized.{label}", False, "no analytic row"))
            continue
        ok, z = within_z(value, analytic[label], se or 0.0)
        checks.append((f"decentralized.{label}", ok, f"z={z:.2f}"))
    return checks


def check_custom(data: bytes, workload: Workload) -> list[Check]:
    """Link rate within 4 SE of C/N, and links split into correct + false."""
    rows, failed = _parsed(data, "custom.deanon_rate")
    if failed:
        return failed
    sim = {metric: value for label, metric, value, _ in rows if label == "simulation"}
    needed = ("deanon_rate", "total_transactions", "linked_count",
              "correct_link_count", "false_positive_count")
    missing = [key for key in needed if key not in sim]
    if missing:
        return [("custom.rows", False, f"missing {missing}")]
    expected = workload.setting("adversary_count", CUSTOM_ADVERSARIES) / workload.setting(
        "full_node_count", CUSTOM_FULL_NODES)
    total = sim["total_transactions"]
    se = math.sqrt(expected * (1 - expected) / total) if total > 0 else 0.0
    ok, z = within_z(sim["deanon_rate"], expected, se)
    split = sim["correct_link_count"] + sim["false_positive_count"]
    return [
        ("custom.deanon_rate", ok, f"z={z:.2f}"),
        ("custom.link_split", split == sim["linked_count"],
         f"{split:g} correct+false vs {sim['linked_count']:g} links"),
    ]


def check_variance(data: bytes, workload: Workload) -> list[Check]:
    """Every cell probability in [0, 1], one per layout, both summary rows."""
    rows, failed = _parsed(data, "variance.probabilities")
    if failed:
        return failed
    probs = [value for _, metric, value, _ in rows
             if metric in ("min_cell_prob", "max_cell_prob")]
    runs = workload.setting("runs", 100)
    bad = [p for p in probs if not 0.0 <= p <= 1.0]
    summary = {metric for label, metric, _, _ in rows if label == "summary"}
    want = {"spearman_variance_min", "spearman_variance_max"}
    return [
        ("variance.probabilities", not bad and len(probs) == 2 * runs,
         f"{len(probs)} probabilities, {len(bad)} outside [0, 1]"),
        ("variance.summary", want <= summary, f"summary rows {sorted(summary)}"),
    ]


def heatmap_cells(data: bytes) -> list[tuple[float, int]]:
    """(probability, effective samples) of each reachable heatmap cell."""
    rows, _ = _parsed(data, "heatmap")
    probs = {label: value for label, metric, value, _ in rows
             if metric == "adversary_selection_probability"}
    samples = {label: int(value) for label, metric, value, _ in rows
               if metric == "effective_samples"}
    return [(probs[label], samples.get(label, 0)) for label in sorted(probs)]


def check_heatmap(data: bytes, workload: Workload) -> list[Check]:
    """Every reachable cell has a probability in [0, 1] and samples."""
    cells = heatmap_cells(data)
    ok = bool(cells) and all(0.0 <= p <= 1.0 and n > 0 for p, n in cells)
    return [("heatmap.cells", ok, f"{len(cells)} reachable cells")]


def check_pooled_rate(cells: list[tuple[float, int]], expected: float) -> Check:
    """Pooled unconditioned selection rate within 4 SE of C/N.

    Without local conditioning the adversary set is drawn independently of
    the followed node, so every effective sample hits with probability C/N
    exactly and the pooled count is binomial.
    """
    hits = sum(round(p * n) for p, n in cells)
    samples = sum(n for _, n in cells)
    if samples == 0:
        return ("variance.pooled_rate", False, "no effective samples")
    se = math.sqrt(expected * (1 - expected) / samples)
    ok, z = within_z(hits / samples, expected, se)
    return ("variance.pooled_rate", ok, f"z={z:.2f} over {samples} samples")


def check_same_bytes(check: str, first: bytes, again: bytes) -> Check:
    return (check, first == again,
            "identical bytes" if first == again else "bytes differ")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# Grid placement fixes which lights share a proxy.  With random placement
# the proxies' shares change with the seed, and with them the size of the
# candidate sets scored per link: peak RSS ranged 252-291 MB over five seeds.
PROXY_SETTINGS = (
    "mode=proxy", "proxy_count=4", "matching=collision_aware",
    "light_node_count=3200", "rounds=10", "bootstrap_tips=3840",
    "adversary_count=10", "placement=uniform_grid",
)

WORKLOADS = {
    w.name: w for w in (
        # Long, narrow rounds: rng seeding, tangle and the simulator round do
        # nearly all the work.  10 simulations x 100 lights x 100 rounds.
        Workload("decentralized", "decentralized", (), 100_000, "tx",
                 "simulation", check_decentralized),
        # Spatial sampling only: no ledger, 144 substreams in all.  The
        # bypass for simulator optimisations.  16 layouts x 9 cells x 1000.
        Workload("variance", "variance", ("runs=16",), 144_000, "sample",
                 "cells", check_variance),
        # Wide, short rounds from a steady-state tip count, collision-aware
        # matching and proxy scoring; the only workload reaching analytic.
        Workload("proxy_collision", "custom", PROXY_SETTINGS, 32_000, "tx",
                 "simulation", check_custom),
    )
}

# The untimed extra check on the variance workload: heatmap layouts of the
# variance study's shape, measured without local-adversary conditioning, so
# the pooled rate must be C/N.  The layout index is appended per call.
POOLED_RATE = 0.1
POOLED = Workload(
    "pooled_cells", "heatmap",
    ("placement=uniform_random", "node_count=100", "adversary_ratio=0.1",
     "require_local_adversary=false", "samples_per_cell=1000"),
    9_000, "sample", "cells", check_heatmap)

# Calls the traced run makes for the path its workload does not reach: one
# simulation at the CLI's ``custom`` defaults (a decentralized base row), and
# the variance study cut to four layouts (with two, Spearman's p-value is NaN
# and the study exits 1).
REFERENCES = {
    "simulation": Workload("reference_simulation", "custom", (), 10_000, "tx",
                           "simulation", check_custom),
    "cells": Workload("reference_cells", "variance", ("runs=4",), 36_000,
                      "sample", "cells", check_variance),
}
