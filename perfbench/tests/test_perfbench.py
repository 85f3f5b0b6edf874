"""Tests of the benchmark itself: tiny smoke runs and oracles that must fail.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import (  # noqa: E402
    POOLED,
    REFERENCES,
    WORKLOADS,
    check_custom,
    check_decentralized,
    check_heatmap,
    check_pooled_rate,
    check_same_bytes,
    check_variance,
)

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY_WORKLOADS = {
    "decentralized": replace(WORKLOADS["decentralized"],
                             settings=("light_nodes=20", "rounds=20"), units=4000),
    "variance": replace(WORKLOADS["variance"],
                        settings=("runs=3", "samples_per_cell=100"), units=2700),
    "proxy_collision": replace(WORKLOADS["proxy_collision"], settings=(
        "mode=proxy", "proxy_count=4", "matching=collision_aware",
        "light_node_count=200", "rounds=5", "bootstrap_tips=240",
        "adversary_count=10", "placement=uniform_grid"), units=1000),
}
TINY = run.Profile(
    TINY_WORKLOADS,
    {"simulation": replace(REFERENCES["simulation"],
                           settings=("light_node_count=20", "rounds=10")),
     "cells": replace(REFERENCES["cells"],
                      settings=("runs=3", "samples_per_cell=50"))},
    TINY_WORKLOADS["variance"],
    replace(POOLED, settings=("placement=uniform_random", "node_count=100",
                              "require_local_adversary=false", "samples_per_cell=300")),
    pooled_layouts=1, setup_repeats=1, micro_ops=200,
)

HEADER = b"# seed=1\n# config_hash=0\n# version=0.1.0\nlabel,metric,value,dispersion\n"


def result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, profile=TINY) == 0
    result = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_probe_failure_reads_zero_and_keeps_the_result_line(monkeypatch, capsys):
    def broken(*args):
        raise AttributeError("no such layer function")
    monkeypatch.setattr(run, "micro_metrics", broken)
    argv = ["--workload", "decentralized", "--seed", "3", "--seconds", "0",
            "--trace", "1"]
    assert run.main(argv, profile=TINY) == 0
    result = result_line(capsys)
    assert result["correct"]
    assert len(result["metrics"]) == len(BENCHMARK["per_layer"])
    assert result["metrics"]["rng.substream_us"]["value"] == 0.0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "variance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_failed_cli_call_is_a_failed_check(tmp_path):
    run.import_tipleak()
    broken = replace(TINY_WORKLOADS["decentralized"], settings=("rounds=0",))
    checks = []
    run.call_study(broken, 1, str(tmp_path), checks)
    assert checks == [("decentralized.exit", False, "exit 1")]


# ---------------------------------------------------------------------------
# every oracle passes a good output and fails a corrupted one
# ---------------------------------------------------------------------------

DECENTRALIZED = HEADER + (
    b"N-50,analytic,0.1,\nN-50,empirical,0.101,0.003\n"
    b"M-1,analytic,0.1,\nM-1,empirical,0.097,0.003\n"
    b"N-sweep,empirical_spread,0.004,\n"
)
CUSTOM = HEADER + (
    b"simulation,total_transactions,32000,\nsimulation,linked_count,3210,\n"
    b"simulation,correct_link_count,3200,\nsimulation,false_positive_count,10,\n"
    b"simulation,deanon_rate,0.1,\n"
)
VARIANCE = HEADER + (
    b"layout-000,variance,2.5,\nlayout-000,min_cell_prob,0.1,0.01\n"
    b"layout-000,max_cell_prob,0.12,0.01\nlayout-001,variance,3.1,\n"
    b"layout-001,min_cell_prob,0.09,0.01\nlayout-001,max_cell_prob,0.11,0.01\n"
    b"summary,spearman_variance_min,0.5,0.2\nsummary,spearman_variance_max,-0.5,0.2\n"
)
VARIANCE_2 = replace(WORKLOADS["variance"], settings=("runs=2",))

HEATMAP = HEADER + (
    b"cell-0-0,node_count,11,\ncell-0-0,adversary_selection_probability,0.1,0.009\n"
    b"cell-0-0,effective_samples,1000,\ncell-0-1,node_count,0,\n"
    b"cell-0-1,unreachable,1,\n"
)

ORACLE_CASES = {
    "decentralized-off-by-33-se": (
        check_decentralized, WORKLOADS["decentralized"], DECENTRALIZED,
        DECENTRALIZED.replace(b"0.097,0.003", b"0.200,0.003")),
    "decentralized-no-analytic-row": (
        check_decentralized, WORKLOADS["decentralized"], DECENTRALIZED,
        DECENTRALIZED.replace(b"M-1,analytic,0.1,\n", b"")),
    "decentralized-unparseable": (
        check_decentralized, WORKLOADS["decentralized"], DECENTRALIZED,
        DECENTRALIZED.replace(b"0.101,", b"oops,")),
    "custom-rate-off-c-over-n": (
        check_custom, WORKLOADS["proxy_collision"], CUSTOM,
        CUSTOM.replace(b"deanon_rate,0.1,", b"deanon_rate,0.12,")),
    "custom-links-do-not-split": (
        check_custom, WORKLOADS["proxy_collision"], CUSTOM,
        CUSTOM.replace(b"linked_count,3210,", b"linked_count,3211,")),
    "custom-missing-row": (
        check_custom, WORKLOADS["proxy_collision"], CUSTOM,
        CUSTOM.replace(b"simulation,deanon_rate,0.1,\n", b"")),
    "variance-probability-above-one": (
        check_variance, VARIANCE_2, VARIANCE,
        VARIANCE.replace(b"max_cell_prob,0.11,", b"max_cell_prob,1.5,")),
    "variance-missing-layout": (
        check_variance, VARIANCE_2, VARIANCE,
        VARIANCE.replace(b"layout-001,max_cell_prob,0.11,0.01\n", b"")),
    "variance-missing-summary": (
        check_variance, VARIANCE_2, VARIANCE,
        VARIANCE.replace(b"summary,spearman_variance_max,-0.5,0.2\n", b"")),
    "heatmap-probability-above-one": (
        check_heatmap, POOLED, HEATMAP,
        HEATMAP.replace(b"probability,0.1,", b"probability,1.1,")),
    "heatmap-no-samples": (
        check_heatmap, POOLED, HEATMAP,
        HEATMAP.replace(b"cell-0-0,effective_samples,1000,\n", b"")),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_fails_on_corrupted_output(case):
    oracle, workload, good, corrupted = ORACLE_CASES[case]
    assert good != corrupted
    assert all(ok for _, ok, _ in oracle(good, workload))
    assert not all(ok for _, ok, _ in oracle(corrupted, workload))


def test_pooled_rate_oracle():
    assert check_pooled_rate([(0.1, 1000)] * 9, 0.1)[1]
    assert not check_pooled_rate([(0.13, 1000)] * 9, 0.1)[1]
    assert not check_pooled_rate([], 0.1)[1]


def test_same_bytes_oracle():
    assert check_same_bytes("same", b"abc", b"abc")[1]
    assert not check_same_bytes("same", b"abc", b"abd")[1]
