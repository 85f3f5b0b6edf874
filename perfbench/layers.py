"""Per-layer metrics: traced-call summaries plus layer microbenchmarks.

Every metric is returned as ``name -> (value, unit)``.  Metrics of the
simulator path (rng, tangle, network) come from a traced call that runs
simulations, and those of spatial sampling (experiments cells) from a
traced call that measures cells; the traced run supplies a reference call
for whichever path its workload does not reach.
"""

from __future__ import annotations

import itertools
import random
import statistics
from time import perf_counter

from tracing import LAYERS, LayerProbe, percentile

Metrics = dict[str, tuple[float, str]]

BATCHES = 5


def _median_us(batch, ops: int) -> float:
    """Median over BATCHES runs of ``batch()`` of its time per op, in µs."""
    times = []
    for _ in range(BATCHES):
        start = perf_counter()
        batch()
        times.append((perf_counter() - start) / ops * 1e6)
    return statistics.median(times)


def simulation_metrics(probe: LayerProbe) -> Metrics:
    t = probe.tracer
    rounds = t.durations("network.round")
    inner = t.child_time(("network.setup", "network.round"))
    score = sum(end - start - inner[span_id]
                for span_id, _, name, start, end in t.spans
                if name == "network.run_simulation")
    tx = sum(s[0] for s in probe.sims)
    links = sum(s[1] for s in probe.sims)
    correct = sum(s[2] for s in probe.sims)
    return {
        "rng.substream_calls_per_tx": (t.calls["rng.substream"] / tx, "count"),
        "tangle.tip_count_mean": (statistics.fmean(probe.tip_counts), "count"),
        "network.setup_ms": (statistics.median(t.durations("network.setup")) * 1e3, "ms"),
        "network.round_ms.p50": (percentile(rounds, 50) * 1e3, "ms"),
        "network.round_ms.p99": (percentile(rounds, 99) * 1e3, "ms"),
        "network.round_samples": (len(rounds), "count"),
        "network.round_us_per_light": (sum(rounds) / probe.light_rounds * 1e6, "us"),
        "network.score_s": (score, "s"),
        "network.links": (links, "count"),
        "network.false_positives": (sum(s[3] for s in probe.sims), "count"),
        "network.link_precision": (correct / links if links else 1.0, "ratio"),
    }


def cell_metrics(probe: LayerProbe) -> Metrics:
    cells = probe.tracer.durations("experiments.cell")
    samples = sum(c[0] for c in probe.cells)
    draws = sum(calls - effective for _, effective, calls in probe.cells)
    return {
        "experiments.cell_ms.p50": (percentile(cells, 50) * 1e3, "ms"),
        "experiments.cell_ms.p90": (percentile(cells, 90) * 1e3, "ms"),
        "experiments.cell_samples": (len(cells), "count"),
        "experiments.sample_us": (sum(cells) / samples * 1e6, "us"),
        "experiments.adversary_accept_ratio": (samples / draws, "ratio"),
    }


def call_metrics(probe: LayerProbe, untraced_s: float) -> Metrics:
    """Self time per layer, span coverage and overhead of one traced call."""
    t = probe.tracer
    (root,) = t.durations("cli.main")
    metrics = {f"{layer}.self_s": (t.self_s[layer], "s") for layer in LAYERS}
    metrics.update({
        "results.write_ms": (statistics.median(t.durations("results.write")) * 1e3, "ms"),
        "results.bytes": (statistics.median(probe.written_bytes), "bytes"),
        "trace.span_coverage": (1.0 - t.self_s["cli"] / root, "ratio"),
        "trace.overhead_s": (root - untraced_s, "s"),
    })
    return metrics


def micro_metrics(seed: int, tip_count: int, ops: int, match_args) -> Metrics:
    """Microbenchmarks of the fine-grained calls, untraced.

    ``tip_count`` sizes the ledger the way the workload's rounds see it;
    ``match_args`` are the (log entries, attached records) of a real round.
    """
    from tipleak import analytic, network, tangle
    from tipleak.rng import DOMAIN_REQUEST, substream

    def substreams():
        for i in range(ops):
            substream(seed, DOMAIN_REQUEST, i, 7)

    tips = list(range(1, tip_count + 1))
    rng = random.Random(seed)

    def pairs():
        for _ in range(ops):
            tangle.urts_pair(tips, rng)

    profile_ops = max(1, ops // 40)

    def entropies():
        for _ in range(profile_ops):
            analytic.entropy_degree(analytic.AnonymityProfile.uniform(800))

    metrics = {
        "rng.substream_us": (_median_us(substreams, ops), "us"),
        "tangle.urts_pair_us": (_median_us(pairs, ops), "us"),
        "tangle.attach_us": (_attach_us(seed, tip_count, ops), "us"),
        "analytic.entropy_degree_us": (_median_us(entropies, profile_ops), "us"),
    }
    log_entries, new_entries = match_args
    repeats = max(1, ops // max(1, len(log_entries)))
    for mode in (network.MATCH_ASSUME_UNIQUE, network.MATCH_COLLISION_AWARE):
        def matches():
            for _ in range(repeats):
                network.match_responses(log_entries, new_entries, mode)
        metrics[f"network.match_us_per_entry.{mode}"] = (
            _median_us(matches, repeats * max(1, len(log_entries))), "us")
    return metrics


def _attach_us(seed: int, tip_count: int, ops: int) -> float:
    """``Ledger.attach`` per call with the tip count held near ``tip_count``.

    Each batch attaches a quarter of the tips' worth of URTS pairs drawn
    from one snapshot, as a round does; untimed genesis children then
    restore the tip count.
    """
    from tipleak.tangle import GENESIS_ID, Ledger, urts_pair

    ledger = Ledger()
    names = (f"bench-{i}" for i in itertools.count())
    for _ in range(tip_count):
        ledger.attach((GENESIS_ID, GENESIS_ID), next(names))
    per_batch = max(1, tip_count // 4)
    rng = random.Random(seed)
    times = []
    for _ in range(max(BATCHES, ops // per_batch)):
        snapshot = ledger.tips
        batch = [(urts_pair(snapshot, rng), next(names)) for _ in range(per_batch)]
        start = perf_counter()
        for parents, name in batch:
            ledger.attach(parents, name)
        times.append((perf_counter() - start) / per_batch * 1e6)
        while ledger.tip_count < tip_count:
            ledger.attach((GENESIS_ID, GENESIS_ID), next(names))
    return statistics.median(times)
