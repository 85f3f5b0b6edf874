"""In-memory span tracing at tipleak's layer boundaries.

The probes wrap each layer's public functions as the calling module sees
them (a module or class attribute), from the benchmark's own files; the
program itself is not modified and the patches are undone on exit.  Coarse
calls -- a study, a simulation, its set-up, a round, a match, a node
placement, a cell measurement, a result write -- are kept as spans.  Fine
calls -- ``substream``, ``urts_pair``, ``Ledger.attach``, the entropy of a
profile -- are only counted and timed, which keeps memory bounded.  Each
call's self time, its duration minus that of the traced calls inside it, is
charged to its layer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from unittest import mock

LAYERS = ("cli", "experiments", "network", "tangle", "rng", "analytic", "results")


class Tracer:
    """Spans ``(id, parent_id, name, start, end)`` plus per-layer self time.

    Span ids are unique within one tracer; the root call has parent 0, so
    all spans of one traced CLI call share that root as their request id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list] = []   # [span_id, time in traced children]
        self._ids = itertools.count(1)

    def wrap(self, layer: str, name: str, fn, record: bool = True):
        stack, spans, ids = self._stack, self.spans, self._ids
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self_s[layer] += took - frame[1]
                calls[name] += 1
                if record:
                    spans.append((frame[0], parent, name, start, end))
        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, span, start, end in self.spans if span == name]

    def child_time(self, names: tuple[str, ...]) -> dict[int, float]:
        """Summed duration of spans called ``names``, keyed by parent id."""
        out: dict[int, float] = defaultdict(float)
        for _, parent, span, start, end in self.spans:
            if span in names:
                out[parent] += end - start
        return out


class CountingRng:
    """Forwards to a ``random.Random`` and counts its ``sample`` calls.

    Other attributes are forwarded too, so the probe keeps working if the
    sampler starts using more of the generator's methods.
    """

    def __init__(self, rng) -> None:
        self._rng = rng
        self._sample = rng.sample
        self.random = rng.random
        self.randrange = rng.randrange
        self.sample_calls = 0

    def sample(self, population, k):
        self.sample_calls += 1
        return self._sample(population, k)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


class LayerProbe:
    """A tracer installed on every layer boundary, plus the layer counters."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.tip_counts: list[int] = []      # ledger tips after each round
        self.light_rounds = 0                # lights summed over rounds
        self.sims: list[tuple[int, int, int, int]] = []  # tx, links, correct, false
        self.cells: list[tuple[int, int, int]] = []      # samples, effective, draws
        self.match_args = None               # inputs of the latest match
        self.written_bytes: list[int] = []
        self.missing: list[str] = []         # probe points not found

    def call(self, cli_main, argv: list[str]) -> int:
        """Run ``cli_main(argv)`` as the root span."""
        return self.tracer.wrap("cli", "cli.main", cli_main)(argv)

    @contextlib.contextmanager
    def installed(self):
        """Patch every probe point for the duration of the block.

        A probe point the program no longer has is skipped and listed in
        ``missing``, so that a refactor of one layer leaves the traced run
        working and the metrics fed by that point read 0.
        """
        from tipleak import analytic, cli, experiments, network, results, tangle

        t, probe = self.tracer, self
        with contextlib.ExitStack() as stack:
            def patch(owner, attr, layer, name, record=True, around=None):
                fn = getattr(owner, attr, None)
                if fn is None:
                    probe.missing.append(f"{owner.__name__}.{attr}")
                    return
                traced = t.wrap(layer, name, fn, record)
                stack.enter_context(mock.patch.object(
                    owner, attr, around(traced) if around else traced))

            def counted_round(run_round):
                def run(sim, round_idx):
                    links = run_round(sim, round_idx)
                    probe.tip_counts.append(sim.ledger.tip_count)
                    probe.light_rounds += len(sim.population.light_nodes)
                    return links
                return run

            def kept_sim(run_sim):
                def run(config):
                    sim = run_sim(config)
                    probe.sims.append((sim.total_transactions, sim.linked_count,
                                       sim.correct_link_count, sim.false_positive_count))
                    return sim
                return run

            def kept_match(match):
                def run(log_entries, new_entries, matching):
                    probe.match_args = (log_entries, new_entries)
                    return match(log_entries, new_entries, matching)
                return run

            def counted_cell(measure):
                def run(positions, adversary_count, cell, rng, **kwargs):
                    counting = CountingRng(rng)
                    prob, effective = measure(positions, adversary_count, cell,
                                              counting, **kwargs)
                    probe.cells.append((kwargs.get("samples", 0),
                                        effective, counting.sample_calls))
                    return prob, effective
                return run

            def sized_write(write):
                def run(*args, **kwargs):
                    path = write(*args, **kwargs)
                    probe.written_bytes.append(Path(path).stat().st_size)
                    return path
                return run

            for module in (network, experiments):
                patch(module, "substream", "rng", "rng.substream", record=False)
                patch(module, "place_nodes", "network", "network.place")
            for study in ("exp_decentralized", "exp_variance"):
                patch(experiments, study, "experiments", "experiments.study")
            patch(network, "urts_pair", "tangle", "tangle.urts_pair", record=False)
            patch(tangle.Ledger, "attach", "tangle", "tangle.attach", record=False)
            patch(network, "entropy_degree", "analytic", "analytic.entropy_degree",
                  record=False)
            patch(analytic.AnonymityProfile, "uniform", "analytic",
                  "analytic.uniform_profile", record=False, around=staticmethod)
            patch(network.Simulation, "__init__", "network", "network.setup")
            patch(network.Simulation, "run_round", "network", "network.round",
                  around=counted_round)
            for module in (experiments, cli):
                patch(module, "run_simulation", "network", "network.run_simulation",
                      around=kept_sim)
            patch(network, "match_responses", "network", "network.match",
                  around=kept_match)
            patch(experiments, "measure_cell_probability", "experiments",
                  "experiments.cell", around=counted_cell)
            patch(results, "write_result", "results", "results.write",
                  around=sized_write)
            yield self


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]
