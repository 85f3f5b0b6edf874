"""Experiment-scenario tests: spatial machinery, presets, serialization."""

import concurrent.futures
import inspect
import itertools
import json
import math
import pickle
import statistics
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from tipleak.experiments import (
    GRID_CELLS,
    ExperimentResult,
    ResultRow,
    cell_index,
    exp_decentralized,
    exp_heatmap,
    exp_mitigations,
    exp_mixer,
    exp_realworld,
    exp_variance,
    layout_variance,
    load_region_counts,
    local_adversary_default,
    measure_cell_probability,
    pmap,
    STUDIES,
    regional_rates,
    simulate_mixer_chains,
    spearman,
)
from tipleak import experiments
from tipleak.network import ConfigError, SimConfig, place_nodes, reachable, run_simulation
from tipleak.results import (
    config_hash,
    format_value,
    result_to_csv_bytes,
    result_to_json_bytes,
    write_result,
)
from tipleak.rng import substream


def _grid_layout(n: int = 45) -> list:
    """n nodes spread evenly: cell centers repeated round-robin."""
    cells = []
    for idx in range(GRID_CELLS):
        row, col = divmod(idx, 3)
        cells.append(((col + 0.5) * 10 / 3, (row + 0.5) * 10 / 3))
    return [cells[i % GRID_CELLS] for i in range(n)]


# ---------------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------------

def test_cell_index_covers_grid_and_edges():
    points = [(0.0, 0.0), (9.99, 0.0), (0.0, 9.99), (10.0, 10.0), (5.0, 5.0)]
    # the far boundary clamps inward
    assert cell_index(points).tolist() == [0, 2, 6, 8, 4]


def test_cell_node_counts_against_scratch_binning():
    rng = substream(7, 1)
    positions = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(200)]
    counts = np.bincount(cell_index(positions), minlength=GRID_CELLS).tolist()
    manual = [0] * GRID_CELLS
    for x, y in positions:
        manual[min(int(y / (10 / 3)), 2) * 3 + min(int(x / (10 / 3)), 2)] += 1
    assert counts == manual
    assert sum(counts) == 200


def test_layout_variance_zero_iff_uniform():
    assert layout_variance([5] * 9) == 0.0
    assert layout_variance([4, 5, 5, 5, 5, 5, 5, 5, 6]) > 0.0
    # mean squared deviation, computed by hand for a simple split
    assert layout_variance([9, 0, 0, 0, 0, 0, 0, 0, 0]) == pytest.approx(
        ((9 - 1) ** 2 + 8 * 1) / 9
    )


def test_local_adversary_default_by_placement():
    assert local_adversary_default("uniform_grid") is False
    assert local_adversary_default("uniform_random") is True
    assert local_adversary_default("clustered") is True


# ---------------------------------------------------------------------------
# cell probability machinery
# ---------------------------------------------------------------------------

def test_cell_probability_matches_share_on_even_layout():
    positions = _grid_layout(45)
    prob, eff = measure_cell_probability(
        positions, 9, 4, substream(3, 1), samples=4000, radius=3.0
    )
    assert eff == 4000
    assert prob == pytest.approx(0.2, abs=0.03)  # 9 hostile of 45


def test_cell_probability_zero_without_adversaries():
    positions = _grid_layout(45)
    prob, _ = measure_cell_probability(
        positions, 0, 0, substream(3, 2), samples=300, radius=3.0
    )
    assert prob == 0.0


def test_cell_probability_unreachable_cell():
    # all nodes in the far corner; radius too small to reach cell 0
    positions = [(9.5, 9.5)] * 5
    prob, eff = measure_cell_probability(
        positions, 1, 0, substream(3, 3), samples=100, radius=1.0
    )
    assert prob is None and eff == 0


def test_cell_probability_conditioning_inflates_sparse_cell():
    # one lone node in cell 0, the rest clumped in cell 8
    positions = [(1.5, 1.5)] + [(8.5, 8.5)] * 19
    base, _ = measure_cell_probability(
        positions, 2, 0, substream(3, 4), samples=2000, radius=3.0,
        require_local_adversary=False,
    )
    conditioned, _ = measure_cell_probability(
        positions, 2, 0, substream(3, 5), samples=2000, radius=3.0,
        require_local_adversary=True,
    )
    # conditioned: the lone local node is always hostile, so every sample
    # that only reaches it must follow it
    assert conditioned > base + 0.3


def test_cell_probability_conditioning_needs_adversaries():
    with pytest.raises(ConfigError):
        measure_cell_probability(
            _grid_layout(18), 0, 0, substream(3, 6),
            samples=10, radius=3.0, require_local_adversary=True,
        )


def _reference_cell_probability(positions, adversary_count, cell, rng, *,
                                samples, radius, fanout, require_local_adversary):
    """The explicit cell sampler, one sample at a time: draw an adversary
    set (redrawn until it holds a cell member, when conditioning on a
    populated cell), poll up to ``fanout`` reachable nodes, follow one."""
    width = 10 / 3
    row, col = divmod(cell, 3)
    members = {
        i for i, (x, y) in enumerate(positions)
        if min(int(y / width), 2) * 3 + min(int(x / width), 2) == cell
    }
    constrain = require_local_adversary and members
    hits = effective = 0
    for _ in range(samples):
        point = ((col + rng.random()) * width, (row + rng.random()) * width)
        while True:
            adversaries = set(rng.sample(range(len(positions)), adversary_count))
            if not constrain or adversaries & members:
                break
        reach = [j for j, node in enumerate(positions)
                 if math.dist(point, node) <= radius]
        if not reach:
            continue
        polled = rng.sample(reach, min(fanout, len(reach)))
        effective += 1
        hits += polled[rng.randrange(len(polled))] in adversaries
    return (hits / effective if effective else None), effective


@pytest.mark.parametrize("placement, fanout", [
    ("uniform_grid", 1), ("uniform_random", 2), ("clustered", 3),
])
def test_cell_probability_matches_explicit_reference(placement, fanout):
    # the explicit sampler polls ``fanout`` nodes; the estimate has no
    # fanout, and must agree with it in every cell
    positions = [tuple(p) for p in place_nodes(SimConfig(
        full_node_count=12, light_node_count=1, placement=placement, seed=5,
    )).full_nodes.tolist()]
    ref_samples, samples = 800, 20_000
    for radius in (3.0, 1.5):
        for conditioned in (False, True):
            for cell in range(GRID_CELLS):
                key = (int(radius * 10), conditioned, cell)
                prob, eff = measure_cell_probability(
                    positions, 3, cell, substream(8, 1, *key), samples=samples,
                    radius=radius, require_local_adversary=conditioned,
                )
                ref, ref_eff = _reference_cell_probability(
                    positions, 3, cell, substream(8, 2, *key), samples=ref_samples,
                    radius=radius, fanout=fanout, require_local_adversary=conditioned,
                )
                if ref is None or prob is None:
                    # a sliver of reach can escape the smaller sample
                    assert max(eff / samples, ref_eff / ref_samples) < 0.01
                    continue
                var = prob * (1 - prob)
                se = math.sqrt(var / ref_eff + var / eff)
                assert abs(prob - ref) <= 4 * se + 1e-12, (radius, conditioned, cell)


def test_cell_probability_memory_is_bounded_by_blocks():
    positions = _grid_layout(45)
    tracemalloc.start()
    try:
        prob, eff = measure_cell_probability(
            positions, 9, 4, substream(3, 7), samples=1_000_000, radius=3.0,
            require_local_adversary=True,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eff == 1_000_000 and 0.0 < prob < 1.0
    assert peak < 50 * 2**20


def _ring_layout(cell: int, radius: float) -> np.ndarray:
    """Nodes exactly ``radius`` from each edge and corner of ``cell``, and
    just inside and outside that distance."""
    row, col = divmod(cell, 3)
    low, high = np.array((col, row)) * 10 / 3, np.array((col + 1, row + 1)) * 10 / 3
    mid, diag = (low + high) / 2, radius / math.sqrt(2)
    nodes = []
    for reach in (radius * (1 - 1e-12), radius, radius * (1 + 1e-12), 1.01 * radius):
        nodes += [(low[0] - reach, mid[1]), (high[0] + reach, mid[1]),
                  (mid[0], low[1] - reach), (mid[0], high[1] + reach)]
    nodes += [(low[0] - diag, low[1] - diag), (high[0] + diag, low[1] - diag),
              (low[0] - diag, high[1] + diag), (high[0] + diag, high[1] + diag)]
    return np.array(nodes)


def test_near_cell_keeps_every_node_the_cell_boundary_reaches():
    # reach is a closed ball: a node exactly radius from an edge or corner
    # is reached from the boundary points the sampler can round to, so the
    # prefilter keeps it
    size = np.array((10 / 3, 10 / 3))
    edge = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])  # u = 0, mid, rounds to 1
    for cell in range(GRID_CELLS):
        row, col = divmod(cell, 3)
        corner = np.array((col, row), dtype=float)
        u = np.array([(a, b) for a in edge for b in edge])
        boundary = (corner + u) * size
        for radius in (0.25, 1.0, 1.5, 3.0):
            nodes = _ring_layout(cell, radius)
            near = experiments._near_cell(nodes, corner, size, radius)
            reached = reachable(boundary, nodes, radius).any(axis=0)
            assert reached.sum() >= 4 and not (reached & ~near).any(), (cell, radius)
            assert not near[12:16].any()  # 1.01 * radius from the cell


def test_near_cell_prefilter_changes_no_cell_estimate(monkeypatch):
    layouts = [(_ring_layout(cell, radius), radius)
               for cell in (0, 4, 8) for radius in (0.5, 1.5)]
    layouts += [(place_nodes(SimConfig(full_node_count=30, light_node_count=1,
                                       placement=placement, seed=3)).full_nodes, radius)
                for placement in ("uniform_grid", "uniform_random", "clustered")
                for radius in (0.5, 1.5, 3.0, 20.0)]

    def estimates():
        return [
            measure_cell_probability(
                positions, 3, cell, substream(4, case, cell), samples=300,
                radius=radius, require_local_adversary=conditioned,
            )
            for case, (positions, radius) in enumerate(layouts)
            for cell in range(GRID_CELLS) for conditioned in (False, True)
        ]

    filtered = estimates()
    monkeypatch.setattr(experiments, "_near_cell",
                        lambda nodes, *_: np.ones(len(nodes), dtype=bool))
    unfiltered = estimates()
    assert filtered == unfiltered
    assert any(p is None for p, _ in filtered) and any(p for p, _ in filtered)


def _counted_cell_probability(positions, adversary_count, cell, rng, *, samples, radius,
                              require_local_adversary):
    """The cell sampler over every node, with points from a numpy Generator,
    reach by hypot and per-row ``count_nonzero`` counts, in the same blocks:
    the float sums must come out the same to the last bit."""
    nodes = np.asarray(positions, dtype=float)
    n = len(nodes)
    members = cell_index(nodes) == cell
    q_in = q_out = adversary_count / n
    if require_local_adversary:
        q_in, q_out = map(float, experiments.cell_adversary_odds(
            n, adversary_count, int(members.sum())))
    gen = np.random.Generator(np.random.Philox(key=rng.getrandbits(128)))
    row, col = divmod(cell, 3)
    block = -(-experiments._CELL_BLOCK_ELEMENTS // n)
    chance, effective = 0.0, 0
    for start in range(0, samples, block):
        points = (np.array((col, row), dtype=float)
                  + gen.random((min(block, samples - start), 2))) * (np.array((10.0, 10.0)) / 3)
        reach = np.hypot(np.subtract.outer(points[:, 0], nodes[:, 0]),
                         np.subtract.outer(points[:, 1], nodes[:, 1])) <= radius
        count = np.count_nonzero(reach, axis=1)
        local = np.count_nonzero(reach & members, axis=1)
        seen = count > 0
        chance += float(np.sum(
            (q_in * local[seen] + q_out * (count[seen] - local[seen])) / count[seen]))
        effective += int(np.count_nonzero(seen))
    return (None, 0) if effective == 0 else (chance / effective, effective)


@pytest.mark.parametrize("node_count", [30, 200])  # 200 nodes: a 656-point block and a 44
def test_cell_estimate_equals_count_nonzero_reference(node_count):
    for placement in ("uniform_grid", "uniform_random", "clustered"):
        positions = place_nodes(SimConfig(full_node_count=node_count, light_node_count=1,
                                          placement=placement, seed=5)).full_nodes
        for radius, cell, conditioned in itertools.product(
                (0.4, 1.5, 3.0), range(GRID_CELLS), (False, True)):
            kw = dict(samples=700, radius=radius, require_local_adversary=conditioned)
            got = measure_cell_probability(positions, 4, cell, substream(6, cell), **kw)
            want = _counted_cell_probability(positions, 4, cell, substream(6, cell), **kw)
            assert got == want, (placement, radius, cell, conditioned)


# ---------------------------------------------------------------------------
# heatmap experiment
# ---------------------------------------------------------------------------

PROB = "adversary_selection_probability"


def _cells(heatmap):
    """A heatmap table's rows by cell, in cell order: each a metric -> value
    map, with ``node_count`` and either ``unreachable`` or the probability
    and ``effective_samples``."""
    cells = {}
    for row in heatmap.rows:
        cells.setdefault(row.label, {})[row.metric] = row.value
    return list(cells.values())


def test_heatmap_uniform_grid_stays_near_global_share():
    cells = _cells(exp_heatmap("uniform_grid", samples_per_cell=600, seed=11))
    assert all(PROB in cell for cell in cells)
    for cell in cells:
        assert 0.05 <= cell[PROB] <= 0.15
    counts = [cell["node_count"] for cell in cells]
    assert max(counts) - min(counts) <= 1


def test_heatmap_zero_ratio_with_conditioning_off_is_flat_zero():
    heatmap = exp_heatmap(
        "uniform_grid", adversary_ratio=0.0, samples_per_cell=50,
        require_local_adversary=False, seed=11,
    )
    assert heatmap.values(PROB) == [0.0] * GRID_CELLS


def test_heatmap_zero_ratio_with_conditioning_raises():
    with pytest.raises(ConfigError):
        exp_heatmap(
            "uniform_random", adversary_ratio=0.0, samples_per_cell=10, seed=11
        )


def test_heatmap_clustered_sparse_exceeds_dense_mean():
    cells = _cells(exp_heatmap("clustered", samples_per_cell=600, seed=11))
    expected = 50 / GRID_CELLS
    sparse = [
        cell[PROB] for cell in cells
        if PROB in cell and cell["node_count"] < expected
    ]
    dense = [
        cell[PROB] for cell in cells
        if PROB in cell and cell["node_count"] >= expected
    ]
    assert sparse and dense
    assert max(sparse) > statistics.fmean(dense)


def test_heatmap_sample_doubling_consistent():
    first = _cells(exp_heatmap("uniform_random", samples_per_cell=500, seed=13))
    second = _cells(exp_heatmap(
        "uniform_random", samples_per_cell=1000, seed=13, layout_index=0
    ))
    for c1, c2 in zip(first, second, strict=True):
        p1, p2 = c1.get(PROB), c2.get(PROB)
        if p1 is None or p2 is None:
            assert p1 is None and p2 is None
            continue
        se = math.sqrt(
            p1 * (1 - p1) / c1["effective_samples"]
            + p2 * (1 - p2) / c2["effective_samples"]
        )
        assert abs(p1 - p2) < max(2 * se, 0.02)


def test_heatmap_layout_index_changes_layout_not_streams():
    a = exp_heatmap("uniform_random", samples_per_cell=100, seed=17, layout_index=0)
    b = exp_heatmap("uniform_random", samples_per_cell=100, seed=17, layout_index=1)
    assert a.values("node_count") != b.values("node_count")


@pytest.mark.parametrize("settings", [
    {"placement": "uniform_grid"},
    {"placement": "clustered"},
    # three of this layout's cells lie beyond 0.5 of all its 10 nodes
    {"placement": "uniform_random", "node_count": 10, "radius": 0.5, "layout_index": 2},
], ids=["uniform_grid", "clustered", "partly_unreachable"])
def test_heatmap_rows_are_complete_and_valid(settings):
    heatmap = exp_heatmap(**settings, samples_per_cell=100, seed=11)
    rows = iter(heatmap.rows)
    unreachable = 0
    for cell in range(GRID_CELLS):
        label = "cell-{}-{}".format(*divmod(cell, 3))
        count, first = next(rows), next(rows)
        assert (count.label, count.metric) == (label, "node_count")
        assert first.label == label
        if first.metric == "unreachable":
            # an unreachable cell carries no probability row
            assert (first.value, first.dispersion) == (1.0, None)
            unreachable += 1
            continue
        effective = next(rows)
        assert (first.metric, effective.label, effective.metric) == (
            PROB, label, "effective_samples")
        assert 0.0 <= first.value <= 1.0
        assert 0 < effective.value <= 100
        assert first.dispersion == math.sqrt(
            first.value * (1 - first.value) / effective.value)
    assert next(rows, None) is None
    assert unreachable == (3 if "radius" in settings else 0)


# ---------------------------------------------------------------------------
# variance experiment
# ---------------------------------------------------------------------------

def test_variance_study_rows_and_summary():
    result = exp_variance(runs=12, samples_per_cell=150, seed=23, workers=4)
    assert len(result.values("variance")) == 12
    assert len(result.values("min_cell_prob")) == 12
    rho = result.lookup("summary", "spearman_variance_min")
    assert -1.0 <= rho <= 1.0
    p_value = next(
        r.dispersion for r in result.rows if r.metric == "spearman_variance_min"
    )
    assert 0.0 <= p_value <= 1.0


def _spearman_cases():
    gen = np.random.default_rng(19)
    for n in range(3, 120, 2):
        x = gen.random(n)
        yield x, gen.random(n) + gen.uniform(-2, 2) * x  # random, any trend
        yield gen.integers(0, 4, n), gen.integers(0, 1 + n // 3, n)  # tied
    for y in itertools.permutations((1.0, 2.0, 3.0)):  # n = 3
        yield (1.0, 2.0, 3.0), y
        yield (1.0, 1.0, 3.0), y
    for n in (3, 4, 10, 100):  # perfect rank orders
        x = gen.random(n)
        yield x, x ** 3
        yield x, -x


def test_spearman_matches_scipy():
    checked = 0
    for x, y in _spearman_cases():
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue  # exp_variance reports a constant column itself
        rho, p_value = spearman(x, y)
        want = stats.spearmanr(x, y)
        assert math.isclose(rho, want.statistic, rel_tol=1e-9, abs_tol=0), (x, y)
        assert math.isclose(p_value, want.pvalue, rel_tol=1e-9, abs_tol=0), (x, y)
        checked += 1
    assert checked > 120
    assert spearman([1, 2, 3, 4], [2, 4, 6, 8]) == (1.0, 0.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == (-1.0, 0.0)


def test_variance_zero_variance_grid_min_equals_max_near_share():
    result = exp_variance(
        runs=3, samples_per_cell=800, placement="uniform_grid", seed=23
    )
    for label in ("layout-000", "layout-001", "layout-002"):
        assert result.lookup(label, "variance") < 0.2
        min_prob = result.lookup(label, "min_cell_prob")
        max_prob = result.lookup(label, "max_cell_prob")
        assert min_prob == pytest.approx(0.1, abs=0.04)
        assert max_prob == pytest.approx(0.1, abs=0.04)


def test_variance_needs_three_runs():
    for runs in (1, 2):
        with pytest.raises(ConfigError, match="runs >= 3"):
            exp_variance(runs=runs, samples_per_cell=10)


def _variance_rows_from_full_heatmaps(runs, node_count, samples_per_cell, radius,
                                      placement, require_local_adversary, seed):
    """The variance rows as first defined: measure all nine cells of each
    layout, then take the fewest-node and most-node reachable cells (ties:
    lower index).  Also counts layouts whose fewest-node cell is unreachable."""
    layout = SimConfig(full_node_count=node_count, adversary_ratio=0.1,
                       light_node_count=1, placement=placement)
    rows, skipped = {}, 0
    for run in range(runs):
        counts, measure = experiments._cell_layout(
            run, layout=layout, seed=seed, tag=experiments._TAG_VARIANCE,
            cell_key_base=1, samples=samples_per_cell, radius=radius,
            require_local_adversary=require_local_adversary,
        )
        cells = [measure(c) for c in range(GRID_CELLS)]
        measured = [i for i in range(GRID_CELLS) if cells[i][0] is not None]
        sparse = min(measured, key=lambda i: (counts[i], i))
        dense = max(measured, key=lambda i: (counts[i], -i))
        skipped += sparse != min(range(GRID_CELLS), key=lambda i: (counts[i], i))
        label = f"layout-{run:03d}"
        rows[label, "variance"] = (layout_variance(counts), None)
        for metric, cell in (("min_cell_prob", sparse), ("max_cell_prob", dense)):
            prob, effective = cells[cell]
            rows[label, metric] = (prob, experiments._binomial_se(prob, effective))
    return rows, skipped


@pytest.mark.parametrize("placement, node_count, radius, conditioned", [
    ("uniform_random", 100, 3.0, True),
    ("uniform_random", 100, 3.0, False),
    ("clustered", 60, 1.5, True),
    ("clustered", 60, 3.0, False),
    ("uniform_grid", 50, 3.0, True),
    ("uniform_grid", 50, 3.0, False),
    ("uniform_random", 10, 0.5, True),
    ("uniform_random", 10, 0.5, False),
])
def test_variance_measures_the_cells_a_full_heatmap_would_pick(
        placement, node_count, radius, conditioned):
    # variance measures cells in count order until one is reachable; its
    # rows must equal, float for float, those picked from all nine cells
    runs, samples = 8, 200
    result = exp_variance(runs=runs, node_count=node_count, samples_per_cell=samples,
                          radius=radius, placement=placement,
                          require_local_adversary=conditioned, seed=31)
    want, skipped = _variance_rows_from_full_heatmaps(
        runs, node_count, samples, radius, placement, conditioned, seed=31)
    got = {(row.label, row.metric): (row.value, row.dispersion)
           for row in result.rows if row.label != "summary"}
    assert got == want
    # radius 0.5 among 10 nodes leaves cells unreachable, empty ones first
    assert (skipped > 0) == (radius == 0.5)


def test_variance_layout_with_no_reachable_cell_exits_one(tmp_path, capsys):
    from tipleak.cli import main
    settings = ("node_count=1", "radius=0.001", "adversary_ratio=1", "runs=3")
    code = main(["run", "variance", "--out", str(tmp_path), "--workers", "1"]
                + [arg for setting in settings for arg in ("--set", f"variance.{setting}")])
    assert code == 1
    assert capsys.readouterr().err == (
        "tipleak: error: layout 0 left every grid cell unreachable\n")
    assert not any(tmp_path.iterdir())


def test_variance_workers_do_not_change_results():
    serial = exp_variance(runs=6, samples_per_cell=100, seed=29, workers=1)
    parallel = exp_variance(runs=6, samples_per_cell=100, seed=29, workers=3)
    assert result_to_csv_bytes(serial) == result_to_csv_bytes(parallel)


# ---------------------------------------------------------------------------
# region snapshot experiment
# ---------------------------------------------------------------------------

def test_region_data_file_totals():
    counts = load_region_counts()
    assert sum(counts.values()) == 47
    assert counts == {
        "africa": 1, "asia": 6, "europe": 31,
        "north_america": 8, "south_america": 1,
    }


def test_regional_rates_single_hostile_node():
    counts = load_region_counts()
    rates = regional_rates(counts, {"south_america": 1})
    assert rates["south_america"] == 1.0
    assert rates["europe"] == 0.0
    rates = regional_rates(counts, {"europe": 1})
    assert rates["europe"] == pytest.approx(1 / 31)


def test_realworld_single_adversary_is_exhaustive():
    result = exp_realworld(samples=100, max_adversaries=1, seed=31)
    assert result.lookup("adversaries-01", "subsets") == 47
    # equal region weights: 1 hostile node in south_america dominates
    assert result.lookup("adversaries-01", "max") == pytest.approx(1 / 5)
    assert result.lookup("adversaries-01", "min") == pytest.approx(1 / 31 / 5)


def test_realworld_everyone_hostile_rate_one():
    result = exp_realworld(samples=5, max_adversaries=47, seed=31)
    assert result.lookup("adversaries-47", "min") == pytest.approx(1.0)
    assert result.lookup("adversaries-47", "max") == pytest.approx(1.0)


def test_realworld_quartiles_ordered_and_counts_monotone():
    result = exp_realworld(samples=60, max_adversaries=8, seed=31)
    medians = []
    for count in range(1, 9):
        label = f"adversaries-{count:02d}"
        stats = [result.lookup(label, m) for m in ("min", "q1", "median", "q3", "max")]
        assert stats == sorted(stats)
        medians.append(stats[2])
    assert medians[-1] > medians[0]  # more hostile nodes, higher rates


def test_realworld_rejects_bad_inputs(tmp_path):
    with pytest.raises(ConfigError):
        exp_realworld(samples=0)
    with pytest.raises(ConfigError):
        exp_realworld(max_adversaries=48)
    bad = tmp_path / "regions.json"
    bad.write_text(json.dumps({"regions": {}}))
    with pytest.raises(ConfigError):
        exp_realworld(data=bad)
    bad.write_text(json.dumps({"regions": {"europe": -3}}))
    with pytest.raises(ConfigError):
        exp_realworld(data=bad)


def test_realworld_equivalence_of_regional_shares():
    counts = load_region_counts()
    four_eu = regional_rates(counts, {"europe": 4})["europe"]
    one_na = regional_rates(counts, {"north_america": 1})["north_america"]
    assert abs(four_eu - one_na) < 0.0041


# ---------------------------------------------------------------------------
# link-rate sweeps
# ---------------------------------------------------------------------------

def test_decentralized_analytic_columns_exact():
    result = exp_decentralized(light_nodes=20, rounds=10, seed=37)
    for n in (50, 100, 200):
        assert result.lookup(f"N-{n}", "analytic") == pytest.approx(0.1)
    for m in (1, 3, 5):
        assert result.lookup(f"M-{m}", "analytic") == pytest.approx(0.1)
    for ratio in (0.05, 0.1, 0.2, 0.33):
        assert result.lookup(f"p-{ratio:g}", "analytic") == pytest.approx(ratio)


def test_decentralized_empirical_tracks_analytic():
    result = exp_decentralized(light_nodes=50, rounds=60, seed=37, workers=4)
    for row in result.rows:
        if row.metric != "empirical":
            continue
        analytic = result.lookup(row.label, "analytic")
        assert row.value == pytest.approx(analytic, abs=0.025)
    assert result.lookup("N-sweep", "empirical_spread") < 0.05
    assert result.lookup("M-sweep", "empirical_spread") < 0.05


# ---------------------------------------------------------------------------
# mixer experiment
# ---------------------------------------------------------------------------

def test_mixer_chain_lengths_all_one_when_nothing_revealed():
    counts = simulate_mixer_chains(0.0, 500, substream(41, 1))
    assert counts.tolist() == [0, 500]


def test_mixer_chain_survival_matches_closed_form():
    counts = simulate_mixer_chains(0.5, 40_000, substream(41, 2))
    n = int(counts.sum())
    assert n == 40_000
    for x in (1, 2, 3, 4):
        want = 0.25 ** (x - 1)
        got = int(counts[x:].sum()) / n
        se = math.sqrt(want * (1 - want) / n) or 1e-9
        assert abs(got - want) < 4 * se


def test_mixer_experiment_table():
    result = exp_mixer(p_values=(0.1,), max_chain=4, participants=30_000, seed=41)
    assert result.lookup("p-0.1", "expected_raw") == pytest.approx(1.0203040506, abs=1e-9)
    assert result.lookup("p-0.1", "expected_normalized") == pytest.approx(
        1.0101010101, abs=1e-9
    )
    assert result.lookup("p-0.1-x-1", "chain_prob_empirical") == 1.0
    assert result.lookup("p-0.1-x-2", "chain_prob_analytic") == pytest.approx(0.01)
    mean_len = result.lookup("p-0.1", "mean_chain_length")
    assert mean_len == pytest.approx(1 / (1 - 0.01), abs=0.005)


def test_mixer_long_table_is_quick_and_never_rises():
    # chain lengths are counted once, not rescanned for each x: rescanning
    # 20,000 chains for each of 100,000 lengths takes tens of seconds
    started = time.perf_counter()
    result = exp_mixer(p_values=(0.5,), max_chain=100_000, participants=20_000,
                       seed=41)
    assert time.perf_counter() - started < 5.0
    empirical = result.values("chain_prob_empirical")
    assert len(empirical) == 100_000 and empirical[0] == 1.0
    assert all(later <= earlier for earlier, later in zip(empirical, empirical[1:]))
    assert empirical[-1] == 0.0


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
def test_mixer_spread_from_counts_is_statistics_bit_for_bit(p):
    gen = np.random.default_rng(int(p * 100))
    for n in (2, 3, 10, 999, 20_000, 100_000):
        lengths = gen.geometric(1 - p * p, n).tolist()  # a chain's length law
        mean, stdev = experiments._mean_and_stdev(np.bincount(lengths))
        assert mean.hex() == statistics.fmean(lengths).hex()
        assert stdev.hex() == statistics.stdev(lengths).hex()


def test_mixer_rejects_bad_probability():
    with pytest.raises(ConfigError):
        simulate_mixer_chains(1.0, 10, substream(41, 3))


# ---------------------------------------------------------------------------
# mitigation comparison
# ---------------------------------------------------------------------------

def test_mitigations_table_shape_and_nulls():
    result = exp_mitigations(
        baseline_rounds=40, scaling_rounds=20, light_nodes=30,
        proxy_light_nodes=4, seed=43,
    )
    assert result.lookup("scaling", "required_full_nodes") == 1001
    assert result.lookup("direct", "link_rate") == 0.0
    assert result.lookup("direct", "correct_link_rate") == 0.0
    assert result.lookup("proxy", "links_to_proxies_only") == 1.0
    assert result.lookup("proxy", "anonymity_degree") == pytest.approx(1.0, abs=1e-9)
    # no attacked address: every light keeps its anonymity
    assert result.lookup("direct", "anonymity_degree") == 1.0
    baseline = result.lookup("baseline", "link_rate")
    assert baseline == pytest.approx(0.1, abs=0.04)
    assert result.lookup("baseline", "anonymity_degree") == 0.0


# ---------------------------------------------------------------------------
# result containers and serialization
# ---------------------------------------------------------------------------

def test_result_rows_reject_non_finite():
    with pytest.raises(ValueError):
        ResultRow("a", "b", float("nan"))
    with pytest.raises(ValueError):
        ResultRow("a", "b", 1.0, float("inf"))
    result = ExperimentResult("demo", {}, 1)
    with pytest.raises(ValueError):
        result.add("a", "b", float("inf"))


def test_format_value_nine_significant_digits():
    assert format_value(0.1) == "0.1"
    assert format_value(1 / 3) == "0.333333333"
    assert format_value(1.0203040506) == "1.02030405"
    assert format_value(12345) == "12345"
    assert format_value(None) == ""


def test_config_hash_is_order_insensitive_and_value_sensitive():
    a = config_hash({"x": 1, "y": 2})
    b = config_hash({"y": 2, "x": 1})
    c = config_hash({"x": 1, "y": 3})
    assert a == b != c
    assert len(a) == 16


def test_csv_bytes_embed_header_and_metadata():
    result = ExperimentResult("demo", {"k": 1}, 77)
    result.add("row", "metric", 0.5, 0.01)
    text = result_to_csv_bytes(result).decode()
    lines = text.splitlines()
    assert lines[0] == "# seed=77"
    assert lines[1].startswith("# config_hash=")
    assert lines[2] == "# version=0.1.0"
    assert lines[3] == "label,metric,value,dispersion"
    assert lines[4] == "row,metric,0.5,0.01"
    assert text.endswith("\n")


def test_json_bytes_roundtrip():
    result = ExperimentResult("demo", {"k": 1}, 77)
    result.add("row", "metric", 0.5)
    doc = json.loads(result_to_json_bytes(result))
    assert doc["experiment"] == "demo"
    assert doc["seed"] == 77
    assert doc["rows"][0] == {
        "label": "row", "metric": "metric", "value": 0.5, "dispersion": None,
    }


def test_write_result_atomic_and_named(tmp_path):
    result = ExperimentResult("demo", {"k": 1}, 9)
    result.add("row", "metric", 1.25)
    path = write_result(result, tmp_path, "csv")
    assert path.name == "demo_9.csv"
    assert not list(tmp_path.glob(".demo_9.csv.*"))  # no temp litter
    again = write_result(result, tmp_path, "csv")
    assert again.read_bytes() == path.read_bytes()
    json_path = write_result(result, tmp_path, "structured")
    assert json_path.name == "demo_9.json"


def test_pmap_preserves_order_and_matches_serial():
    jobs = list(range(20))
    assert pmap(_square, jobs, workers=1) == [j * j for j in jobs]
    assert pmap(_square, jobs, workers=3) == [j * j for j in jobs]


def _square(x: int) -> int:
    return x * x


@pytest.mark.parametrize("workers, jobs, cpus, size", [
    (1000, 5, 4, 4), (3, 5, 4, 3), (1000, 2, 4, 2), (8, 5, 1, None), (2, 1, 4, None),
])
def test_pmap_caps_pool_at_jobs_and_cpus(monkeypatch, workers, jobs, cpus, size):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    # pmap imports the pool class when it needs one: patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    assert pmap(_square, range(jobs), workers=workers) == [j * j for j in range(jobs)]
    assert sizes == ([] if size is None else [size])


def test_only_decentralized_and_variance_fan_out():
    fans_out = {
        name for name, study in STUDIES.items()
        if "workers" in inspect.signature(getattr(experiments, study.function)).parameters
    }
    assert fans_out == {"decentralized", "variance"}


def test_simulated_rate_sends_back_two_numbers():
    (config,) = experiments._seeded([SimConfig()], 5, experiments._TAG_DECENTRALIZED)
    rate = experiments._simulated_rate(config)
    assert rate == experiments._link_rate(run_simulation(config))
    assert len(pickle.dumps(rate)) < 100


# ---------------------------------------------------------------------------
# study registry
# ---------------------------------------------------------------------------

def test_registry_keys_are_the_cli_surface():
    assert {name: set(study.defaults()) for name, study in STUDIES.items()} == {
        "decentralized": {"light_nodes", "rounds"},
        "realworld": {"samples", "max_adversaries", "data"},
        "heatmap": {
            "placement", "node_count", "adversary_ratio", "samples_per_cell",
            "radius", "require_local_adversary", "cluster_count",
            "cluster_spread", "cluster_fraction", "layout_index",
        },
        "variance": {
            "runs", "node_count", "samples_per_cell", "adversary_ratio",
            "radius", "placement", "require_local_adversary",
        },
        "mixer": {"p_values", "max_chain", "participants"},
        "mitigations": {
            "baseline_nodes", "baseline_adversaries", "scaling_target",
            "baseline_rounds", "scaling_rounds", "light_nodes",
            "proxy_light_nodes",
        },
        "custom": {
            "full_node_count", "adversary_count", "adversary_ratio",
            "request_fanout", "light_node_count", "rounds", "request_radius",
            "placement", "cluster_count", "cluster_spread", "cluster_fraction",
            "mode", "matching", "proxy_count", "bootstrap_tips",
        },
    }
    assert STUDIES["custom"].defaults()["rounds"] == 100
    assert STUDIES["mixer"].defaults()["p_values"] == (0.05, 0.1, 0.2)


def test_registry_calls_the_study_function_current_at_run_time(monkeypatch):
    calls = []

    def fake_mixer(p_values=(0.5,), max_chain=1, *, participants=1, seed=0):
        calls.append((p_values, max_chain, participants, seed))
        return ExperimentResult("mixer", {}, seed)

    monkeypatch.setattr(experiments, "exp_mixer", fake_mixer)
    STUDIES["mixer"].run({"max_chain": 4}, seed=9, workers=3)
    assert calls == [((0.5,), 4, 1, 9)]


def test_registry_renames_data_key(tmp_path):
    with pytest.raises(ConfigError, match="cannot read region data"):
        STUDIES["realworld"].run({"data": str(tmp_path / "missing.json")})


def test_heatmap_rejects_nonpositive_radius():
    for radius in (0.0, -1.0):
        with pytest.raises(ConfigError, match="radius must be positive"):
            exp_heatmap("uniform_grid", radius=radius, samples_per_cell=10)


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe not utf-8", "cannot read region data"),
    (b"{not json", "cannot read region data"),
    (b"[1, 2]", "non-empty 'regions' mapping"),
    (b'{"regions": {"eu": true, "na": 3}}', "invalid count True"),
])
def test_load_region_counts_rejects_bad_files(tmp_path, content, message):
    path = tmp_path / "regions.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_region_counts(path)


def test_load_region_counts_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read region data"):
        load_region_counts(tmp_path / "absent.json")
