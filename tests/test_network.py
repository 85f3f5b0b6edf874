"""Attack-engine tests: placement, reachability, matching, and full runs."""

import dataclasses
import hashlib
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from tipleak import network
from tipleak.analytic import AnonymityProfile, entropy_degree
from tipleak.network import (
    GRID_DIM,
    ConfigError,
    Links,
    Population,
    ResponseLog,
    RoundAttaches,
    SimConfig,
    Simulation,
    _grid_positions,
    _join_keys,
    _pair_join,
    _row_keys,
    match_responses,
    place_nodes,
    proxy_assign,
    reachable,
    run_simulation,
    sample_positions,
)
from tipleak.rng import DOMAIN_REQUEST, DOMAIN_URTS, uniforms, words
from tipleak.tangle import (
    GENESIS_ID,
    Ledger,
    bootstrap_labels,
    ledger_from_lines,
    round_address,
    urts_pairs,
)


def _tiny_config(**kw) -> SimConfig:
    base = dict(
        full_node_count=10,
        adversary_count=2,
        request_fanout=3,
        light_node_count=8,
        rounds=5,
        seed=1234,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SimConfig(full_node_count=0)
    with pytest.raises(ConfigError):
        SimConfig(adversary_count=11, full_node_count=10)
    with pytest.raises(ConfigError):
        SimConfig(adversary_ratio=1.5)
    with pytest.raises(ConfigError):
        SimConfig(request_fanout=0)
    with pytest.raises(ConfigError):
        SimConfig(placement="ring")
    with pytest.raises(ConfigError):
        SimConfig(mode="proxy", proxy_count=0)
    with pytest.raises(ConfigError):
        SimConfig(request_radius=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(request_radius=math.nan)
    with pytest.raises(ConfigError):
        SimConfig(matching="fuzzy")


@pytest.mark.parametrize("field, value", [
    ("adversary_count", 10.5), ("adversary_count", True), ("rounds", 2.0),
    ("light_node_count", False), ("proxy_count", "1"),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("cluster_count", 0, "cluster_count must be >= 1"),
    ("cluster_count", -3, "cluster_count must be >= 1"),
    ("cluster_spread", -1.0, "cluster_spread must be >= 0"),
    ("cluster_spread", math.nan, "cluster_spread must be >= 0"),
    ("cluster_spread", math.inf, "cluster_spread must be >= 0 and finite"),
    ("cluster_fraction", -0.1, r"cluster_fraction must be in \[0, 1\]"),
    ("cluster_fraction", 2.0, r"cluster_fraction must be in \[0, 1\]"),
])
def test_config_rejects_meaningless_cluster_settings(field, value, message):
    with pytest.raises(ConfigError, match=message):
        SimConfig(placement="clustered", **{field: value})


def test_config_accepts_cluster_settings_at_their_bounds():
    for settings in ({"cluster_count": 1}, {"cluster_spread": 0.0},
                     {"cluster_fraction": 0.0}, {"cluster_fraction": 1.0}):
        place_nodes(SimConfig(placement="clustered", full_node_count=20, **settings))


def test_effective_adversaries_from_ratio_or_count():
    assert SimConfig(full_node_count=100, adversary_ratio=0.1).effective_adversaries == 10
    assert SimConfig(full_node_count=50, adversary_ratio=0.1).effective_adversaries == 5
    assert SimConfig(full_node_count=100, adversary_count=33).effective_adversaries == 33


# ---------------------------------------------------------------------------
# placement and reachability
# ---------------------------------------------------------------------------

def test_uniform_grid_nine_nodes_sit_at_cell_centers():
    config = SimConfig(full_node_count=9, adversary_count=0, placement="uniform_grid")
    pop = place_nodes(config)
    cell = 10.0 / GRID_DIM
    expected = {
        ((col + 0.5) * cell, (row + 0.5) * cell)
        for row in range(GRID_DIM)
        for col in range(GRID_DIM)
    }
    got = set(map(tuple, pop.full_nodes.tolist()))
    assert {
        (round(x, 9), round(y, 9)) for x, y in got
    } == {(round(x, 9), round(y, 9)) for x, y in expected}


def test_uniform_grid_spreads_counts_evenly():
    config = SimConfig(full_node_count=50, adversary_count=5, placement="uniform_grid")
    pop = place_nodes(config)
    cell = 10.0 / GRID_DIM
    counts = [0] * (GRID_DIM * GRID_DIM)
    for x, y in pop.full_nodes.tolist():
        col = min(int(x / cell), GRID_DIM - 1)
        row = min(int(y / cell), GRID_DIM - 1)
        counts[row * GRID_DIM + col] += 1
    assert max(counts) - min(counts) <= 1


def _grid_positions_per_point(n):
    """The reference lattice: each cell's members listed round-robin, then
    placed one by one on the cell's sub-lattice."""
    cell_w, cell_h = network.PLANE[0] / GRID_DIM, network.PLANE[1] / GRID_DIM
    per_cell = [[] for _ in range(GRID_DIM * GRID_DIM)]
    for i in range(n):
        per_cell[i % (GRID_DIM * GRID_DIM)].append(i)
    positions = [None] * n
    for cell_idx, members in enumerate(per_cell):
        row, col = divmod(cell_idx, GRID_DIM)
        side = math.ceil(math.sqrt(len(members)))
        for slot, node_idx in enumerate(members):
            sx, sy = slot % side, slot // side
            positions[node_idx] = ((col + (sx + 0.5) / side) * cell_w,
                                   (row + (sy + 0.5) / side) * cell_h)
    return np.array(positions, dtype=float).reshape(n, 2)


def test_grid_positions_equal_the_per_point_reference():
    for n in [*range(300), 3200, 10007]:
        got, want = _grid_positions(n), _grid_positions_per_point(n)
        assert got.shape == want.shape == (n, 2) and got.dtype == want.dtype
        assert got.tolist() == want.tolist(), n


def test_uniform_positions_equal_two_uniform_draws_per_point():
    for n in (0, 1, 2, 37, 400):
        got_rng, want_rng = random.Random(n), random.Random(n)
        got = network._uniform_positions(n, got_rng)
        want = np.array([(want_rng.uniform(0, network.PLANE[0]),
                          want_rng.uniform(0, network.PLANE[1])) for _ in range(n)],
                        dtype=float).reshape(n, 2)
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert got_rng.random() == want_rng.random()  # the stream is left alike


def test_placement_is_deterministic():
    config = _tiny_config(placement="clustered", proxy_count=2)
    first, again = place_nodes(config), place_nodes(config)
    other = place_nodes(dataclasses.replace(config, seed=config.seed + 1))
    for name in ("full_nodes", "adversary", "proxies", "light_nodes"):
        assert np.array_equal(getattr(first, name), getattr(again, name))
    assert not np.array_equal(first.full_nodes, other.full_nodes)
    assert not np.array_equal(first.light_nodes, other.light_nodes)


def test_population_shapes_and_id_order():
    config = _tiny_config(proxy_count=3)
    pop = place_nodes(config)
    assert pop.full_nodes.shape == (10, 2)
    assert pop.adversary.shape == (10,) and pop.adversary.sum() == 2
    assert pop.proxies.shape == (3, 2)
    assert pop.light_nodes.shape == (8, 2)
    # full nodes 0-9, proxies 10-12, lights 13-20
    assert pop.light_ids.tolist() == list(range(13, 21))
    assert [row["light_id"] for row in run_simulation(config).per_light] == list(range(13, 21))


def test_reachability_closed_ball_boundary():
    full = [(0.0, 2.9), (0.0, 3.0), (0.0, 3.1)]
    reach = reachable([(0.0, 0.0), (0.0, 6.0)], full, 3.0)
    assert reach.tolist() == [
        [True, True, False],  # 3.0 exactly included
        [False, True, True],
    ]


def _hypot_distances(points, nodes):
    return np.hypot(np.subtract.outer(points[:, 0], nodes[:, 0]),
                    np.subtract.outer(points[:, 1], nodes[:, 1]))


def test_reachability_equals_hypot_at_every_lattice_distance():
    # Squared distances and hypot round differently: with the radius equal
    # to a lattice distance, d2 <= r*r alone misjudges tens of thousands of
    # these pairs.  Every grid position of 1-200 nodes serves as light and
    # as node; each distance is a radius, tried from every light at it.
    lattice = np.unique(np.concatenate(
        [_grid_positions(n) for n in range(1, 201)]), axis=0)
    dist = _hypot_distances(lattice, lattice)
    radii, inverse, counts = np.unique(dist, return_inverse=True, return_counts=True)
    holders = np.split(np.argsort(inverse, axis=None, kind="stable") // len(lattice),
                       np.cumsum(counts)[:-1])
    assert len(radii) > 6000
    for radius, rows in zip(radii, holders):
        rows = np.unique(rows)
        reach = reachable(lattice[rows], lattice, radius)
        assert np.array_equal(reach, dist[rows] <= radius), radius


def test_reachability_equals_hypot_on_random_blocks():
    gen = np.random.default_rng(11)
    for _ in range(10):
        points = gen.random((400, 2)) * 10
        nodes = gen.random((250, 2)) * 10
        dist = _hypot_distances(points, nodes)
        # plain decimals, and distances the block holds
        radii = np.concatenate((np.round(gen.uniform(0.01, 14.2, 10), 2),
                                gen.choice(dist.ravel(), 10)))
        for radius in radii:
            assert np.array_equal(reachable(points, nodes, radius), dist <= radius)
    # radii that reach nothing or whose square is not a normal float
    for radius in (-3.0, 0.0, 1e-200, 1e200, math.inf, math.nan):
        assert np.array_equal(reachable(points, nodes, radius), dist <= radius)


def test_unbounded_radius_reaches_everyone():
    pop = place_nodes(_tiny_config(request_radius=None))
    assert reachable([(0.0, 0.0)], pop.full_nodes, None).tolist() == [[True] * 10]


def test_proxy_assignment_nearest_with_lowest_id_ties():
    pop = Population(
        full_nodes=np.zeros((100, 2)),
        adversary=np.zeros(100, dtype=bool),
        proxies=np.array([(4.0, 5.0), (6.0, 5.0), (9.0, 9.0)]),  # ids 100-102
        light_nodes=np.array([(5.0, 5.0), (5.5, 5.0), (9.0, 8.0)]),
    )
    # the first light is as far from proxy 100 as from proxy 101
    assert proxy_assign(pop).tolist() == [100, 101, 102]
    pop_no_proxy = dataclasses.replace(pop, proxies=np.empty((0, 2)))
    with pytest.raises(ConfigError):
        proxy_assign(pop_no_proxy)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _log(*entries):
    """A response log with one row per (nonce, requester, tips) entry."""
    return ResponseLog(
        nonce=np.array([e[0] for e in entries], dtype=np.int64).reshape(-1, 3),
        requester=np.array([e[1] for e in entries], dtype=np.int64),
        tips=np.array([e[2] for e in entries], dtype=np.int64).reshape(-1, 2),
    )


def _attaches(*rows):
    """Round-0 attaches, one per (light, parents, followed nonce) row; each
    light issues under its own identity.  Returns them with the nonces."""
    light = np.array([r[0] for r in rows], dtype=np.int64)
    return RoundAttaches(
        light=light,
        identity=light,
        parents=np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, 2),
        round=np.zeros(len(light), dtype=np.int64),
    ), np.array([r[2] for r in rows], dtype=np.int64).reshape(-1, 3)


def _join(left, right):
    """Every (left row, right row) index pair of equal integer rows, by
    right row and then by left row."""
    keys = _row_keys(*np.concatenate((left, right)).T)
    return _join_keys(keys[:len(left)], keys[len(left):])


def _nonce_match(log, new, followed_nonce):
    """The assume_unique links: each attach joined on the nonce of the
    response it followed, which names one served response -- no false
    positives by construction."""
    log_idx, new_idx = _join(log.nonce, followed_nonce)
    claimed = log.requester[log_idx]
    return Links(nonce=log.nonce[log_idx], claimed=claimed, light=new.light[new_idx],
                 correct=claimed == new.identity[new_idx])


def test_assume_unique_ignores_coincident_honest_pairs():
    log = _log(((0, 0, 50), 50, (4, 9)))
    entries, nonces = _attaches(
        (50, (4, 9), (0, 0, 50)),   # followed the logged response
        (51, (4, 9), (0, 1, 51)),   # same pair from an honest node
    )
    links = _nonce_match(log, entries, nonces)
    assert len(links) == 1
    assert round_address(links.nonce[0, 0], links.light[0]) == round_address(0, 50)
    assert links.nonce[0].tolist() == [0, 0, 50]
    assert links.correct[0]


def test_collision_aware_links_all_pair_matches():
    # both entries carry the logged pair (order ignored): two links, one wrong
    log = _log(((0, 0, 50), 50, (4, 9)))
    entries, _ = _attaches(
        (50, (9, 4), (0, 0, 50)),
        (51, (4, 9), (0, 1, 51)),
    )
    links = match_responses(log, entries)
    assert len(links) == 2
    assert links.correct.sum() == 1
    assert set(links.claimed.tolist()) == {50}


def test_collision_aware_no_match_no_link():
    log = _log(((0, 0, 50), 50, (4, 9)))
    entries, nonces = _attaches((50, (4, 8), (0, 9, 50)))
    assert len(match_responses(log, entries)) == 0
    assert len(_nonce_match(log, entries, nonces)) == 0


def test_matching_orders_links_by_attach_then_log_row():
    log = _log(((0, 2, 61), 61, (1, 2)), ((0, 3, 60), 60, (2, 1)), ((0, 4, 62), 62, (7, 8)))
    entries, nonces = _attaches((60, (1, 2), (0, 3, 60)), (61, (2, 1), (0, 5, 61)))
    links = match_responses(log, entries)
    assert list(zip(links.light.tolist(), links.claimed.tolist())) == [
        (60, 61), (60, 60), (61, 61), (61, 60),
    ]
    unique = _nonce_match(log, entries, nonces)
    assert list(zip(unique.light.tolist(), unique.claimed.tolist())) == [(60, 60)]


def test_matching_empty_inputs():
    assert len(_nonce_match(_log(), *_attaches())) == 0
    assert len(match_responses(_log(), _attaches((5, (1, 1), (-1, -1, -1)))[0])) == 0
    # nonce-tagged links are gathered by the simulator, never joined here
    with pytest.raises(ConfigError, match="collision_aware only"):
        match_responses(_log(), _attaches()[0], "assume_unique")


def _step_plan(sizes, counts):
    """The step-major pick mask and pick bounds, as ``Requesters`` holds them."""
    steps = np.arange(counts.max(initial=0))[:, None]
    drawing = steps < counts
    return drawing, (sizes - steps)[drawing]


def test_sample_positions_uniform_distinct_variable_sizes():
    # rows of 1, 3 and 6 reachable nodes with fanouts 1, 3 and 2
    sizes = np.array([1, 3, 6])
    counts = np.array([1, 3, 2])
    drawing, bounds = _step_plan(sizes, counts)
    draws = (uniforms(5, 3, range(3000), len(bounds)) * bounds).astype(np.int64)
    pair_counts = Counter()
    for picks in sample_positions(draws, drawing):
        first, whole, pair = picks[:1], picks[1:4], picks[4:]
        assert first.tolist() == [0]
        assert sorted(whole.tolist()) == [0, 1, 2]
        assert len(set(pair.tolist())) == 2 and pair.max() < 6
        pair_counts[tuple(sorted(pair.tolist()))] += 1
    # all 15 unordered pairs of 6, each near 3000/15 = 200
    assert len(pair_counts) == 15
    assert all(abs(n - 200) < 4 * math.sqrt(200) for n in pair_counts.values())


def _sample_positions_per_step(u, sizes, counts):
    """The reference sampler: one pick per fan-out step for each row still
    drawing, from the round's uniforms in step-major order, each pick
    stepped over that row's taken positions."""
    width = int(counts.max(initial=0))
    picks = np.zeros((len(sizes), width), dtype=np.int64)
    used = 0
    for t in range(width):
        live = np.flatnonzero(counts > t)
        pick = np.array([int(x * (size - t)) for x, size
                         in zip(u[used:used + len(live)].tolist(), sizes[live].tolist())],
                        dtype=np.int64)
        used += len(live)
        for taken in np.sort(picks[live, :t], axis=1).T:
            pick += taken <= pick
        picks[live, t] = pick
    return picks[np.arange(width) < counts[:, None]]


def test_sample_positions_equals_the_per_step_reference():
    # as a simulation does: a block of rounds' uniforms in one call, mapped
    # to picks and sampled at once; each round against its own call
    cases = np.random.default_rng(12)
    for case in range(400):
        rows = int(cases.integers(0, 12))
        width = int(cases.integers(0, 7))  # 0: no row draws
        counts = cases.integers(0, width + 1, rows)
        sizes = counts + cases.integers(0, 5, rows)
        drawing, bounds = _step_plan(sizes, counts)
        rounds = range(4 * case, 4 * case + int(cases.integers(1, 4)))
        draws = (uniforms(9, 3, rounds, len(bounds)) * bounds).astype(np.int64)
        got = sample_positions(draws, drawing)
        assert got.shape == (len(rounds), counts.sum())
        for picks, round_idx in zip(got, rounds):
            (own,) = uniforms(9, 3, range(round_idx, round_idx + 1), len(bounds))
            want = _sample_positions_per_step(own, sizes, counts)
            assert picks.dtype == want.dtype and picks.tolist() == want.tolist()


def test_sample_positions_equals_the_per_step_reference_at_wide_fanouts():
    # planned as Requesters plans them: fan-outs up to 8, rows that reach
    # fewer full nodes than the fan-out (and so query every one of them),
    # and rows that reach a single node
    cases = np.random.default_rng(21)
    widths = set()
    for case in range(200):
        rows = int(cases.integers(1, 12))
        sizes = cases.integers(1, 12, rows)
        sizes[cases.random(rows) < 0.25] = 1
        counts = np.minimum(sizes, int(cases.integers(1, 9)))
        widths.add(int(counts.max()))
        drawing, bounds = _step_plan(sizes, counts)
        rounds = range(4 * case, 4 * case + int(cases.integers(1, 4)))
        draws = (uniforms(11, 3, rounds, len(bounds)) * bounds).astype(np.int64)
        got = sample_positions(draws, drawing)
        first = np.cumsum(counts) - counts
        for picks, round_idx in zip(got, rounds):
            (own,) = uniforms(11, 3, range(round_idx, round_idx + 1), len(bounds))
            assert picks.tolist() == _sample_positions_per_step(own, sizes, counts).tolist()
            for start, count, size in zip(first.tolist(), counts.tolist(), sizes.tolist()):
                subset = sorted(picks[start:start + count].tolist())
                assert len(set(subset)) == count and subset[-1] < size
                if count == size:  # a row that queries all it reaches
                    assert subset == list(range(size))
    assert widths == set(range(1, 9))


def test_sample_positions_drawing_everywhere_equals_the_masked_path():
    # when every row picks at every step no mask is applied; one more row
    # that picks only at the first step sends the same draws through the
    # masked path, and must leave the other rows' picks as they were
    cases = np.random.default_rng(31)
    shapes = [(3200, 3, 1)] + [(int(cases.integers(1, 12)), int(cases.integers(1, 7)),
                                int(cases.integers(1, 4))) for _ in range(200)]
    for case, (rows, width, span) in enumerate(shapes):
        sizes = width + cases.integers(0, 5, rows)
        drawing, bounds = _step_plan(sizes, np.full(rows, width))
        assert drawing.all()
        rounds = range(4 * case, 4 * case + span)
        draws = (uniforms(13, 3, rounds, len(bounds)) * bounds).astype(np.int64)
        got = sample_positions(draws, drawing)
        extra = np.arange(span) % 2  # the extra row picks from two positions
        masked = sample_positions(
            np.insert(draws, rows, extra, axis=1),
            np.column_stack((drawing, np.arange(width) < 1)))
        assert got.dtype == masked.dtype and got.shape == (span, rows * width)
        assert got.tolist() == masked[:, :-1].tolist()
        assert masked[:, -1].tolist() == extra.tolist()
    empty = sample_positions(np.zeros((2, 0), dtype=np.int64), np.ones((0, 5), bool))
    assert empty.shape == (2, 0)


def _join_reference(left, right):
    """Every (left row, right row) pair of equal rows, by right then left row."""
    pairs = [(i, j) for j, b in enumerate(right.tolist())
             for i, a in enumerate(left.tolist()) if a == b]
    left_idx, right_idx = zip(*pairs) if pairs else ((), ())
    return list(left_idx), list(right_idx)


@pytest.mark.parametrize("unique_left", [True, False])
def test_join_equals_the_pairwise_reference(unique_left):
    gen = np.random.default_rng(13)
    for _ in range(200):
        columns = int(gen.integers(1, 4))
        pool = gen.integers(-2, 3, (12, columns))
        if unique_left:
            pool = np.unique(pool, axis=0)
        left = pool[gen.choice(len(pool), int(gen.integers(0, len(pool) + 1)),
                               replace=not unique_left)]
        right = gen.integers(-2, 3, (int(gen.integers(0, 10)), columns))
        left_idx, right_idx = _join(left, right)
        assert (left_idx.tolist(), right_idx.tolist()) == _join_reference(left, right)
    # the collision-aware join, on (round, unordered tip pair) keys: a few
    # ids up to 2**40 per block, so pairs collide, some blocks spanning too
    # wide a range of ids to key in int64
    raised = 0
    for _ in range(300):
        width = 2 ** int(gen.integers(2, 41))
        ids = gen.integers(0, 2 ** 40 - width + 1, dtype=np.int64) + gen.integers(
            0, width, int(gen.integers(1, 6)), dtype=np.int64)
        span = int(gen.integers(1, 4))

        def block(n):
            return gen.integers(0, span, n), ids[gen.integers(0, len(ids), (n, 2))]

        left_round, left_pairs = block(int(gen.integers(0, 12)))
        left = np.column_stack((left_round, np.sort(left_pairs, axis=1)))
        if unique_left:
            _, first = np.unique(left, axis=0, return_index=True)
            left_round, left_pairs, left = left_round[first], left_pairs[first], left[first]
        right_round, right_pairs = block(int(gen.integers(0, 10)))
        right = np.column_stack((right_round, np.sort(right_pairs, axis=1)))
        rows = np.concatenate((left, right))
        ranges = [int(c.max()) - int(c.min()) + 1 for c in rows.T] if len(rows) else []
        if math.prod(ranges) > np.iinfo(np.int64).max:
            raised += 1
            with pytest.raises(ValueError):
                _pair_join(left_round, left_pairs, right_round, right_pairs)
            continue
        left_idx, right_idx = _pair_join(left_round, left_pairs, right_round, right_pairs)
        assert (left_idx.tolist(), right_idx.tolist()) == _join_reference(left, right)
    assert 0 < raised < 300


def test_row_keys_are_the_raveled_offset_rows_or_raise_as_ravel_does():
    gen = np.random.default_rng(29)
    limit = np.iinfo(np.int64).max
    raised = 0
    for _ in range(300):
        columns = [gen.integers(-(2 ** 40), 2 ** 40, dtype=np.int64)
                   + gen.integers(0, 2 ** int(gen.integers(0, 40)), 6, dtype=np.int64)
                   for _ in range(int(gen.integers(1, 4)))]
        offset = [c - c.min() for c in columns]
        dims = [int(c.max()) + 1 for c in offset]
        if math.prod(dims) > limit:
            raised += 1
            with pytest.raises(ValueError):
                np.ravel_multi_index(offset, dims)
            with pytest.raises(ValueError):
                network._row_keys(*columns)
            continue
        assert network._row_keys(*columns).tolist() == np.ravel_multi_index(offset, dims).tolist()
    assert 0 < raised < 300
    # ranges that multiply to exactly 2**63 - 1 still key; one more raises
    ranges = (7 * 7 * 73 * 127, 337 * 92737, 649657)
    assert math.prod(ranges) == limit
    columns = [np.array([0, size - 1]) for size in ranges]
    assert network._row_keys(*columns).tolist() == [0, limit - 1]
    columns[-1][-1] += 1
    with pytest.raises(ValueError):
        network._row_keys(*columns)


def test_collision_aware_keys_never_wrap():
    # a naive key (round * K + lo) * K + hi with K the ledger span, 2**33,
    # wraps int64 on the second attach's round and gives it the log's key
    log = ResponseLog(nonce=np.array([[0, 3, 60]]), requester=np.array([60]),
                      tips=np.array([[0, 5]]))
    attaches = RoundAttaches(
        light=np.array([60, 61]), identity=np.array([60, 61]),
        parents=np.array([[5, 0], [2 ** 33 - 1, 1]]), round=np.array([1, 1]),
    )
    assert len(match_responses(log, attaches)) == 0
    # ids too far apart to key in int64 raise instead of wrapping
    wide = RoundAttaches(
        light=np.array([60]), identity=np.array([60]),
        parents=np.array([[2 ** 62, 2 ** 40]]), round=np.array([2 ** 20]),
    )
    with pytest.raises(ValueError):
        match_responses(log, wide)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_single_adversary_single_request_always_links():
    config = SimConfig(
        full_node_count=1, adversary_count=1, request_fanout=1,
        light_node_count=1, rounds=4, seed=9,
    )
    result = run_simulation(config)
    assert result.total_transactions == 4
    assert result.linked_count == 4
    assert result.correct_link_count == 4
    assert result.deanon_rate == 1.0
    assert result.false_positive_count == 0


def test_no_adversaries_no_links():
    result = run_simulation(_tiny_config(adversary_count=0))
    assert result.linked_count == 0
    assert result.deanon_rate == 0.0
    assert result.address_degrees == {}


def test_assume_unique_links_are_all_correct():
    result = run_simulation(_tiny_config(rounds=20))
    assert result.linked_count == result.correct_link_count
    assert result.false_positive_count == 0
    assert result.links.correct.all()
    # each linked address is pinned to one light node: degree collapses to 0
    assert all(d == 0.0 for d in result.address_degrees.values())


def test_baseline_rate_tracks_population_ratio():
    config = SimConfig(
        full_node_count=20, adversary_count=2, request_fanout=3,
        light_node_count=30, rounds=60, seed=77,
    )
    result = run_simulation(config)
    assert result.total_transactions == 1800
    assert abs(result.deanon_rate - 0.1) < 0.04


def test_collision_aware_two_tip_ledger_counts_false_positives():
    # a 2-full-node network where both lights query both nodes every round:
    # every response shares the round's tip pair, so each adversary log entry
    # matches both attaches -- half the links are false positives.
    config = SimConfig(
        full_node_count=2, adversary_count=1, request_fanout=2,
        light_node_count=2, rounds=6, seed=5, matching="collision_aware",
    )
    result = run_simulation(config)
    assert result.total_transactions == 12
    assert result.linked_count == 24
    assert result.correct_link_count == 12
    assert result.false_positive_count == 12
    assert result.linked_count == result.correct_link_count + result.false_positive_count


def test_links_never_claim_adversaries():
    result = run_simulation(_tiny_config(rounds=15, matching="collision_aware"))
    pop = place_nodes(_tiny_config(rounds=15, matching="collision_aware"))
    adversaries = set(np.flatnonzero(pop.adversary).tolist())
    assert not adversaries & set(result.links.claimed.tolist())


def test_unreachable_light_is_counted_and_skipped(monkeypatch):
    # nodes cluster near the origin; one light sits far outside any radius
    config = SimConfig(
        full_node_count=4, adversary_count=1, request_fanout=2,
        light_node_count=3, rounds=3, seed=31,
        request_radius=2.0, placement="uniform_random",
    )
    # place by hand: lights 0/1 near the nodes, light 2 stranded
    population = dataclasses.replace(
        place_nodes(config),
        full_nodes=np.array([(1.0 + 0.1 * i, 1.0) for i in range(4)]),
        light_nodes=np.array([(1.2, 1.1), (1.4, 0.8), (9.5, 9.5)]),
    )
    monkeypatch.setattr(network, "place_nodes", lambda _: population)
    result = Simulation(config).run()
    assert result.unreachable_light_nodes == 1
    assert result.total_transactions == 6  # two lights, three rounds
    stranded = result.per_light[-1]
    assert stranded["transactions"] == 0


def test_proxy_mode_claims_proxies_and_keeps_lights_anonymous():
    config = SimConfig(
        full_node_count=10, adversary_count=10, request_fanout=3,
        light_node_count=6, rounds=4, seed=3,
        mode="proxy", proxy_count=1,
    )
    result = run_simulation(config)
    pop = place_nodes(config)
    light_ids = set(pop.light_ids.tolist())
    proxy_ids = {len(pop.full_nodes) + i for i in range(len(pop.proxies))}
    assert result.linked_count > 0
    for claimed in result.links.claimed.tolist():
        assert claimed in proxy_ids
        assert claimed not in light_ids
    # all six lights hide behind one proxy: full anonymity per address
    assert result.address_degrees
    for degree in result.address_degrees.values():
        assert degree == pytest.approx(1.0, abs=1e-9)


def test_proxied_degrees_match_per_address_closed_form():
    # the simulator scores degrees in closed form (1.0 with two or more
    # candidates, else 0.0); each must equal the entropy degree of the
    # lights behind the address's claimed proxies
    config = _tiny_config(
        rounds=10, mode="proxy", proxy_count=3, matching="collision_aware",
        adversary_count=5,
    )
    result = run_simulation(config)
    behind = Counter(proxy_assign(place_nodes(config)).tolist())
    claims: dict[str, set[int]] = {}
    for (round_idx, _, _), light, claimed in zip(
        result.links.nonce.tolist(), result.links.light.tolist(),
        result.links.claimed.tolist(),
    ):
        claims.setdefault(round_address(round_idx, light), set()).add(claimed)
    expected, counts = {}, set()
    for address, proxies in claims.items():
        candidates = sum(behind[p] for p in proxies)
        counts.add(candidates)
        expected[address] = (
            entropy_degree(AnonymityProfile.uniform(candidates))
            if candidates >= 2 else 0.0
        )
    assert result.address_degrees == expected
    assert len(counts) > 1


def test_direct_mode_produces_no_links():
    config = SimConfig(
        full_node_count=10, adversary_count=10, request_fanout=3,
        light_node_count=5, rounds=6, seed=8, mode="direct_tip_selection",
    )
    result = run_simulation(config)
    assert result.total_transactions == 30
    assert result.linked_count == 0
    assert result.deanon_rate == 0.0


def test_rerun_is_bit_identical():
    config = _tiny_config(rounds=12, matching="collision_aware")
    a = run_simulation(config)
    b = run_simulation(config)
    assert a.to_flat() == b.to_flat()
    for column in ("nonce", "claimed", "light", "correct"):
        assert np.array_equal(getattr(a.links, column), getattr(b.links, column))
    assert a.per_light == b.per_light
    assert a.address_degrees == b.address_degrees


BLOCK_CASES = {
    "assume-unique": _tiny_config(rounds=13),
    # one light served the same few tips by four adversaries, round after
    # round: a collision-aware join across rounds would add links
    "collision-aware": SimConfig(full_node_count=4, adversary_count=4, light_node_count=1,
                                 rounds=30, bootstrap_tips=10,
                                 matching="collision_aware", seed=2),
    "proxy": _tiny_config(rounds=9, mode="proxy", proxy_count=3,
                          matching="collision_aware"),
    # reach of 1 to 8 full nodes against a fan-out of 5
    "short-reach": SimConfig(full_node_count=30, light_node_count=40, rounds=5,
                             request_radius=2, request_fanout=5, adversary_ratio=0.2,
                             seed=7),
    "direct": _tiny_config(rounds=7, mode="direct_tip_selection"),
}


def _link_rows(links, below=None):
    rows = [[*nonce, claimed, light, correct] for nonce, claimed, light, correct in zip(
        links.nonce.tolist(), links.claimed.tolist(), links.light.tolist(),
        links.correct.tolist())]
    return [row for row in rows if below is None or row[0] < below]


def _scored(result):
    return result.per_light, list(result.address_degrees.items()), _link_rows(result.links)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_results_do_not_depend_on_the_block_size(monkeypatch, name):
    config = BLOCK_CASES[name]
    want = run_simulation(config)
    requests = len(Simulation(config)._requesters.request_light)
    assert config.rounds % 4  # four rounds a block leave a partial last block
    for block in (1, 4 * requests, network._BLOCK):
        monkeypatch.setattr(network, "_BLOCK", block)
        assert _scored(Simulation(config).run()) == _scored(want)
        sim = Simulation(config)
        for round_idx in range(config.rounds):
            sim.run_round(round_idx)
        assert _scored(sim._result()) == _scored(want)
        # stopped two rounds short (inside a block, when blocks are long),
        # scoring matches the rounds run so far
        sim = Simulation(config)
        for round_idx in range(config.rounds - 2):
            sim.run_round(round_idx)
        assert _link_rows(sim._result().links) == _link_rows(want.links, config.rounds - 2)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_reading_the_ledger_every_round_changes_no_result(monkeypatch, name):
    # a read matches the rounds run before it grows them, so no served pair
    # escapes collision-aware matching
    config = BLOCK_CASES[name]
    want = _scored(run_simulation(config))
    sim = Simulation(config)
    requests = len(sim._requesters.request_light)
    issuers = len(sim.population.light_ids if config.mode == "direct_tip_selection"
                  else sim._requesters.light)
    for block in (1, 4 * requests, network._BLOCK):
        monkeypatch.setattr(network, "_BLOCK", block)
        sim = Simulation(config)
        size = len(sim.ledger)
        for round_idx in range(config.rounds):
            sim.run_round(round_idx)
            assert len(sim.ledger) == size + (round_idx + 1) * issuers
        assert _scored(sim._result()) == want


def _nonce_join(sim, block, responder, logged):
    """:func:`_nonce_match` over the rounds of ``block``, whose requests
    ``sim`` drew as ``responder`` and ``logged``: the log of every logged
    request and every attach with the nonce of the request it followed."""
    req = sim._requesters
    rounds = np.arange(block.start, block.stop)
    at, request = np.nonzero(logged)
    log = ResponseLog(
        nonce=np.column_stack((rounds[at], responder[at, request], req.request_light[request])),
        requester=req.request_visible[request], tips=np.zeros((len(at), 2), dtype=np.int64))
    issued = np.repeat(rounds, len(req.light))
    light = np.tile(req.light, len(rounds))
    followed = np.take_along_axis(responder, sim._followed[rounds], 1).ravel()
    attaches = RoundAttaches(
        light=light, identity=np.tile(req.visible, len(rounds)),
        parents=np.zeros((len(light), 2), dtype=np.int64), round=issued)
    return _nonce_match(log, attaches, np.column_stack((issued, followed, light)))


GATHER_CASES = [
    _tiny_config(rounds=13),
    _tiny_config(rounds=9, mode="proxy", proxy_count=3),
    SimConfig(full_node_count=30, light_node_count=40, rounds=5, request_radius=2,
              request_fanout=5, adversary_ratio=0.2, seed=7),
    SimConfig(full_node_count=20, adversary_count=8, light_node_count=30, rounds=11,
              mode="proxy", proxy_count=4, request_radius=4, seed=3),
]


@pytest.mark.parametrize("case", range(len(GATHER_CASES)))
def test_gathered_links_equal_the_nonce_join(monkeypatch, case):
    config = GATHER_CASES[case]
    requests = len(Simulation(config)._requesters.request_light)
    match, draw, drawn, matched = Simulation._match, Simulation._draw_schedule, [], []

    def kept(sim, block):
        responder, logged = draw(sim, block)
        drawn.append((block, responder, logged))
        return responder, logged

    def checked(sim):
        drawn.clear()
        match(sim)
        if drawn:
            ((block, responder, logged),) = drawn
            want = _nonce_join(sim, block, responder, logged)
            assert _link_rows(sim._links[-1]) == _link_rows(want)
            matched.append(len(want))

    monkeypatch.setattr(Simulation, "_draw_schedule", kept)
    monkeypatch.setattr(Simulation, "_match", checked)
    for block in (1, 3 * requests, network._BLOCK):  # one, several and all rounds a block
        monkeypatch.setattr(network, "_BLOCK", block)
        matched.clear()
        Simulation(config).run()
        assert sum(matched) > 0


def test_rounds_run_once_in_order():
    config = _tiny_config(rounds=3)
    sim = Simulation(config)
    sim.run_round(0)
    for refused in (0, 2, -1):  # repeated, skipped, before the first
        with pytest.raises(ValueError, match=f"round {refused} cannot run") as exc:
            sim.run_round(refused)
        assert "\n" not in str(exc.value)
    sim.run_round(1)
    sim.run_round(2)
    with pytest.raises(ValueError, match="3 of 3 have run"):  # past the end
        sim.run_round(3)
    with pytest.raises(ValueError, match="round 0 cannot run"):  # a second run()
        sim.run()
    # the refused calls changed nothing
    assert _scored(sim._result()) == _scored(run_simulation(config))
    assert sim._result().total_transactions == 3 * config.light_node_count
    assert len(sim.ledger) == 1 + 3 * config.light_node_count


def _eager_ledger(sim, rounds):
    """The ledger of ``sim``'s first ``rounds`` rounds, grown by hand the
    way validate's tangle-integrity check grows its own: each round's own
    uniforms, its URTS pairs against the tips it starts from, and one
    attach of the pairs its lights follow."""
    config, req = sim.config, sim._requesters
    ledger = Ledger()
    ledger.attach_round(np.full((config.bootstrap_tips, 2), GENESIS_ID), 0,
                        bootstrap_labels(config.bootstrap_tips))
    for r in range(rounds):
        if config.mode == "direct_tip_selection":
            lights = sim.population.light_ids
            (u,) = uniforms(config.seed, DOMAIN_URTS, range(r, r + 1), 2 * len(lights))
            ledger.attach_round(urts_pairs(ledger.tips, u.reshape(2, -1)), r, lights)
            continue
        picks, n = len(req.bounds), len(req.request_light)
        (u,) = uniforms(config.seed, DOMAIN_URTS, range(r, r + 1), 2 * n)
        served = urts_pairs(ledger.tips, u.reshape(2, -1))
        (u,) = uniforms(config.seed, DOMAIN_REQUEST, range(r, r + 1), picks + len(req.light))
        followed = req.first + (u[picks:] * req.fanout).astype(np.int64)
        ledger.attach_round(served[followed], r, req.light)
    return ledger


LEDGER_CASES = {
    "baseline": _tiny_config(rounds=13),
    "proxy": _tiny_config(rounds=9, mode="proxy", proxy_count=3),
    # some lights reach no full node and never attach
    "stranded": SimConfig(full_node_count=60, adversary_count=12, light_node_count=80,
                          rounds=7, request_radius=1.4, seed=404),
    # the same lights out of reach still select their own tips
    "direct": SimConfig(full_node_count=60, light_node_count=80, rounds=7,
                        request_radius=1.4, mode="direct_tip_selection", seed=404),
    "bootstrap": _tiny_config(rounds=6, bootstrap_tips=4),
    "collision-aware": _tiny_config(rounds=9, matching="collision_aware"),
}


def _same_ledger(got, want):
    assert got.export_lines() == want.export_lines()
    assert got.tips.tolist() == want.tips.tolist()


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_ledger_grown_on_read_equals_the_eager_reference(monkeypatch, name):
    config = LEDGER_CASES[name]
    sim = Simulation(config)
    want = _eager_ledger(sim, config.rounds)
    draws = len(sim.population.light_ids if config.mode == "direct_tip_selection"
                else sim._requesters.request_light)
    read_at = config.rounds // 2
    for block in (1, 3 * draws, network._BLOCK):  # one, a few and all rounds a block
        monkeypatch.setattr(network, "_BLOCK", block)
        sim = Simulation(config)
        sim.run()
        _same_ledger(sim.ledger, want)
        # read after round read_at - 1 (inside a block, when blocks are
        # long), run on, and read again
        sim = Simulation(config)
        for round_idx in range(read_at):
            sim.run_round(round_idx)
        _same_ledger(sim.ledger, _eager_ledger(sim, read_at))
        for round_idx in range(read_at, config.rounds):
            sim.run_round(round_idx)
        _same_ledger(sim.ledger, want)


@pytest.mark.parametrize("settings", [
    {}, dict(mode="proxy", proxy_count=3), dict(mode="direct_tip_selection"),
    dict(matching="collision_aware"),
], ids=["assume-unique", "proxy", "direct", "collision-aware"])
def test_only_collision_aware_rounds_attach_as_they_run(monkeypatch, settings):
    # rounds attach when matched or read: collision-aware matching grows the
    # rounds it matches, at each block's last round or at a read, and no
    # other run attaches a round before a read.  Each attach_round call is
    # one round attached (the bootstrap tips are the one call in __init__)
    config = _tiny_config(rounds=7, **settings)
    attached, attach = [], Ledger.attach_round

    def counted(ledger, parents, round_issued, *args, **kwargs):
        attached.append(round_issued)
        return attach(ledger, parents, round_issued, *args, **kwargs)

    monkeypatch.setattr(Ledger, "attach_round", counted)
    matched = config.matching == "collision_aware"
    run_simulation(config)
    assert attached == [0] + (list(range(7)) if matched else [])
    sim = _blocked(monkeypatch, config, 3)  # blocks of rounds 0-2, 3-5 and 6
    attached.clear()
    for round_idx in range(2):
        sim.run_round(round_idx)
    assert attached == []
    sim.run_round(2)
    assert attached == ([0, 1, 2] if matched else [])  # block 0's match
    attached.clear()
    sim.ledger
    assert attached == ([] if matched else [0, 1, 2])  # one per round run
    attached.clear()
    for round_idx in (3, 4):
        sim.run_round(round_idx)
    assert attached == []
    sim.ledger  # inside block 1: matched, then grown
    assert attached == [3, 4]
    attached.clear()
    for round_idx in (5, 6):
        sim.run_round(round_idx)
    assert attached == ([5, 6] if matched else [])
    attached.clear()
    sim.ledger
    sim.ledger
    assert attached == ([] if matched else [5, 6])


@pytest.fixture
def drawn(monkeypatch):
    """Every ``words`` call a simulation makes, as (domain, rounds, width)."""
    calls = []

    def recorded(root_seed, domain, rounds, width):
        calls.append((domain, rounds, width))
        return words(root_seed, domain, rounds, width)

    monkeypatch.setattr(network, "words", recorded)
    return calls


def _blocked(monkeypatch, config, rounds_a_block):
    """A simulation of ``config`` whose blocks hold ``rounds_a_block`` rounds."""
    sim = Simulation(config)
    monkeypatch.setattr(network, "_BLOCK", rounds_a_block * len(sim._requesters.request_light))
    return sim


@pytest.mark.parametrize("case", range(len(GATHER_CASES)))
def test_a_nonce_matched_run_draws_no_urts_word(monkeypatch, drawn, case):
    config = GATHER_CASES[case]
    assert config.matching == "assume_unique"
    sim = _blocked(monkeypatch, config, 2)
    req = sim._requesters
    sim.run()
    assert {domain for domain, _, _ in drawn} == {DOMAIN_REQUEST}
    assert {width for _, _, width in drawn} == {len(req.bounds) + len(req.light)}
    blocks = [rounds for _, rounds, _ in drawn]
    assert [r for rounds in blocks for r in rounds] == list(range(config.rounds))
    # reading the ledger draws each block's URTS words once, and no request
    # word: the follow choices are kept from the run
    drawn.clear()
    sim.ledger
    assert drawn == [(DOMAIN_URTS, rounds, 2 * len(req.request_light)) for rounds in blocks]
    drawn.clear()
    sim.ledger
    assert drawn == []


def test_a_collision_aware_run_draws_both_streams_as_it_runs(monkeypatch, drawn):
    config = _tiny_config(rounds=7, matching="collision_aware")
    sim = _blocked(monkeypatch, config, 3)
    req = sim._requesters
    blocks = (range(0, 3), range(3, 6), range(6, 7))
    for round_idx in range(config.rounds):
        drawn.clear()
        sim.run_round(round_idx)
        # both streams' words of a block are drawn at its match, after its
        # last round: the request words first, then the URTS words
        block = blocks[round_idx // 3]
        assert drawn == [(DOMAIN_REQUEST, block, len(req.bounds) + len(req.light)),
                         (DOMAIN_URTS, block, 2 * len(req.request_light))
                         ] * (round_idx == block[-1])
    drawn.clear()
    sim.ledger
    assert drawn == []


@pytest.mark.parametrize("read", ["every-round", "mid-block", "never"])
@pytest.mark.parametrize("rounds_a_block", [1, 3, network._BLOCK])
@pytest.mark.parametrize("name", ["assume-unique", "collision-aware", "proxy"])
def test_each_round_draws_its_words_once(monkeypatch, drawn, name, rounds_a_block, read):
    # however the rounds fall into blocks -- at a ledger read or at a full
    # block -- each round's request words, and its URTS words, are drawn
    # exactly once
    config = dataclasses.replace(BLOCK_CASES[name], rounds=8)
    sim = _blocked(monkeypatch, config, rounds_a_block)
    for round_idx in range(config.rounds):
        sim.run_round(round_idx)
        if read == "every-round" or (read == "mid-block" and round_idx == 4):
            sim.ledger
    sim._result()
    sim.ledger
    for domain in (DOMAIN_REQUEST, DOMAIN_URTS):
        drawn_rounds = [r for d, rounds, _ in drawn if d == domain for r in rounds]
        assert drawn_rounds == list(range(config.rounds)), domain
    assert _scored(sim._result()) == _scored(run_simulation(config))


def test_direct_tip_selection_draws_only_urts_words(monkeypatch, drawn):
    config = _tiny_config(rounds=7, mode="direct_tip_selection")
    sim = Simulation(config)
    monkeypatch.setattr(network, "_BLOCK", 3 * config.light_node_count)
    sim.run()
    assert drawn == []
    sim.ledger
    assert drawn == [(DOMAIN_URTS, rounds, 2 * config.light_node_count)
                     for rounds in (range(0, 3), range(3, 6), range(6, 7))]


def test_per_light_table_consistent_with_totals():
    result = run_simulation(_tiny_config(rounds=10))
    assert sum(r["transactions"] for r in result.per_light) == result.total_transactions
    assert (
        sum(r["correct_links"] for r in result.per_light)
        == result.correct_link_count
    )


@pytest.mark.parametrize("settings, stranded", [
    (dict(full_node_count=60, adversary_count=12, light_node_count=80,
          request_radius=1.4, seed=404), True),
    (dict(mode="proxy", proxy_count=3, matching="collision_aware"), False),
    # lights out of reach still select their own tips
    (dict(full_node_count=60, light_node_count=80, request_radius=1.4, seed=404,
          mode="direct_tip_selection"), False),
    (dict(bootstrap_tips=4), False),
], ids=["stranded-light", "proxy", "direct", "bootstrap"])
def test_transaction_counts_agree_with_ledger(settings, stranded):
    # the counts are derived from who issues, so hold them to the ledger,
    # which records each transaction once under addr-<round>-<light>
    sim = Simulation(_tiny_config(rounds=6, **settings))
    result = sim.run()
    assert (
        result.total_transactions
        == len(sim.ledger) - 1 - sim.config.bootstrap_tips
    )
    on_ledger = Counter()
    for line in sim.ledger.export_lines():
        _, _, _, address, round_issued = line.split("\t")
        issued = re.fullmatch(r"addr-(\d+)-(\d+)", address)
        if issued:
            assert issued[1] == round_issued
            on_ledger[int(issued[2])] += 1
    per_light = {row["light_id"]: row["transactions"] for row in result.per_light}
    assert per_light == {
        light: on_ledger[light] for light in sim.population.light_ids.tolist()
    }
    assert sum(on_ledger.values()) == result.total_transactions
    assert result.unreachable_light_nodes == list(per_light.values()).count(0)
    assert (result.unreachable_light_nodes > 0) == stranded


def test_collision_aware_counts_each_transaction_once_per_light():
    # three adversaries serve the only light the same genesis pair: three
    # correct links, but one linked transaction
    result = run_simulation(SimConfig(
        full_node_count=3, adversary_count=3, light_node_count=1, rounds=1,
        matching="collision_aware", seed=1,
    ))
    assert result.correct_link_count == 3
    (row,) = result.per_light
    assert row["transactions"] == 1
    assert row["correct_links"] == 1
    assert row["claimed_links"] == 3


def test_flat_record_shape():
    flat = run_simulation(_tiny_config()).to_flat()
    assert flat["linked_count"] == flat["correct_link_count"] + flat["false_positive_count"]
    assert 0.0 <= flat["deanon_rate"] <= 1.0
    assert isinstance(flat["seed"], int)


SUMMARY_CASES = {
    "proxy-collision": _tiny_config(rounds=8, mode="proxy", proxy_count=3,
                                    matching="collision_aware", bootstrap_tips=4),
    "baseline": _tiny_config(rounds=8),
    "proxy-short-reach": SimConfig(full_node_count=40, adversary_count=10, light_node_count=30,
                                   rounds=6, mode="proxy", proxy_count=6,
                                   request_radius=2.0, seed=77),
    "collision-aware": SimConfig(full_node_count=10, adversary_count=3, light_node_count=12,
                                 rounds=6, matching="collision_aware", seed=5),
    "no-adversaries": _tiny_config(adversary_count=0),
    "direct": _tiny_config(mode="direct_tip_selection"),
}


@pytest.mark.parametrize("name", sorted(SUMMARY_CASES))
def test_flat_summary_equals_the_address_degrees(name):
    # to_flat counts the anonymous addresses without naming them; it must
    # say what the per-address table says
    result = run_simulation(SUMMARY_CASES[name])
    flat, degrees = result.to_flat(), list(result.address_degrees.values())
    assert flat["attacked_addresses"] == len(degrees)
    assert flat["mean_attacked_degree"] == (sum(degrees) / len(degrees) if degrees else None)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def test_spatial_link_rate_matches_reachable_adversary_share():
    # With a finite radius each light queries a uniform subset of the full
    # nodes it reaches and follows one answer uniformly, so under
    # assume_unique its transactions link with probability C_reach/N_reach.
    # The pooled rate is the mean of that over reachable lights.
    config = SimConfig(
        full_node_count=60, adversary_count=12, request_fanout=3,
        light_node_count=80, rounds=100, request_radius=1.4, seed=404,
    )
    pop = place_nodes(config)
    shares = []
    sizes = set()
    for reach in reachable(pop.light_nodes, pop.full_nodes, config.request_radius):
        if reach.any():
            sizes.add(int(reach.sum()))
            shares.append(int(pop.adversary[reach].sum()) / int(reach.sum()))
    # the draw must see queried sets of several sizes, some below the
    # fanout, and lights that reach no full node at all
    assert min(sizes) < config.request_fanout < max(sizes)
    assert 0 < len(shares) < config.light_node_count
    result = run_simulation(config)
    assert result.unreachable_light_nodes == config.light_node_count - len(shares)
    assert result.total_transactions == config.rounds * len(shares)
    expected = sum(shares) / len(shares)
    se = math.sqrt(
        sum(p * (1 - p) for p in shares) * config.rounds
    ) / result.total_transactions
    assert abs(result.deanon_rate - expected) <= 4 * se, (
        result.deanon_rate, expected, se)


def test_bootstrap_tips_attach_to_genesis_before_round_zero():
    sim = Simulation(_tiny_config(bootstrap_tips=3))
    assert sim.ledger.tips.tolist() == [1, 2, 3]
    assert sim.ledger.parents.tolist() == [[0, 0]] * 4
    assert sim.ledger.export_lines()[1:] == [
        "1\t0\t0\tbootstrap-0\t0", "2\t0\t0\tbootstrap-1\t0", "3\t0\t0\tbootstrap-2\t0"]


def test_bootstrap_ledger_lines_are_pinned():
    # bootstrap rows store a label that stands for their address; the
    # ledger's lines keep their pinned digest and read back unchanged
    sim = Simulation(_tiny_config(bootstrap_tips=5))
    sim.run()
    lines = sim.ledger.export_lines()
    assert lines[1:6] == [f"{i + 1}\t0\t0\tbootstrap-{i}\t0" for i in range(5)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "895c83edb8f9708242c5db105bdfcbc87c690fca2e2dd28bca35681c14f99a76")
    rebuilt = ledger_from_lines(lines)
    assert rebuilt.export_lines() == lines
    assert rebuilt.tips.tolist() == sim.ledger.tips.tolist()


@pytest.mark.parametrize("settings", [
    {}, dict(mode="direct_tip_selection"), dict(matching="collision_aware", bootstrap_tips=3),
], ids=["assume-unique", "direct", "collision-aware"])
def test_the_ledger_reserves_the_runs_rows_once(monkeypatch, settings):
    # 1 + 20 * 60 rows outgrow the first capacity: the run's growth
    # reserves its final row count, and no attach copies the rows again
    config = _tiny_config(light_node_count=60, rounds=20, **settings)
    reserved, reserve = [], Ledger.reserve

    def counted(ledger, rows):
        reserved.append(rows)
        return reserve(ledger, rows)

    monkeypatch.setattr(Ledger, "reserve", counted)
    sim = Simulation(config)
    for round_idx in range(config.rounds // 2):
        sim.run_round(round_idx)
    if config.matching == "assume_unique":
        assert reserved == []  # a nonce-matched run grows its ledger on read
    sim.ledger  # a read grows the rounds run so far
    for round_idx in range(config.rounds // 2, config.rounds):
        sim.run_round(round_idx)
    rows = len(sim.ledger)
    assert rows == 1 + config.bootstrap_tips + config.rounds * config.light_node_count
    assert reserved and set(reserved) == {rows}
    assert len(sim._ledger._rows) == rows


def test_a_warm_collision_aware_run_takes_few_page_faults():
    # the perfbench proxy_collision simulation: once the allocator is warm,
    # a run reuses its memory; doubling the ledger as it grows, or copying
    # each proxy's reach once per light, maps fresh pages every run (about
    # 1,500 minor faults)
    resource = pytest.importorskip("resource")
    config = SimConfig(
        mode="proxy", proxy_count=4, matching="collision_aware", light_node_count=3200,
        rounds=10, bootstrap_tips=3840, adversary_count=10, placement="uniform_grid",
        seed=17,
    )
    faults = []
    for _ in range(8):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_simulation(config).to_flat()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert sorted(faults[3:])[2] < 50, faults


def test_tip_count_settles_at_mean_field_fixed_point():
    # L lights attach each round against the round-start tips.  The mean
    # field k = L/x with 1 - exp(-2x) = x puts the tip count near 1.255 L.
    config = SimConfig(full_node_count=100, light_node_count=100, rounds=200, seed=8)
    sim = Simulation(config)
    counts = []
    for round_idx in range(config.rounds):
        sim.run_round(round_idx)
        counts.append(sim.ledger.tip_count)
    mean = sum(counts[100:]) / len(counts[100:])
    assert 1.15 * config.light_node_count <= mean <= 1.35 * config.light_node_count
