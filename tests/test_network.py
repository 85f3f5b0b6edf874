"""Attack-engine tests: placement, reachability, matching, and full runs."""

import dataclasses
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

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
from tipleak.rng import DOMAIN_FIRST_PICK, DOMAIN_REQUEST, DOMAIN_URTS, uniforms, words
from tipleak.tangle import GENESIS_ID, Ledger, round_address, urts_pairs


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
    # 70000 points take two getrandbits blocks
    for n in (0, 1, 2, 3, 37, 100, 400, 70000):
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


def _on_circles(nodes, radius, gen, per_node=8):
    """Points on the circle of ``radius`` about each node, as rounded, and
    one ulp off it either way in each coordinate."""
    angle = gen.random((len(nodes), per_node)) * (2 * np.pi)
    ring = nodes[:, None] + radius * np.stack((np.cos(angle), np.sin(angle)), axis=-1)
    ring = ring.reshape(-1, 2)
    up, down = np.nextafter(ring, np.inf), np.nextafter(ring, -np.inf)
    return np.concatenate((ring, up, down, np.column_stack((up[:, 0], down[:, 1]))))


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("offset", [0.0, -3e5, 1e9])
def test_reachability_equals_hypot_on_and_beside_circles(scale, offset):
    # Nodes spread over a thousand radii: the product's cancellation error
    # then dwarfs _REACH_BAND, so points on each node's circle and one ulp
    # off it land on hypot's side only if the bound covers that error.
    gen = np.random.default_rng(int(np.log10(scale)) + 100)
    nodes = offset + scale * 1000 * gen.random((40, 2))
    radius = 1.7 * scale
    points = _on_circles(nodes, radius, gen)
    dist = _hypot_distances(points, nodes)
    assert np.array_equal(reachable(points, nodes, radius), dist <= radius)


def test_reachability_equals_hypot_at_the_edges_of_the_float_range():
    # squares that overflow and coordinates that are not finite go to hypot,
    # silently (warnings are errors here), whichever point is the centre
    points = np.array([[0.0, 0.0], [1e308, -1e308], [1e154, 0.0], [np.inf, 0.0], [0.0, np.nan]])
    nodes = np.array([[1e308, 0.0], [1.0, 0.0], [1e154, 1.0], [-np.inf, 2.0]])
    for first in range(len(points)):
        rolled = np.roll(points, -first, axis=0)
        with np.errstate(invalid="ignore"):
            want = _hypot_distances(rolled, nodes) <= 2.0
        assert np.array_equal(reachable(rolled, nodes, 2.0), want), first


def _lattice_circle(radius: int) -> np.ndarray:
    """Every integer ``(a, b)`` with ``a*a + b*b == radius*radius``."""
    a = np.arange(-radius, radius + 1)
    b = np.round(np.sqrt(radius * radius - a * a)).astype(np.int64)
    hit = a * a + b * b == radius * radius
    a, b = a[hit], b[hit]
    return np.unique(np.concatenate((np.column_stack((a, b)), np.column_stack((a, -b)))), axis=0)


@pytest.mark.parametrize("radius", [5, 13, 25, 65, 1105])
def test_reachability_equals_hypot_on_lattices_at_pythagorean_radii(radius):
    # Lattice points exactly at the radius from a node, and their four
    # neighbours, on integer and on decimal (x0.1) lattices up to 1e9 out.
    gen = np.random.default_rng(radius)
    circle = _lattice_circle(radius)
    assert len(circle) >= 12
    steps = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    for offset in (0, 10**9):
        nodes = offset + gen.integers(0, 100 * radius, (12, 2))
        ring = (nodes[:, None, None] + circle[:, None] + steps).reshape(-1, 2)
        for scale in (1, 0.1):
            points, centres = ring * scale, nodes * scale
            dist = _hypot_distances(points, centres)
            assert np.array_equal(reachable(points, centres, radius * scale),
                                  dist <= radius * scale), (offset, scale)


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


def _distinct_cases() -> dict[str, np.ndarray]:
    gen = np.random.default_rng(31)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    cases = {
        "empty": np.array([], dtype=np.int64),
        "single": np.array([7], dtype=np.int64),
        "all-equal": np.full(50, -3, dtype=np.int64),
        "int64-bounds": np.array([hi, lo, hi, 0, lo, hi - 1, lo + 1], dtype=np.int64),
    }
    for size in (2, 10, 1000):
        for span in (3, size, 2 ** 40):  # many repeats to almost none
            cases[f"random-{size}-in-{span}"] = gen.integers(
                -span, span, size, dtype=np.int64)
    return cases


@pytest.mark.parametrize("name, values", _distinct_cases().items())
def test_distinct_equals_numpy_unique(name, values):
    got, want = network._distinct(values), np.unique(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


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
                                 matching="collision_aware", seed=4),
    "proxy": _tiny_config(rounds=9, mode="proxy", proxy_count=3,
                          matching="collision_aware"),
    # reach of 1 to 8 full nodes against a fan-out of 5
    "short-reach": SimConfig(full_node_count=30, light_node_count=40, rounds=5,
                             request_radius=2, request_fanout=5, adversary_ratio=0.2,
                             seed=7),
    "direct": _tiny_config(rounds=7, mode="direct_tip_selection"),
}


def _link_rows(links):
    return [[*nonce, claimed, light, correct] for nonce, claimed, light, correct in zip(
        links.nonce.tolist(), links.claimed.tolist(), links.light.tolist(),
        links.correct.tolist())]


def _scored(result):
    return result.per_light, list(result.address_degrees.items()), _link_rows(result.links)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_results_do_not_depend_on_the_block_size(monkeypatch, name):
    config = BLOCK_CASES[name]
    want = _scored(run_simulation(config))
    requests = len(Simulation(config)._requesters.request_light)
    assert config.rounds % 4  # four rounds a block leave a partial last block
    for block in (1, 4 * requests, network._BLOCK):
        monkeypatch.setattr(network, "_BLOCK", block)
        assert _scored(Simulation(config).run()) == want


def _nonce_join(sim, block, responder, logged):
    """:func:`_nonce_match` over the rounds of ``block``, whose requests
    ask ``responder`` and log where ``logged``: the log of every logged
    request and every attach with the nonce of its light's first pick."""
    req = sim._requesters
    rounds = np.arange(block.start, block.stop)
    at, request = np.nonzero(logged)
    log = ResponseLog(
        nonce=np.column_stack((rounds[at], responder[at, request], req.request_light[request])),
        requester=req.request_visible[request], tips=np.zeros((len(at), 2), dtype=np.int64))
    issued = np.repeat(rounds, len(req.light))
    light = np.tile(req.light, len(rounds))
    followed = responder[:, req.first].ravel()
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
    # an assume_unique match draws only its block's first picks; its links
    # are those of the nonce join of the whole queried sets' log -- the
    # first picks and the later steps a collision-aware twin draws --
    # against the attaches, each under the nonce of its first pick
    config = GATHER_CASES[case]
    lights = len(Simulation(config)._requesters.light)
    match, pick, drawn, matched = Simulation._match, Simulation._first_picks, [], []

    def kept(sim, block):
        first = pick(sim, block)
        drawn.append((block, first))
        return first

    def checked(sim, block):
        drawn.clear()
        match(sim, block)
        ((drew, first),) = drawn  # the match drew exactly its block
        assert drew == block
        responder = sim._queried(block, first)
        want = _nonce_join(sim, block, responder, sim.population.adversary[responder])
        assert _link_rows(sim._links[-1]) == _link_rows(want)
        matched.append(len(want))

    monkeypatch.setattr(Simulation, "_first_picks", kept)
    monkeypatch.setattr(Simulation, "_match", checked)
    for block in (1, 3 * lights, network._BLOCK):  # one, several and all rounds a block
        monkeypatch.setattr(network, "_BLOCK", block)
        matched.clear()
        Simulation(config).run()
        assert sum(matched) > 0


def test_rounds_run_once_in_order(drawn):
    # run() runs every round once; a second run() is refused with one line,
    # draws nothing and changes neither the result nor the ledger
    for settings in ({}, dict(matching="collision_aware"), dict(mode="direct_tip_selection")):
        config = _tiny_config(rounds=3, **settings)
        sim = Simulation(config)
        want = _scored(sim.run())
        ledger = sim.ledger
        rows = None if ledger is None else (ledger.parents.tobytes(), ledger.tips.tobytes())
        drawn.clear()
        with pytest.raises(ValueError, match="3 of 3 rounds.*runs once") as exc:
            sim.run()
        assert "\n" not in str(exc.value)
        assert drawn == []
        assert _scored(sim._result()) == want == _scored(run_simulation(config))
        assert sim._result().total_transactions == 3 * config.light_node_count
        assert sim.ledger is ledger
        if ledger is not None:
            assert (ledger.parents.tobytes(), ledger.tips.tobytes()) == rows
            assert len(ledger) == 1 + 3 * config.light_node_count


def _eager_ledger(config):
    """The ledger of ``config``'s run, grown by hand the way validate's
    tangle-integrity check grows its own: each round's URTS pairs against
    the tips it starts from, and one attach of the pairs of its lights'
    first picks -- under direct tip selection, every light's own pair.  Each stream's
    uniforms come from one call for the whole run."""
    sim = Simulation(config)
    req, rounds = sim._requesters, range(config.rounds)
    direct = config.mode == "direct_tip_selection"
    lights = sim.population.light_ids if direct else req.light
    ledger = Ledger(1 + config.bootstrap_tips + config.rounds * len(lights))
    ledger.attach_round(np.full((config.bootstrap_tips, 2), GENESIS_ID))
    n = len(lights) if direct else len(req.request_light)
    urts = uniforms(config.seed, DOMAIN_URTS, rounds, 2 * n)
    follows = np.arange(n) if direct else req.first  # each light's first pick
    for u in urts:
        ledger.attach_round(urts_pairs(ledger.tips, u.reshape(2, -1))[follows])
    return ledger


def _twin_ledger(config):
    """The ledger of ``config``'s collision-aware twin after its run.  The
    twin draws the first picks ``config``'s run draws, so its lights attach
    on the pairs of the nodes ``config``'s own lights follow."""
    sim = Simulation(dataclasses.replace(config, matching="collision_aware"))
    sim.run()
    return sim.ledger


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
    assert got.parents.tolist() == want.parents.tolist()
    assert got.tips.tolist() == want.tips.tolist()


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_ledger_grown_on_read_equals_the_eager_reference(monkeypatch, name):
    # the ledger a collision-aware run grows at its matches, read after the
    # run, equals the one grown round by round from the run's draws,
    # whatever the block size; for an assume_unique config it is the
    # ledger of its collision-aware twin.  Only collision-aware runs keep
    # a ledger: under direct tip selection the reference stands alone, and
    # test_ledger_bytes_are_pinned pins it
    config = LEDGER_CASES[name]
    want = _eager_ledger(config)
    if config.matching == "assume_unique" or config.mode == "direct_tip_selection":
        sim = Simulation(config)
        sim.run()
        assert sim.ledger is None
    if config.mode == "direct_tip_selection":
        assert Simulation(dataclasses.replace(config, matching="collision_aware")).ledger is None
        return
    twin = dataclasses.replace(config, matching="collision_aware")
    draws = len(Simulation(twin)._requesters.request_light)
    for block in (1, 3 * draws, network._BLOCK):  # one, a few and all rounds a block
        monkeypatch.setattr(network, "_BLOCK", block)
        sim = Simulation(twin)
        bootstrap = config.bootstrap_tips
        assert sim.ledger.parents.tolist() == [[GENESIS_ID] * 2] * (1 + bootstrap)
        assert sim.ledger.tips.tolist() == (list(range(1, 1 + bootstrap)) or [GENESIS_ID])
        sim.run()
        _same_ledger(sim.ledger, want)


@pytest.mark.parametrize("settings", [
    {}, dict(mode="proxy", proxy_count=3), dict(mode="direct_tip_selection"),
    dict(matching="collision_aware"),
], ids=["assume-unique", "proxy", "direct", "collision-aware"])
def test_only_collision_aware_rounds_attach_as_they_run(monkeypatch, settings):
    # collision-aware matching grows the rounds it matches as the run goes,
    # each round once, as one attach_round call (after the one call of the
    # bootstrap tips in __init__); no other run keeps a ledger
    config = _tiny_config(rounds=7, **settings)
    matched = config.matching == "collision_aware"
    attached, attach = [], Ledger.attach_round

    def counted(ledger, parents):
        attached.append(len(parents))
        return attach(ledger, parents)

    grown, match = [], Simulation._match

    def recorded(sim, block):  # the rounds attached by the end of each match
        match(sim, block)
        grown.append(len(attached) - 1 if matched else len(attached))

    monkeypatch.setattr(Ledger, "attach_round", counted)
    monkeypatch.setattr(Simulation, "_match", recorded)
    sim = _blocked(monkeypatch, config, 3)  # blocks of rounds 0-2, 3-5 and 6
    assert attached == ([0] if matched else [])
    sim.run()
    lights = config.light_node_count
    assert attached == ([0] + [lights] * 7 if matched else [])
    assert grown == ([3, 6, 7] if matched else [0, 0, 0])


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
    """A simulation of ``config`` whose blocks hold ``rounds_a_block``
    rounds: a round draws a row a request under collision-aware matching,
    else a row a light."""
    sim = Simulation(config)
    req = sim._requesters
    rows = req.request_light if config.matching == "collision_aware" else req.light
    monkeypatch.setattr(network, "_BLOCK", rounds_a_block * len(rows))
    return sim


@pytest.mark.parametrize("case", range(len(GATHER_CASES)))
def test_a_nonce_matched_run_draws_no_urts_word(monkeypatch, drawn, case):
    # an assume_unique run draws one first-pick word a light a round and
    # nothing else: no later step of a queried set, no URTS word
    config = GATHER_CASES[case]
    assert config.matching == "assume_unique"
    sim = _blocked(monkeypatch, config, 2)
    req = sim._requesters
    sim.run()
    assert drawn == [(DOMAIN_FIRST_PICK, range(start, min(start + 2, config.rounds)),
                      len(req.light)) for start in range(0, config.rounds, 2)]
    assert sim.ledger is None  # no reader of the tips, so no ledger


def test_a_collision_aware_run_draws_every_stream_as_it_runs(monkeypatch, drawn):
    config = _tiny_config(rounds=7, matching="collision_aware")
    sim = _blocked(monkeypatch, config, 3)
    req = sim._requesters
    sim.run()
    # every stream's words of a block are drawn at its match, block after
    # block: the first picks, the later steps of the queried sets, then
    # the URTS words
    assert len(req.bounds) == len(req.request_light) - len(req.light) > 0
    assert drawn == [call for block in (range(0, 3), range(3, 6), range(6, 7)) for call in (
        (DOMAIN_FIRST_PICK, block, len(req.light)),
        (DOMAIN_REQUEST, block, len(req.bounds)),
        (DOMAIN_URTS, block, 2 * len(req.request_light)))]


@pytest.mark.parametrize("settings", [
    dict(request_fanout=1), dict(request_fanout=4, request_radius=0.5, seed=3),
], ids=["fanout-1", "reach-of-one"])
def test_a_collision_aware_run_of_single_requests_draws_no_request_word(
        monkeypatch, drawn, settings):
    # when no light sends a second request the first picks are the whole
    # queried sets, so the run draws no DOMAIN_REQUEST word
    config = _tiny_config(rounds=7, matching="collision_aware", **settings)
    sim = _blocked(monkeypatch, config, 3)
    req = sim._requesters
    assert len(req.light) and (req.fanout == 1).all() and len(req.bounds) == 0
    sim.run()
    assert [d for d, _, _ in drawn] == [DOMAIN_FIRST_PICK, DOMAIN_URTS] * 3
    assert len(sim.ledger) == 1 + 7 * len(req.light)


@pytest.mark.parametrize("read", ["before-run", "never"])
@pytest.mark.parametrize("rounds_a_block", [1, 3, network._BLOCK])
@pytest.mark.parametrize("name", ["assume-unique", "collision-aware", "proxy"])
def test_each_round_draws_its_words_once(monkeypatch, drawn, name, rounds_a_block, read):
    # however the rounds fall into blocks, each round's first picks are
    # drawn exactly once, and so are the later steps of its queried sets
    # and its URTS words under collision-aware matching (no other run
    # draws one); a collision-aware ledger read before run() holds the
    # bootstrap tips alone, draws nothing and changes no result
    config = dataclasses.replace(BLOCK_CASES[name], rounds=8)
    sim = _blocked(monkeypatch, config, rounds_a_block)
    matched = config.matching == "collision_aware"
    if read == "before-run":
        assert (sim.ledger is not None) == matched
        if matched:
            assert len(sim.ledger) == 1 + config.bootstrap_tips
        assert drawn == []
    result = sim.run()
    for domain, want in ((DOMAIN_FIRST_PICK, True), (DOMAIN_REQUEST, matched),
                         (DOMAIN_URTS, matched)):
        drawn_rounds = [r for d, rounds, _ in drawn if d == domain for r in rounds]
        assert drawn_rounds == (list(range(config.rounds)) if want else []), domain
    assert _scored(result) == _scored(run_simulation(config))


@pytest.mark.parametrize("matching", ["assume_unique", "collision_aware"])
def test_direct_tip_selection_draws_no_word(monkeypatch, drawn, matching):
    # no light requests anything, so no response can link, and no one
    # reads the tips the lights pick for themselves
    config = _tiny_config(rounds=7, mode="direct_tip_selection", matching=matching)
    sim = Simulation(config)
    monkeypatch.setattr(network, "_BLOCK", 3 * config.light_node_count)
    assert sim.run().total_transactions == 7 * config.light_node_count
    assert drawn == []
    assert sim.ledger is None


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
def test_transaction_counts_agree_with_ledger(monkeypatch, settings, stranded):
    # the counts are derived from who issues, so hold them to the attaches
    # the collision-aware twin's matcher receives (the rows its ledger
    # grows, each issued by a light in a round); under direct tip selection
    # nothing is matched, and every light attaches every round of the
    # reference ledger
    config = _tiny_config(rounds=6, **settings)
    result = run_simulation(config)
    received = []

    def kept(log, new, matching):
        received.append(new)
        return match_responses(log, new, matching)

    monkeypatch.setattr(network, "match_responses", kept)
    on_ledger = Counter()
    if config.mode == "direct_tip_selection":
        assert _twin_ledger(config) is None
        rows = len(_eager_ledger(config))
        on_ledger.update(result.light_ids.tolist() * config.rounds)
    else:
        rows = len(_twin_ledger(config))
        issued = np.concatenate([np.column_stack((new.round, new.light)) for new in received])
        assert len(np.unique(issued, axis=0)) == len(issued)  # once a light a round
        on_ledger.update(issued[:, 1].tolist())
    assert result.total_transactions == rows - 1 - config.bootstrap_tips
    per_light = {row["light_id"]: row["transactions"] for row in result.per_light}
    assert per_light == {
        light: on_ledger[light] for light in result.light_ids.tolist()
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
    sim = Simulation(_tiny_config(bootstrap_tips=3, matching="collision_aware"))
    assert sim.ledger.tips.tolist() == [1, 2, 3]
    assert sim.ledger.parents.tolist() == [[0, 0]] * 4


# sha256 of each LEDGER_CASES ledger's parents and tips bytes (int64, C
# order): the collision-aware twin's ledger, or the eager reference under
# direct tip selection
LEDGER_DIGESTS = {
    "baseline": ("7ae107dad278279c1964af2fce9bff23dd9f592ee28948345805052d57f67249",
                 "8ac404d085d45d17d8020589b195e172102b1cb15a4c51c26e3ae33512d83102"),
    "bootstrap": ("6cfc6ccb5e2943cf57fa9599104e72b2482a4548ae02971816ff6c662c3e8364",
                  "17acd2bbc38dcfaeec63a97e02082ce8d9c942d24ef0237da9bd3098cb2afadf"),
    "collision-aware": ("004ca187a85afd4ad23bad1db9617e1cd0ac4531f18e0107ffbbcc298d65ea36",
                        "df96d4d51d8e18a6b6512fa35af463ee4f8562f22c789fac5294f76fdb5dd598"),
    "direct": ("966f63f6885f70a166725b2b5e351d7c84d17b12f84837c385c9cdbfe494dd7a",
               "45b8d6427481865572453056969a7cd056c864a2f84be08fa78b87c75d9933d2"),
    "proxy": ("004ca187a85afd4ad23bad1db9617e1cd0ac4531f18e0107ffbbcc298d65ea36",
              "df96d4d51d8e18a6b6512fa35af463ee4f8562f22c789fac5294f76fdb5dd598"),
    "stranded": ("d41c5dde3444ba5735a117f8dc322d9e29d4a1d202ef20ac0a0134bb80828a75",
                 "bb59f8af8d9a7281e8858c058b81585ae02ab7411cbf19422f4e1ea7e5c90084"),
}


@pytest.mark.parametrize("name", sorted(LEDGER_CASES))
def test_ledger_bytes_are_pinned(name):
    config = LEDGER_CASES[name]
    ledger = (_eager_ledger(config) if config.mode == "direct_tip_selection"
              else _twin_ledger(config))
    assert tuple(hashlib.sha256(array.tobytes()).hexdigest()
                 for array in (ledger.parents, ledger.tips)) == LEDGER_DIGESTS[name]


@pytest.mark.parametrize("name", ["baseline", "proxy", "stranded", "bootstrap"])
def test_assume_unique_links_are_correct_links_of_the_collision_aware_twin(name):
    # the draws do not depend on the matching mode, which the ledger tests
    # above lean on: each nonce-matched link (nonce, claimed, light) is a
    # correct link of the collision-aware twin, which adds the logged
    # responses its light did not follow but whose pair it attached on
    config = dataclasses.replace(LEDGER_CASES[name], rounds=40)
    unique = _link_rows(run_simulation(config).links)
    twin = _link_rows(run_simulation(dataclasses.replace(config, matching="collision_aware")).links)
    assert unique and len({tuple(row) for row in unique}) == len(unique)
    assert {tuple(row) for row in unique} <= {tuple(row) for row in twin if row[-1]}


@pytest.mark.parametrize("name", ["baseline", "stranded", "proxy"])
def test_assume_unique_links_do_not_depend_on_the_fanout(name):
    # a light follows its first pick, which no later step of its queried
    # set moves: one seed links the same (nonce, claimed, light) rows at
    # every request_fanout, including one past every light's reach
    config = dataclasses.replace(LEDGER_CASES[name], rounds=40)
    runs = [run_simulation(dataclasses.replace(config, request_fanout=fanout))
            for fanout in (1, 3, 5, 50)]
    want = runs[0]
    assert len(want.links) and (want.unreachable_light_nodes > 0) == (name == "stranded")
    assert Simulation(config)._requesters.count.max() < 50
    for result in runs[1:]:
        for column in ("nonce", "claimed", "light"):
            got, expected = getattr(result.links, column), getattr(want.links, column)
            assert (got.dtype, got.shape, got.tobytes()) == (
                expected.dtype, expected.shape, expected.tobytes())


@pytest.mark.parametrize("settings", [
    {}, dict(mode="direct_tip_selection", matching="collision_aware"),
    dict(matching="collision_aware", bootstrap_tips=3),
], ids=["assume-unique", "direct", "collision-aware"])
def test_the_ledger_reserves_the_runs_rows_once(monkeypatch, settings):
    # a collision-aware run builds its ledger once, sized to the rows the
    # run ends with, so no attach copies them; no other run builds one
    config = _tiny_config(light_node_count=60, rounds=20, **settings)
    built, init = [], Ledger.__init__

    def counted(ledger, capacity):
        built.append(capacity)
        init(ledger, capacity)

    monkeypatch.setattr(Ledger, "__init__", counted)
    sim = _blocked(monkeypatch, config, 3)  # collision-aware: seven growth calls
    rows = sim.ledger and sim.ledger._parents
    sim.run()
    if config.matching == "assume_unique" or config.mode == "direct_tip_selection":
        assert built == [] and sim.ledger is None
        return
    assert len(sim.ledger) == 1 + config.bootstrap_tips + config.rounds * config.light_node_count
    assert built == [len(sim.ledger)]
    assert sim.ledger._parents is rows


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
    counts = [after for _, _, after in _tip_count_steps(config)]
    mean = sum(counts[100:]) / len(counts[100:])
    assert 1.15 * config.light_node_count <= mean <= 1.35 * config.light_node_count


def _round_tips(ledger, config):
    """The tip count at the start of each round of a finished run and
    after its last, read from its ledger.  Every light attaches every round
    (no radius), so round ``r`` holds the ids from ``1 + bootstrap_tips +
    r * L`` on."""
    size, lights = len(ledger), config.light_node_count
    start = 1 + config.bootstrap_tips
    assert size == start + config.rounds * lights
    # a row stops being a tip at its first approver's id
    approver = np.full(size, size)
    np.minimum.at(approver, ledger.parents[1:].ravel(), np.repeat(np.arange(1, size), 2))
    ends = start + lights * np.arange(config.rounds + 1)
    tips = ends - np.searchsorted(np.sort(approver), ends)
    assert tips[-1] == ledger.tip_count
    return tips


def _tip_count_steps(config):
    """``(k, L, k')`` of each round of ``config``'s run: its round-start
    tips, the transactions it attached and its tips after, read from the
    collision-aware twin's ledger (the eager reference under direct tip
    selection)."""
    ledger = (_eager_ledger(config) if config.mode == "direct_tip_selection"
              else _twin_ledger(config))
    tips = _round_tips(ledger, config)
    return zip(tips[:-1].tolist(), [config.light_node_count] * config.rounds,
               tips[1:].tolist())


def _tip_count_law(tips, attaching):
    """Mean and variance of the tip count after one round, given ``tips``
    (k >= 2) tips at its start and ``attaching`` (L >= 0) transactions
    that each approve an independent uniform pair of distinct ones.

    Each new transaction is a tip, and an old tip stays one when no pair
    holds it: one pair misses a given tip with p1 = (k-2)/k and two given
    tips with p2 = (k-2)(k-3)/(k(k-1)).  So E[k'] = L + k p1^L and
    Var[k'] = k (p1^L - p1^2L) + k (k-1) (p2^L - p1^2L).
    """
    k = tips
    p1 = (k - 2) / k
    p2 = (k - 2) * (k - 3) / (k * (k - 1))
    kept = p1 ** attaching  # p1^L
    return (attaching + k * kept,
            k * (kept - kept * kept) + k * (k - 1) * (p2 ** attaching - kept * kept))


@pytest.mark.parametrize("tips,attaching", [(2, 1), (3, 2), (4, 0), (4, 2), (5, 3), (6, 3)])
def test_tip_count_law_matches_enumeration(tips, attaching):
    # every way the attaching transactions can pick their distinct pairs
    outcomes = [attaching + tips - len(set().union(*chosen))
                for chosen in product(combinations(range(tips), 2), repeat=attaching)]
    mean = Fraction(sum(outcomes), len(outcomes))
    var = Fraction(sum(o * o for o in outcomes), len(outcomes)) - mean * mean
    assert _tip_count_law(tips, attaching) == pytest.approx((mean, var), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("configs", [
    [SimConfig(full_node_count=100, light_node_count=100, rounds=200, seed=seed)
     for seed in range(1, 11)],
    [SimConfig(full_node_count=50, light_node_count=7, rounds=300, bootstrap_tips=40,
               seed=seed) for seed in range(1, 11)],
    [SimConfig(full_node_count=30, light_node_count=20, rounds=200,
               mode="direct_tip_selection", seed=seed) for seed in range(100, 300)],
], ids=["baseline", "bootstrapped", "direct"])
def test_tip_count_steps_follow_the_exact_one_round_law(configs):
    # Given k round-start tips, the round's tip count has the exact mean
    # and variance of _tip_count_law; the pooled deviation over
    # every step from k >= 4 tips, in units of its standard deviation,
    # read 0.27, -0.23 and 0.92 here.
    deviation = variance = 0.0
    for config in configs:
        for tips, attaching, after in _tip_count_steps(config):
            if tips >= 4:
                mean, var = _tip_count_law(tips, attaching)
                deviation += after - mean
                variance += var
    assert abs(deviation / math.sqrt(variance)) <= 4


def _false_positive_law(tips, logged, attaching):
    """Mean and variance, per round, of a collision-aware run's false
    positives given each round's start tip count ``tips``.  ``logged`` and
    ``attaching`` count each round's logged responses and attaches by
    identity, one row a round.  A response logged for identity v carries a
    uniform pair of distinct round-start tips, and an attach by another
    identity w carries another, drawn independently; so each such
    (response, attach) pair matches with probability 1/C(k, 2), or 1 when
    the one tip is paired with itself."""
    pairs = logged.sum(axis=1) * attaching.sum(axis=1) - (logged * attaching).sum(axis=1)
    match = 2 / np.maximum(tips * (tips - 1), 2)  # 1/C(k, 2), and 1 at k = 1
    return pairs * match, pairs * match * (1 - match)


def test_collision_aware_false_positives_follow_the_exact_law(monkeypatch):
    # the run's false positives against _false_positive_law, pooled over
    # 20 seeds with k read from each run's own ledger: 7,969 against
    # 7,903.4 expected here, z = 1.15 with the per-pair Bernoulli variance
    received = []

    def kept(log, new, matching):
        received.append((log, new))
        return match_responses(log, new, matching)

    monkeypatch.setattr(network, "match_responses", kept)
    observed = expected = variance = 0.0
    for seed in range(1, 21):
        config = SimConfig(full_node_count=30, adversary_ratio=0.2, light_node_count=20,
                           rounds=200, matching="collision_aware", seed=seed)
        received.clear()
        sim = Simulation(config)
        observed += sim.run().false_positive_count
        span = config.full_node_count + config.light_node_count  # identity ids

        def by_identity(rounds, identity):
            return np.bincount(rounds * span + identity,
                               minlength=config.rounds * span).reshape(config.rounds, span)

        logged = by_identity(np.concatenate([log.nonce[:, 0] for log, _ in received]),
                             np.concatenate([log.requester for log, _ in received]))
        attaching = by_identity(np.concatenate([new.round for _, new in received]),
                                np.concatenate([new.identity for _, new in received]))
        mean, var = _false_positive_law(_round_tips(sim.ledger, config)[:-1].astype(float),
                                        logged, attaching)
        expected += mean.sum()
        variance += var.sum()
    assert abs(observed - expected) <= 4 * math.sqrt(variance), (observed, expected)
