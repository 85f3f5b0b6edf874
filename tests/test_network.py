"""Attack-engine tests: placement, reachability, matching, and full runs."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from tipleak.analytic import AnonymityProfile, entropy_degree
from tipleak.network import (
    GRID_DIM,
    ConfigError,
    Population,
    ResponseLog,
    RoundAttaches,
    SimConfig,
    Simulation,
    match_responses,
    place_nodes,
    proxy_assign,
    reachable,
    run_simulation,
    sample_positions,
)
from tipleak.rng import round_generator
from tipleak.tangle import round_address


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
    light issues under its own identity."""
    light = np.array([r[0] for r in rows], dtype=np.int64)
    return RoundAttaches(
        round_issued=0,
        light=light,
        identity=light,
        parents=np.array([r[1] for r in rows], dtype=np.int64).reshape(-1, 2),
        followed_nonce=np.array([r[2] for r in rows], dtype=np.int64).reshape(-1, 3),
    )


def test_assume_unique_ignores_coincident_honest_pairs():
    log = _log(((0, 0, 50), 50, (4, 9)))
    entries = _attaches(
        (50, (4, 9), (0, 0, 50)),   # followed the logged response
        (51, (4, 9), (0, 1, 51)),   # same pair from an honest node
    )
    links = match_responses(log, entries, "assume_unique")
    assert len(links) == 1
    assert links[0].address == round_address(0, 50)
    assert links[0].matched_response == (0, 0, 50)
    assert links[0].correct


def test_collision_aware_links_all_pair_matches():
    # both entries carry the logged pair (order ignored): two links, one wrong
    log = _log(((0, 0, 50), 50, (4, 9)))
    entries = _attaches(
        (50, (9, 4), (0, 0, 50)),
        (51, (4, 9), (0, 1, 51)),
    )
    links = match_responses(log, entries, "collision_aware")
    assert len(links) == 2
    assert sum(l.correct for l in links) == 1
    assert {l.claimed_identity for l in links} == {50}


def test_collision_aware_no_match_no_link():
    log = _log(((0, 0, 50), 50, (4, 9)))
    entries = _attaches((50, (4, 8), (0, 9, 50)))
    assert match_responses(log, entries, "collision_aware") == []
    assert match_responses(log, entries, "assume_unique") == []


def test_matching_orders_links_by_attach_then_log_row():
    log = _log(((0, 2, 61), 61, (1, 2)), ((0, 3, 60), 60, (2, 1)), ((0, 4, 62), 62, (7, 8)))
    entries = _attaches((60, (1, 2), (0, 3, 60)), (61, (2, 1), (0, 5, 61)))
    links = match_responses(log, entries, "collision_aware")
    assert [(l.origin_light, l.claimed_identity) for l in links] == [
        (60, 61), (60, 60), (61, 61), (61, 60),
    ]
    (unique,) = match_responses(log, entries, "assume_unique")
    assert (unique.origin_light, unique.claimed_identity) == (60, 60)


def test_matching_empty_inputs():
    assert match_responses(_log(), _attaches(), "assume_unique") == []
    assert match_responses(_log(), _attaches((5, (1, 1), (-1, -1, -1))),
                           "collision_aware") == []


def test_sample_positions_uniform_distinct_variable_sizes():
    # rows of 1, 3 and 6 reachable nodes with fanouts 1, 3 and 2
    sizes = np.array([1, 3, 6])
    counts = np.array([1, 3, 2])
    pair_counts = Counter()
    for round_idx in range(3000):
        picks = sample_positions(round_generator(5, 3, round_idx), sizes, counts)
        first, whole, pair = picks[:1], picks[1:4], picks[4:]
        assert first.tolist() == [0]
        assert sorted(whole.tolist()) == [0, 1, 2]
        assert len(set(pair.tolist())) == 2 and pair.max() < 6
        pair_counts[tuple(sorted(pair.tolist()))] += 1
    # all 15 unordered pairs of 6, each near 3000/15 = 200
    assert len(pair_counts) == 15
    assert all(abs(n - 200) < 4 * math.sqrt(200) for n in pair_counts.values())


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
    assert all(l.correct for l in result.links)
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
    for link in result.links:
        assert link.claimed_identity not in adversaries


def test_unreachable_light_is_counted_and_skipped():
    # nodes cluster near the origin; one light sits far outside any radius
    config = SimConfig(
        full_node_count=4, adversary_count=1, request_fanout=2,
        light_node_count=3, rounds=3, seed=31,
        request_radius=2.0, placement="uniform_random",
    )
    sim = Simulation(config)
    # rewrite positions by hand: lights 0/1 near the nodes, light 2 stranded
    sim.population = dataclasses.replace(
        sim.population,
        full_nodes=np.array([(1.0 + 0.1 * i, 1.0) for i in range(4)]),
        light_nodes=np.array([(1.2, 1.1), (1.4, 0.8), (9.5, 9.5)]),
    )
    sim._requesters = sim._reachability()
    result = sim.run()
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
    for link in result.links:
        assert link.claimed_identity in proxy_ids
        assert link.claimed_identity not in light_ids
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
    for link in result.links:
        claims.setdefault(link.address, set()).add(link.claimed_identity)
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
    assert a.links == b.links
    assert a.per_light == b.per_light
    assert a.address_degrees == b.address_degrees


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
    for tx in sim.ledger.transactions():
        issued = re.fullmatch(r"addr-(\d+)-(\d+)", tx.issuer_address)
        if issued:
            assert int(issued[1]) == tx.round_issued
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
    first = sim.ledger.get(1)
    assert first.issuer_address == "bootstrap-0"
    assert (first.parents, first.round_issued, first.issuer_identity) == ((0, 0), 0, None)
    assert sim.ledger.get(3).issuer_address == "bootstrap-2"


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
