"""Tests for the closed-form attack analysis.

Expected values were computed with independent oracles before the
module existed: factorial-based binomials, explicit subset enumeration,
1000-term partial sums, and linear threshold scans.  The small oracles
are kept here so the frozen constants stay auditable.
"""

import math
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipleak.analytic import (
    PMF_MAX_FULL_NODES,
    PMF_MAX_REQUESTS,
    AnonymityProfile,
    _deanon_sum,
    ParameterError,
    cell_adversary_odds,
    continental_takeover_rate,
    deanon_probability,
    entropy_degree,
    hypergeom_pmf,
    mixer_chain_probability,
    mixer_expected_identified,
    required_full_nodes,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _factorial_comb(n: int, k: int) -> int:
    """Binomial coefficient from raw factorials (independent of math.comb)."""
    if k < 0 or k > n:
        return 0
    fact = [1] * (n + 1)
    for i in range(2, n + 1):
        fact[i] = fact[i - 1] * i
    return fact[n] // (fact[k] * fact[n - k])


def _enumerated_pmf(n: int, c: int, m: int) -> dict[int, Fraction]:
    """Exhaustively enumerate M-subsets and count compromised overlap."""
    adversaries = set(range(c))
    counts: dict[int, int] = {}
    total = 0
    for subset in combinations(range(n), m):
        k = len(adversaries & set(subset))
        counts[k] = counts.get(k, 0) + 1
        total += 1
    return {k: Fraction(v, total) for k, v in counts.items()}


# ---------------------------------------------------------------------------
# hypergeometric pmf
# ---------------------------------------------------------------------------

def test_pmf_frozen_baseline_miss_chance():
    # factorial oracle: C(10,0)*C(90,3)/C(100,3) = 117480/161700
    assert _factorial_comb(90, 3) == 117480
    assert _factorial_comb(100, 3) == 161700
    expected = 117480 / 161700
    assert hypergeom_pmf(100, 10, 3, 0) == pytest.approx(expected, abs=1e-15)
    assert hypergeom_pmf(100, 10, 3, 0) == pytest.approx(0.726530612244898, abs=1e-12)


@pytest.mark.parametrize("n,c,m", [(7, 3, 2), (6, 2, 3), (9, 4, 3), (5, 5, 2)])
def test_pmf_matches_exhaustive_enumeration(n, c, m):
    oracle = _enumerated_pmf(n, c, m)
    for k in range(0, m + 1):
        assert hypergeom_pmf(n, c, m, k) == pytest.approx(
            float(oracle.get(k, Fraction(0))), abs=1e-15
        )


def test_pmf_outside_support_is_zero():
    assert hypergeom_pmf(10, 2, 3, 3) == 0.0  # only 2 compromised exist
    assert hypergeom_pmf(10, 9, 3, 0) == 0.0  # can't avoid them all
    assert hypergeom_pmf(10, 2, 3, 7) == 0.0


def test_pmf_large_population_no_overflow():
    # exact integers keep this finite and sane at N = 10**6
    value = hypergeom_pmf(10**6, 10**3, 10, 0)
    assert 0.0 < value < 1.0
    assert value == pytest.approx((1 - 1e-3) ** 10, rel=1e-4)


def test_pmf_bounds_requests():
    # at the bound the exact binomials still come out in well under a second
    n = 2 * PMF_MAX_REQUESTS
    half = PMF_MAX_REQUESTS // 2
    assert 0.0 < hypergeom_pmf(n, PMF_MAX_REQUESTS, PMF_MAX_REQUESTS, half) < 1.0
    for m in (PMF_MAX_REQUESTS + 1, 10 ** 5):
        message = rf"^requests must be <= {PMF_MAX_REQUESTS}, got {m}$"
        with pytest.raises(ParameterError, match=message):
            hypergeom_pmf(10 ** 9, 5 * 10 ** 8, m, m // 2)
    # a k outside the support is refused too: the bound comes first
    with pytest.raises(ParameterError, match="requests"):
        hypergeom_pmf(10 ** 9, 5 * 10 ** 8, 10 ** 5, -1)


def test_pmf_bounds_full_nodes():
    # the binomials grow with the digits of N too: at the bound, with M at
    # its own bound, one value still comes out within a few seconds
    n = PMF_MAX_FULL_NODES
    start = time.perf_counter()
    value = hypergeom_pmf(n, n // 2, PMF_MAX_REQUESTS, PMF_MAX_REQUESTS // 2)
    assert time.perf_counter() - start < 5.0
    # N far above M: the binomial limit, C(M, M/2) / 2**M
    limit = Fraction(math.comb(PMF_MAX_REQUESTS, PMF_MAX_REQUESTS // 2), 2 ** PMF_MAX_REQUESTS)
    assert value == pytest.approx(float(limit), rel=1e-9)
    for n in (PMF_MAX_FULL_NODES + 1, 10 ** 300):
        with pytest.raises(ParameterError, match=rf"^full_nodes must be <= {PMF_MAX_FULL_NODES}, "
                                                 rf"got {n}$"):
            hypergeom_pmf(n, n // 2, 3, 1)
    # outside the support too: the bound comes before the support check
    with pytest.raises(ParameterError, match="full_nodes must be <="):
        hypergeom_pmf(PMF_MAX_FULL_NODES + 1, 1, 3, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 400), st.data())
def test_pmf_sums_to_one(n, data):
    c = data.draw(st.integers(0, n))
    m = data.draw(st.integers(1, min(n, 12)))
    total = math.fsum(hypergeom_pmf(n, c, m, k) for k in range(0, m + 1))
    assert abs(total - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# follow probability
# ---------------------------------------------------------------------------

def test_deanon_enumeration_oracle():
    # average of k/M over all C(7,2) subsets equals 3/7 exactly
    s = Fraction(0)
    for subset in combinations(range(7), 2):
        s += Fraction(len(set(range(3)) & set(subset)), 2)
    assert s / _factorial_comb(7, 2) == Fraction(3, 7)
    assert _deanon_sum(7, 3, 2) == Fraction(3, 7)
    assert deanon_probability(7, 3, 2) == pytest.approx(3 / 7, abs=1e-15)


def test_deanon_baseline_is_population_ratio():
    assert deanon_probability(100, 10, 3) == pytest.approx(0.1, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.data())
def test_deanon_equals_ratio_for_any_m(n, data):
    # the paper's sum is C/N exactly, and the closed form its float
    c = data.draw(st.integers(0, n))
    m = data.draw(st.integers(1, min(n, 10)))
    assert _deanon_sum(n, c, m) == Fraction(c, n)
    assert deanon_probability(n, c, m) == float(_deanon_sum(n, c, m))
    assert abs(deanon_probability(n, c, m) - c / n) < 1e-12


def test_deanon_is_quick_at_any_size():
    # the paper's sum would take min(M, C) big-binomial terms here
    assert deanon_probability(10 ** 9, 5 * 10 ** 8, 10 ** 5) == 0.5
    assert deanon_probability(3 * 10 ** 18, 10 ** 18, 10 ** 17) == float(Fraction(1, 3))
    with pytest.raises(ParameterError):
        deanon_probability(10 ** 9, 5 * 10 ** 8, 10 ** 9 + 1)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
def test_deanon_independent_of_request_count(m):
    assert deanon_probability(100, 10, m) == pytest.approx(0.1, abs=1e-12)


def test_deanon_extremes():
    assert deanon_probability(50, 0, 3) == 0.0
    assert deanon_probability(50, 50, 3) == 1.0


def _conditioned_odds(n: int, c: int, s: int) -> list[Fraction]:
    """Per node, the share of the C-subsets holding one of nodes ``0..s-1``
    that hold the node, by enumerating every subset; all subsets count when
    none holds a member."""
    subsets = list(combinations(range(n), c))
    hitting = [sub for sub in subsets if any(j < s for j in sub)] or subsets
    return [Fraction(sum(j in sub for sub in hitting), len(hitting))
            for j in range(n)]


@pytest.mark.parametrize("n", range(1, 10))
def test_cell_adversary_odds_match_subset_enumeration(n):
    for c in range(n + 1):
        for s in range(n + 1):
            odds = _conditioned_odds(n, c, s)
            q_in, q_out = cell_adversary_odds(n, c, s)
            assert all(q == q_in for q in odds[:s]), (n, c, s)
            assert all(q == q_out for q in odds[s:]), (n, c, s)


def test_cell_adversary_odds_edges():
    assert cell_adversary_odds(7, 0, 3) == (0, 0)          # C = 0: void
    assert cell_adversary_odds(7, 7, 3) == (1, 1)          # C = N
    assert cell_adversary_odds(7, 2, 0) == (Fraction(2, 7),) * 2   # s = 0: void
    assert cell_adversary_odds(7, 2, 7) == (Fraction(2, 7),) * 2   # s = N
    # N - s < C: every subset holds a member, so the condition is certain
    assert cell_adversary_odds(7, 4, 4) == (Fraction(4, 7),) * 2
    # a lone member is always hostile; the other adversary is any of 19
    assert cell_adversary_odds(20, 2, 1) == (1, Fraction(1, 19))


def test_cell_adversary_odds_validation():
    for args in ((0, 0, 0), (5, 6, 1), (5, -1, 1), (5, 1, 6), (5, 1, -1)):
        with pytest.raises(ParameterError):
            cell_adversary_odds(*args)


def test_attack_params_validation():
    # every closed form of the attack model refuses the same populations
    # with the same messages, checking N, then C, then M
    cases = [
        ((0, 0, 1), "full_nodes must be >= 1, got 0"),
        ((0, 5, 0), "full_nodes must be >= 1, got 0"),
        ((10, 11, 3), "compromised must be in [0, full_nodes=10], got 11"),
        ((10, -1, 0), "compromised must be in [0, full_nodes=10], got -1"),
        ((10, 5, 0), "requests must be in [1, full_nodes=10], got 0"),
        ((10, 5, 11), "requests must be in [1, full_nodes=10], got 11"),
    ]
    for closed_form in (deanon_probability, _deanon_sum,
                        lambda n, c, m: hypergeom_pmf(n, c, m, 1)):
        for args, message in cases:
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                closed_form(*args)


# ---------------------------------------------------------------------------
# anonymity degree
# ---------------------------------------------------------------------------

def test_entropy_degree_hand_computed():
    # H = 1.5 bits over [0.5, 0.25, 0.25]; H_max = log2(3)
    profile = AnonymityProfile([0.5, 0.25, 0.25])
    assert entropy_degree(profile) == pytest.approx(0.9463946303571862, abs=1e-12)


def test_entropy_degree_uniform_is_exactly_one():
    for n in (2, 3, 7, 64):
        assert entropy_degree(AnonymityProfile.uniform(n)) == 1.0


def test_entropy_degree_degenerate_is_zero():
    # == cannot see the sign: a pinned profile must give +0.0, not -0.0
    for probs in ([1.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0]):
        d = entropy_degree(AnonymityProfile(probs))
        assert d == 0.0 and math.copysign(1.0, d) == 1.0


def test_entropy_degree_needs_two_candidates():
    with pytest.raises(ParameterError):
        entropy_degree(AnonymityProfile([1.0]))


def test_profile_normalization_tolerance():
    probs = [0.5, 0.25, 0.25 + 5e-10]
    profile = AnonymityProfile(probs)
    assert math.fsum(profile.sender_probs) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ParameterError):
        AnonymityProfile([0.5, 0.25, 0.26])
    with pytest.raises(ParameterError):
        AnonymityProfile([0.7, 0.5, -0.2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=64))
def test_entropy_degree_bounded(weights):
    total = math.fsum(weights)
    profile = AnonymityProfile([w / total for w in weights])
    d = entropy_degree(profile)
    assert 0.0 <= d <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 40), st.floats(0.05, 0.9))
def test_entropy_degree_below_one_when_skewed(n, bulk):
    # one candidate carries `bulk`, the rest split the remainder evenly
    rest = (1.0 - bulk) / (n - 1)
    if abs(bulk - rest) < 1e-6:
        return
    d = entropy_degree(AnonymityProfile([bulk] + [rest] * (n - 1)))
    assert d < 1.0


# ---------------------------------------------------------------------------
# mixer chains
# ---------------------------------------------------------------------------

def test_mixer_chain_probability_values():
    assert mixer_chain_probability(0.1, 1) == 1.0
    assert mixer_chain_probability(0.1, 2) == pytest.approx(0.01, abs=1e-15)
    assert mixer_chain_probability(0.1, 3) == pytest.approx(1e-4, abs=1e-18)
    assert mixer_chain_probability(0.5, 4) == pytest.approx(0.5**6, abs=1e-15)


def test_mixer_expected_against_partial_sums():
    # frozen from 1000-term partial-sum oracles
    for p, raw_expect, norm_expect in [
        (0.1, 1.0203040506070806, 1.0101010101010102),
        (0.5, 1.7777777777777777, 1.3333333333333333),
    ]:
        raw_sum = sum(i * p ** (2 * (i - 1)) for i in range(1, 1001))
        norm_sum = raw_sum / sum(p ** (2 * (i - 1)) for i in range(1, 1001))
        assert mixer_expected_identified(p, "raw") == pytest.approx(raw_sum, abs=1e-9)
        assert mixer_expected_identified(p, "raw") == pytest.approx(raw_expect, abs=1e-12)
        assert mixer_expected_identified(p, "normalized") == pytest.approx(norm_sum, abs=1e-9)
        assert mixer_expected_identified(p, "normalized") == pytest.approx(norm_expect, abs=1e-12)


def test_mixer_normalized_matches_reported_round_value():
    # the headline number: barely more than one participant at p = 0.1
    assert mixer_expected_identified(0.1) == pytest.approx(1.01, abs=1e-2)
    assert mixer_expected_identified(0.1) == pytest.approx(1.0101010101, abs=1e-9)


def test_mixer_zero_link_prob_identifies_exactly_one():
    assert mixer_expected_identified(0.0, "raw") == 1.0
    assert mixer_expected_identified(0.0, "normalized") == 1.0


def test_mixer_divergence_and_validation():
    cases = [
        (mixer_expected_identified, (1.0,),
         "expected chain length diverges unless 0 <= link_prob < 1, got 1.0"),
        (mixer_expected_identified, (0.5, "weird"),
         "mode must be 'raw' or 'normalized', got 'weird'"),
        (mixer_chain_probability, (1.5, 1), "link_prob must be in [0, 1], got 1.5"),
        (mixer_chain_probability, (0.1, 0), "chain_length must be >= 1, got 0"),
        # link_prob is checked before the length
        (mixer_chain_probability, (1.5, 0), "link_prob must be in [0, 1], got 1.5"),
    ]
    for closed_form, args, message in cases:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            closed_form(*args)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 0.99), st.integers(1, 30))
def test_mixer_chain_monotone_in_length(p, x):
    assert mixer_chain_probability(p, x) >= mixer_chain_probability(p, x + 1)


# ---------------------------------------------------------------------------
# network-size thresholds
# ---------------------------------------------------------------------------

def _scan_required(c: int, target: Fraction) -> int:
    n = c
    while Fraction(c, n) >= target:
        n += 1
    return n


@pytest.mark.parametrize(
    "c,target,expected",
    [(10, "1/100", 1001), (16, "1/20", 321), (1, "1", 2)],
)
def test_required_full_nodes_frozen(c, target, expected):
    assert _scan_required(c, Fraction(target)) == expected
    assert required_full_nodes(c, Fraction(target)) == expected


def test_required_full_nodes_accepts_decimal_floats():
    assert required_full_nodes(10, 0.01) == 1001
    assert required_full_nodes(16, 0.05) == 321
    assert required_full_nodes(1, 1.0) == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.fractions(Fraction(1, 500), Fraction(1, 1)))
def test_required_full_nodes_is_minimal(c, target):
    n = required_full_nodes(c, target)
    assert Fraction(c, n) < target
    assert Fraction(c, n - 1) >= target


def test_required_full_nodes_validation():
    with pytest.raises(ParameterError):
        required_full_nodes(10, 0.0)
    with pytest.raises(ParameterError):
        required_full_nodes(0, 0.5)
    with pytest.raises(ParameterError):
        required_full_nodes(10, 1.5)
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="target_rate must be in"):
            required_full_nodes(10, target)


# ---------------------------------------------------------------------------
# regional rates
# ---------------------------------------------------------------------------

def test_continental_rates_2020_snapshot():
    # node counts per region: NA 8, EU 31, SA 1, AF 1, Asia 6
    assert continental_takeover_rate(8, "takeover", 1) == pytest.approx(0.1250, abs=5e-5)
    assert continental_takeover_rate(31, "takeover", 1) == pytest.approx(0.0323, abs=5e-5)
    assert continental_takeover_rate(6, "takeover", 1) == pytest.approx(0.1667, abs=5e-5)
    assert continental_takeover_rate(6, "add", 1) == pytest.approx(0.1429, abs=5e-5)
    assert continental_takeover_rate(6, "collude", 5) == pytest.approx(0.8333, abs=5e-5)


def test_continental_single_node_region_is_total():
    assert continental_takeover_rate(1, "takeover", 1) == 1.0
    assert continental_takeover_rate(1, "collude", 1) == 1.0


def test_continental_validation():
    with pytest.raises(ParameterError):
        continental_takeover_rate(6, "takeover", 7)
    with pytest.raises(ParameterError):
        continental_takeover_rate(0, "takeover", 1)
    with pytest.raises(ParameterError):
        continental_takeover_rate(6, "subvert", 1)
    with pytest.raises(ParameterError):
        continental_takeover_rate(6, "add", -1)
