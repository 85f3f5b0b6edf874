"""DAG ledger and tip-selection tests.

Structural invariants are checked against from-scratch recomputations
(tip set, topological order) rather than the ledger's own bookkeeping,
and the selection distributions against seeded Monte Carlo with known
closed forms.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tipleak.rng import uniforms
from tipleak.tangle import GENESIS_ID, AttachError, Ledger, urts_pairs


def _recomputed_tips(ledger: Ledger) -> set[int]:
    """Tip set derived only from the raw parent rows."""
    approved = set()
    for txid, parents in enumerate(ledger.parents.tolist()):
        if txid == GENESIS_ID:
            continue
        approved.update(parents)
    return set(range(len(ledger))) - approved


def _kahn_topological(ledger: Ledger) -> list[int]:
    """Independent topological sort; raises KeyError on a broken DAG."""
    indeg: dict[int, int] = {txid: 0 for txid in range(len(ledger))}
    children: dict[int, list[int]] = {txid: [] for txid in indeg}
    for txid, parents in enumerate(ledger.parents.tolist()):
        if txid == GENESIS_ID:
            continue
        for p in set(parents):
            indeg[txid] += 1
            children[p].append(txid)
    order, frontier = [], [t for t, d in indeg.items() if d == 0]
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                frontier.append(child)
    return order


def _grow_random(seed: int, n: int, room: int = 0) -> Ledger:
    """``n`` attaches after genesis, in rounds of one to four URTS pairs
    drawn against the tips each round starts from, in a ledger with
    ``room`` rows to spare."""
    gen = np.random.default_rng(seed)
    ledger = Ledger(n + 1 + room)
    while len(ledger) <= n:
        size = min(int(gen.integers(1, 5)), n + 1 - len(ledger))
        ledger.attach_round(urts_pairs(ledger.tips, gen.random((2, size))))
    return ledger


def _attach(ledger: Ledger, *parents: tuple[int, int]) -> list[int]:
    """Attach one batch of the given parent pairs."""
    return ledger.attach_round(np.array(parents, dtype=np.int64).reshape(-1, 2)).tolist()


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_fresh_ledger_is_genesis_only():
    for capacity in (1, 1000):
        ledger = Ledger(capacity)
        assert len(ledger) == 1
        assert ledger.tips.tolist() == [GENESIS_ID]
        assert ledger.parents.tolist() == [[GENESIS_ID, GENESIS_ID]]
    with pytest.raises(AttachError, match="holds genesis"):
        Ledger(0)


def test_attach_moves_tip_set():
    ledger = Ledger(4)
    (a,) = _attach(ledger, (GENESIS_ID, GENESIS_ID))
    assert ledger.tips.tolist() == [a]
    (b,) = _attach(ledger, (GENESIS_ID, GENESIS_ID))
    assert ledger.tips.tolist() == [a, b]
    (c,) = _attach(ledger, (a, b))
    assert ledger.tips.tolist() == [c]


def test_attach_rejects_unknown_parents_and_overflow():
    ledger = Ledger(4)
    for parents in ((5, GENESIS_ID), (GENESIS_ID, 1), (-1, GENESIS_ID)):
        with pytest.raises(AttachError, match="unknown parent"):
            _attach(ledger, (GENESIS_ID, GENESIS_ID), parents)
    assert len(ledger) == 1  # nothing was appended
    _attach(ledger, (GENESIS_ID, GENESIS_ID), (GENESIS_ID, GENESIS_ID))
    # the capacity is the ledger's one size: a batch past it is refused
    # whole, and one that fills it lands
    with pytest.raises(AttachError, match="a batch of 2 rows overflows the ledger: 3 of 4"):
        _attach(ledger, (1, 2), (1, 2))
    assert len(ledger) == 3 and ledger.tips.tolist() == [1, 2]
    rows = ledger._parents
    assert _attach(ledger, (1, 2)) == [3]
    assert ledger._parents is rows and len(rows) == len(ledger) == 4
    assert ledger.attach_round(np.empty((0, 2), dtype=np.int64)).tolist() == []
    with pytest.raises(AttachError, match="overflows"):
        _attach(ledger, (3, 3))
    assert ledger.tips.tolist() == [3]


def test_parents_and_tips_are_read_only_snapshots():
    ledger = _grow_random(seed=5, n=20, room=20)
    parents, tips = ledger.parents, ledger.tips
    for array in (parents, tips):
        with pytest.raises(ValueError):
            array[0] = 1
    want = (parents.tolist(), tips.tolist())
    # later attaches write past the snapshot's rows and replace the tips
    _attach(ledger, *[(tip, tip) for tip in tips.tolist()])
    assert (parents.tolist(), tips.tolist()) == want
    assert ledger.parents[:len(parents)].tolist() == want[0]


def test_tip_set_matches_scratch_recount_after_random_growth():
    ledger = _grow_random(seed=7, n=500)
    assert set(ledger.tips) == _recomputed_tips(ledger)


def test_parents_strictly_earlier_and_dag_acyclic():
    ledger = _grow_random(seed=11, n=300)
    for txid, parents in enumerate(ledger.parents.tolist()):
        if txid == GENESIS_ID:
            continue
        assert max(parents) < txid
    assert len(_kahn_topological(ledger)) == len(ledger)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 80))
def test_growth_invariants_property(seed, n):
    ledger = _grow_random(seed, n)
    assert set(ledger.tips) == _recomputed_tips(ledger)
    assert len(ledger) == n + 1


def test_attach_round_equals_the_same_attaches_one_by_one():
    # one batch against the same rows attached in smaller batches, cut
    # before each row in ``cuts``: empty, one-row and longer batches
    for cuts in [(1,), (1, 2), (2,), (0, 1, 2, 3)]:
        _assert_split_attaches_match(cuts)


def _assert_split_attaches_match(cuts):
    batch, split = Ledger(10), Ledger(10)
    for ledger in (batch, split):
        ledger.attach_round(np.zeros((4, 2), dtype=np.int64))
    parents = np.array([[1, 2], [2, 3], [1, 1]])
    ids = batch.attach_round(parents)
    bounds = (0, *cuts, len(parents))
    split_ids = np.concatenate([split.attach_round(parents[a:b])
                                for a, b in zip(bounds, bounds[1:])])
    assert ids.tolist() == split_ids.tolist() == [5, 6, 7]
    assert batch.parents.tolist() == split.parents.tolist()
    assert batch.parents.tolist() == [[0, 0]] * 5 + [[1, 2], [2, 3], [1, 1]]
    assert batch.tips.tolist() == split.tips.tolist() == [4, 5, 6, 7]
    # tip 1 is approved by rows 5 and 7 alone
    assert np.flatnonzero((batch.parents == 1).any(axis=1)).tolist() == [5, 7]
    with pytest.raises(AttachError):  # checked before the good first row lands
        batch.attach_round(np.array([[4, 5], [0, 8]]))
    assert len(batch) == 8
    assert batch.tips.tolist() == [4, 5, 6, 7]


def test_attach_round_tips_equal_the_isin_reference():
    gen = np.random.default_rng(14)
    ledger, tips = Ledger(1 + 300 * 7), np.array([GENESIS_ID])
    for _ in range(300):
        n = int(gen.integers(0, 8))
        # any earlier row, tip or not, and duplicates within and across rows
        parents = gen.integers(0, len(ledger), (n, 2))
        if n and gen.random() < 0.3:
            parents[gen.integers(0, n)] = parents[0, ::-1]
        ids = ledger.attach_round(parents)
        tips = np.concatenate((tips[~np.isin(tips, parents)], ids))
        assert ledger.tips.dtype == tips.dtype
        assert ledger.tips.tolist() == tips.tolist()
    assert set(ledger.tips.tolist()) == _recomputed_tips(ledger)


def test_attach_round_approves_tips_past_a_parent_older_than_every_tip():
    # the tip mask starts at the least parent or the oldest tip: a batch
    # naming genesis, older than the bootstrap tips, still drops the tips
    # it names, and one naming no tip drops none
    ledger = Ledger(1 + 4 + 3)
    _attach(ledger, *[(GENESIS_ID, GENESIS_ID)] * 4)
    assert ledger.tips.tolist() == [1, 2, 3, 4]
    assert _attach(ledger, (GENESIS_ID, 2), (4, GENESIS_ID)) == [5, 6]
    assert ledger.tips.tolist() == [1, 3, 5, 6]
    assert _attach(ledger, (GENESIS_ID, 2)) == [7]
    assert ledger.tips.tolist() == [1, 3, 5, 6, 7]
    assert set(ledger.tips.tolist()) == _recomputed_tips(ledger)


# ---------------------------------------------------------------------------
# uniform selection
# ---------------------------------------------------------------------------

def _ten_tip_ledger() -> Ledger:
    ledger = Ledger(11)
    _attach(ledger, *[(GENESIS_ID, GENESIS_ID)] * 10)
    assert ledger.tip_count == 10
    return ledger


def _assert_uniform_pairs(pairs):
    # 45 unordered pairs from 10 tips; each within 4 standard deviations
    # of its expectation, plus a chi-square check at the 1% level.
    draws = len(pairs)
    counts = Counter(frozenset(pair) for pair in pairs)
    assert len(counts) == 45
    p_pair = 1 / 45
    sd = math.sqrt(draws * p_pair * (1 - p_pair))
    for pair, seen in counts.items():
        assert abs(seen - draws * p_pair) < 4 * sd, f"pair {pair} at {seen}"
    chi2 = sum((c - draws * p_pair) ** 2 / (draws * p_pair) for c in counts.values())
    assert chi2 < stats.chi2.ppf(0.99, 44)


def test_batch_urts_pairs_uniform_and_distinct():
    tips = _ten_tip_ledger().tips
    pairs = urts_pairs(tips, uniforms(2024, 1, range(1), 60_000).reshape(2, -1))
    assert pairs.shape == (30_000, 2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    _assert_uniform_pairs(pairs.tolist())
    lone = urts_pairs(Ledger(1).tips, uniforms(2024, 1, range(1, 2), 6).reshape(2, -1))
    assert lone.tolist() == [[GENESIS_ID, GENESIS_ID]] * 3
    with pytest.raises(AttachError):
        urts_pairs(np.empty(0, dtype=np.int64), np.zeros((2, 1)))


def test_batch_urts_pairs_maps_the_ends_of_the_unit_interval():
    # the smallest uniform picks the first tip and then the first other
    # one; the largest picks the last tip and then the last other one
    tips = np.array([3, 5, 8, 13])
    ends = np.array([[0.0, 1 - 2.0**-53], [0.0, 1 - 2.0**-53]])
    assert urts_pairs(tips, ends).tolist() == [[3, 5], [13, 8]]


def test_urts_deterministic_under_seed():
    first = [urts_pairs(_ten_tip_ledger().tips, uniforms(99, 5, range(i, i + 1), 8).reshape(2, -1))
             for i in range(50)]
    second = [urts_pairs(_ten_tip_ledger().tips, uniforms(99, 5, range(i, i + 1), 8).reshape(2, -1))
              for i in range(50)]
    assert [pairs.tolist() for pairs in first] == [pairs.tolist() for pairs in second]
    assert len({pairs.tobytes() for pairs in first}) > 1  # the seed's rounds differ
