"""DAG ledger and tip-selection tests.

Structural invariants are checked against from-scratch recomputations
(tip set, topological order) rather than the ledger's own bookkeeping,
and the selection distributions against seeded Monte Carlo with known
closed forms.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tipleak.rng import substream, uniforms
from tipleak.tangle import (
    GENESIS_ID,
    NO_ISSUER,
    AttachError,
    Ledger,
    Transaction,
    bootstrap_labels,
    ledger_from_lines,
    round_address,
    urts_pair,
    urts_pairs,
)


def _recomputed_tips(ledger: Ledger) -> set[int]:
    """Tip set derived only from the raw transaction list."""
    approved = set()
    for tx in ledger.transactions():
        if tx.txid == GENESIS_ID:
            continue
        approved.update(tx.parents)
    return {tx.txid for tx in ledger.transactions() if tx.txid not in approved}


def _kahn_topological(ledger: Ledger) -> list[int]:
    """Independent topological sort; raises KeyError on a broken DAG."""
    indeg: dict[int, int] = {tx.txid: 0 for tx in ledger.transactions()}
    children: dict[int, list[int]] = {txid: [] for txid in indeg}
    for tx in ledger.transactions():
        if tx.txid == GENESIS_ID:
            continue
        for p in set(tx.parents):
            indeg[tx.txid] += 1
            children[p].append(tx.txid)
    order, frontier = [], [t for t, d in indeg.items() if d == 0]
    while frontier:
        node = frontier.pop()
        order.append(node)
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                frontier.append(child)
    return order


def _grow_random(seed: int, n: int) -> Ledger:
    ledger = Ledger()
    rng = random.Random(seed)
    for i in range(n):
        parents = urts_pair(ledger.tips, rng)
        ledger.attach(parents, f"addr-{i}")
    return ledger


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_fresh_ledger_is_genesis_only():
    ledger = Ledger()
    assert len(ledger) == 1
    assert ledger.tips.tolist() == [GENESIS_ID]
    genesis = ledger.get(GENESIS_ID)
    assert genesis.parents == (GENESIS_ID, GENESIS_ID)


def test_attach_moves_tip_set():
    ledger = Ledger()
    a = ledger.attach((GENESIS_ID, GENESIS_ID), "addr-a")
    assert ledger.tips.tolist() == [a]
    b = ledger.attach((GENESIS_ID, GENESIS_ID), "addr-b")
    assert ledger.tips.tolist() == [a, b]
    c = ledger.attach((a, b), "addr-c")
    assert ledger.tips.tolist() == [c]


def test_attach_rejects_unknown_parents_and_bad_addresses():
    ledger = Ledger()
    with pytest.raises(AttachError):
        ledger.attach((5, GENESIS_ID), "addr-x")
    with pytest.raises(AttachError):
        ledger.attach((GENESIS_ID, GENESIS_ID), "bad address")
    with pytest.raises(AttachError):
        ledger.attach((GENESIS_ID, GENESIS_ID), "")
    assert len(ledger) == 1  # nothing was appended


@pytest.mark.parametrize("addresses, bad", [
    (["ok-0", "ok-1", "tab\there", "", "new\nline"], "tab\there"),
    (["ok-0", "", "two words"], ""),
    (["ok-0", "ok-1", "ok-2", "trailing "], "trailing "),
])
def test_attach_round_names_the_first_bad_address(addresses, bad):
    ledger = Ledger()
    n = len(addresses)
    with pytest.raises(AttachError) as info:
        ledger.attach_round(np.zeros((n, 2), dtype=np.int64), 0, np.full(n, 1),
                            addresses=addresses)
    assert str(info.value) == f"bad issuer address {bad!r}"
    assert len(ledger) == 1


def test_tip_set_matches_scratch_recount_after_random_growth():
    ledger = _grow_random(seed=7, n=500)
    assert set(ledger.tips) == _recomputed_tips(ledger)


def test_parents_strictly_earlier_and_dag_acyclic():
    ledger = _grow_random(seed=11, n=300)
    for tx in ledger.transactions():
        if tx.txid == GENESIS_ID:
            continue
        assert max(tx.parents) < tx.txid
    assert len(_kahn_topological(ledger)) == len(ledger)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 80))
def test_growth_invariants_property(seed, n):
    ledger = _grow_random(seed, n)
    assert set(ledger.tips) == _recomputed_tips(ledger)
    assert len(ledger) == n + 1


def test_attach_round_equals_the_same_attaches_one_by_one():
    batch, single = Ledger(), Ledger()
    for ledger in (batch, single):
        for i in range(4):
            ledger.attach((GENESIS_ID, GENESIS_ID), f"bootstrap-{i}")
    parents = np.array([[1, 2], [2, 3], [1, 1]])
    issuers, labels = [7, 8, 9], [17, 18, 19]
    ids = batch.attach_round(parents, 3, np.array(issuers), np.array(labels))
    for pair, issuer, label in zip(parents.tolist(), issuers, labels):
        single.attach(tuple(pair), round_address(3, label), 3, issuer)
    assert ids.tolist() == [5, 6, 7]
    assert list(batch.transactions()) == list(single.transactions())
    assert batch.tips.tolist() == single.tips.tolist() == [4, 5, 6, 7]
    # tip 1 is approved by rows 5 and 7 alone
    assert [tx.txid for tx in batch.transactions() if 1 in tx.parents] == [5, 7]
    with pytest.raises(AttachError):
        batch.attach_round(np.array([[0, 8]]), 4, np.array([1]), np.array([1]))
    with pytest.raises(AttachError):  # checked before the good first row lands
        batch.attach_round(np.array([[4, 5], [6, 7]]), 4, np.array([1, 2]),
                           addresses=["addr-ok", "bad address"])
    assert len(batch) == 8
    assert batch.tips.tolist() == [4, 5, 6, 7]


def test_bootstrap_labels_stand_for_bootstrap_addresses():
    labelled, named = Ledger(), Ledger()
    labelled.attach_round(np.zeros((3, 2), dtype=np.int64), 0, np.full(3, NO_ISSUER),
                          bootstrap_labels(3))
    named.attach_round(np.zeros((3, 2), dtype=np.int64), 0, np.full(3, NO_ISSUER),
                       addresses=["bootstrap-0", "bootstrap-1", "bootstrap-2"])
    assert list(labelled.transactions()) == list(named.transactions())
    assert labelled.export_lines() == named.export_lines()


def test_reserve_keeps_the_rows_and_sizes_the_array_once():
    ledger = _grow_random(3, 40)
    lines, tips = ledger.export_lines(), ledger.tips.tolist()
    ledger.reserve(5000)
    rows = ledger._rows
    assert len(rows) == 5000
    assert ledger.export_lines() == lines and ledger.tips.tolist() == tips
    ledger.reserve(100)  # never shrinks
    ledger.attach_round(np.ones((4950, 2), dtype=np.int64), 1, np.zeros(4950, dtype=np.int64),
                        np.arange(4950))
    assert ledger._rows is rows and len(ledger) == 4991


def test_attach_round_tips_equal_the_isin_reference():
    gen = np.random.default_rng(14)
    ledger, tips = Ledger(), np.array([GENESIS_ID])
    for r in range(300):
        n = int(gen.integers(0, 8))
        # any earlier row, tip or not, and duplicates within and across rows
        parents = gen.integers(0, len(ledger), (n, 2))
        if n and gen.random() < 0.3:
            parents[gen.integers(0, n)] = parents[0, ::-1]
        ids = ledger.attach_round(parents, r, np.full(n, 0), np.arange(n))
        tips = np.concatenate((tips[~np.isin(tips, parents)], ids))
        assert ledger.tips.dtype == tips.dtype
        assert ledger.tips.tolist() == tips.tolist()
    assert set(ledger.tips.tolist()) == _recomputed_tips(ledger)


# ---------------------------------------------------------------------------
# uniform selection
# ---------------------------------------------------------------------------

def test_urts_single_tip_duplicates():
    ledger = Ledger()
    assert urts_pair(ledger.tips, random.Random(1)) == (GENESIS_ID, GENESIS_ID)
    a = ledger.attach((GENESIS_ID, GENESIS_ID), "addr-a")
    assert urts_pair(ledger.tips, random.Random(2)) == (a, a)


def test_urts_empty_tip_list_rejected():
    with pytest.raises(AttachError):
        urts_pair([], random.Random(1))


def test_urts_pair_always_distinct_with_two_or_more_tips():
    rng = random.Random(3)
    tips = list(range(40, 49))
    for _ in range(2000):
        a, b = urts_pair(tips, rng)
        assert a != b
        assert a in tips and b in tips


def _ten_tip_ledger() -> Ledger:
    ledger = Ledger()
    for i in range(10):
        ledger.attach((GENESIS_ID, GENESIS_ID), f"addr-{i}")
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


def test_urts_unordered_pair_frequencies_uniform():
    ledger = _ten_tip_ledger()
    rng = substream(2024, 1)
    _assert_uniform_pairs([urts_pair(ledger.tips, rng) for _ in range(30_000)])


def test_batch_urts_pairs_uniform_and_distinct():
    tips = _ten_tip_ledger().tips
    pairs = urts_pairs(tips, uniforms(2024, 1, range(1), 60_000).reshape(2, -1))
    assert pairs.shape == (30_000, 2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    _assert_uniform_pairs(pairs.tolist())
    lone = urts_pairs(Ledger().tips, uniforms(2024, 1, range(1, 2), 6).reshape(2, -1))
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
    first = [urts_pair(_ten_tip_ledger().tips, substream(99, 5, i)) for i in range(50)]
    second = [urts_pair(_ten_tip_ledger().tips, substream(99, 5, i)) for i in range(50)]
    assert first == second


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

GOLDEN_LINES = [
    "0\t0\t0\tgenesis\t0",
    "1\t0\t0\taddr-a\t0",
    "2\t0\t0\taddr-b\t0",
    "3\t1\t2\taddr-c\t1",
]


def test_export_golden_bytes():
    ledger = Ledger()
    a = ledger.attach((GENESIS_ID, GENESIS_ID), "addr-a", round_issued=0)
    b = ledger.attach((GENESIS_ID, GENESIS_ID), "addr-b", round_issued=0)
    ledger.attach((a, b), "addr-c", round_issued=1)
    assert ledger.export_lines() == GOLDEN_LINES


def test_roundtrip_preserves_structure_and_tips():
    original = _grow_random(seed=21, n=120)
    clone = ledger_from_lines(original.export_lines())
    assert len(clone) == len(original)
    assert set(clone.tips) == set(original.tips)
    for tx in original.transactions():
        other = clone.get(tx.txid)
        assert other.parents == tx.parents
        assert other.issuer_address == tx.issuer_address
        assert other.round_issued == tx.round_issued
        assert other.issuer_identity is None  # ground truth never exported


def test_import_rejects_malformed_input():
    with pytest.raises(AttachError):
        ledger_from_lines(["0\t0\t0\tgenesis\t0", "1\t0\tx"])
    with pytest.raises(AttachError):
        ledger_from_lines(["0\t0\t1\tgenesis\t0"])
    with pytest.raises(AttachError):
        ledger_from_lines(["0\t0\t0\tgenesis\t0", "5\t0\t0\taddr\t0"])


def test_transaction_is_frozen_value_object():
    tx = Transaction(1, (0, 0), "addr", 0)
    with pytest.raises(AttributeError):
        tx.txid = 2
