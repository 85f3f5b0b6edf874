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
from tipleak.tangle import (
    GENESIS_ID,
    AttachError,
    Ledger,
    bootstrap_labels,
    ledger_from_lines,
    urts_pairs,
)


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


def _grow_random(seed: int, n: int) -> Ledger:
    """``n`` attaches after genesis, in rounds of one to four URTS pairs
    drawn against the tips each round starts from."""
    gen = np.random.default_rng(seed)
    ledger, round_issued = Ledger(), 0
    while len(ledger) <= n:
        size = min(int(gen.integers(1, 5)), n + 1 - len(ledger))
        ledger.attach_round(urts_pairs(ledger.tips, gen.random((2, size))), round_issued,
                            np.arange(size))
        round_issued += 1
    return ledger


def _attach(ledger: Ledger, *parents: tuple[int, int], round_issued: int = 0) -> list[int]:
    """Attach one batch of the given parent pairs, labelled 0, 1, ..."""
    return ledger.attach_round(np.array(parents, dtype=np.int64).reshape(-1, 2),
                               round_issued, np.arange(len(parents))).tolist()


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_fresh_ledger_is_genesis_only():
    ledger = Ledger()
    assert len(ledger) == 1
    assert ledger.tips.tolist() == [GENESIS_ID]
    assert ledger.parents.tolist() == [[GENESIS_ID, GENESIS_ID]]
    assert ledger.export_lines() == ["0\t0\t0\tgenesis\t0"]


def test_attach_moves_tip_set():
    ledger = Ledger()
    (a,) = _attach(ledger, (GENESIS_ID, GENESIS_ID))
    assert ledger.tips.tolist() == [a]
    (b,) = _attach(ledger, (GENESIS_ID, GENESIS_ID))
    assert ledger.tips.tolist() == [a, b]
    (c,) = _attach(ledger, (a, b))
    assert ledger.tips.tolist() == [c]


def test_attach_rejects_unknown_parents_and_bad_addresses():
    ledger = Ledger()
    for parents in ((5, GENESIS_ID), (GENESIS_ID, 1), (-1, GENESIS_ID)):
        with pytest.raises(AttachError):
            _attach(ledger, (GENESIS_ID, GENESIS_ID), parents)
    assert len(ledger) == 1  # nothing was appended
    # addresses come only from read lines, which refuse what the format
    # cannot hold
    for address in ("bad address", ""):
        with pytest.raises(AttachError):
            ledger_from_lines(["0\t0\t0\tgenesis\t0", f"1\t0\t0\t{address}\t0"])


def test_parents_and_tips_are_read_only_snapshots():
    ledger = _grow_random(seed=5, n=20)
    parents, tips = ledger.parents, ledger.tips
    for array in (parents, tips):
        with pytest.raises(ValueError):
            array[0] = 1
    want = (parents.tolist(), tips.tolist())
    _attach(ledger, *[(tip, tip) for tip in tips.tolist()])
    ledger.reserve(4096)  # a copy of the rows leaves the snapshots as they were
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
    batch, split = Ledger(), Ledger()
    for ledger in (batch, split):
        ledger.attach_round(np.zeros((4, 2), dtype=np.int64), 0, bootstrap_labels(4))
    parents = np.array([[1, 2], [2, 3], [1, 1]])
    labels = np.array([17, 18, 19])
    ids = batch.attach_round(parents, 3, labels)
    bounds = (0, *cuts, len(parents))
    split_ids = np.concatenate([split.attach_round(parents[a:b], 3, labels[a:b])
                                for a, b in zip(bounds, bounds[1:])])
    assert ids.tolist() == split_ids.tolist() == [5, 6, 7]
    assert batch.export_lines() == split.export_lines()
    assert batch.parents.tolist() == split.parents.tolist()
    assert batch.export_lines()[5:] == [
        "5\t1\t2\taddr-3-17\t3", "6\t2\t3\taddr-3-18\t3", "7\t1\t1\taddr-3-19\t3"]
    assert batch.tips.tolist() == split.tips.tolist() == [4, 5, 6, 7]
    # tip 1 is approved by rows 5 and 7 alone
    assert np.flatnonzero((batch.parents == 1).any(axis=1)).tolist() == [5, 7]
    with pytest.raises(AttachError):  # checked before the good first row lands
        batch.attach_round(np.array([[4, 5], [0, 8]]), 4, np.array([1, 2]))
    assert len(batch) == 8
    assert batch.tips.tolist() == [4, 5, 6, 7]


def test_bootstrap_labels_stand_for_bootstrap_addresses():
    labelled = Ledger()
    labelled.attach_round(np.zeros((3, 2), dtype=np.int64), 0, bootstrap_labels(3))
    named = ledger_from_lines(
        ["0\t0\t0\tgenesis\t0"] + [f"{i + 1}\t0\t0\tbootstrap-{i}\t0" for i in range(3)])
    assert labelled.export_lines() == named.export_lines()
    assert labelled.parents.tolist() == named.parents.tolist()
    assert labelled.tips.tolist() == named.tips.tolist() == [1, 2, 3]


def test_reserve_keeps_the_rows_and_sizes_the_array_once():
    ledger = _grow_random(3, 40)
    lines, tips = ledger.export_lines(), ledger.tips.tolist()
    ledger.reserve(5000)
    rows = ledger._rows
    assert len(rows) == 5000
    assert ledger.export_lines() == lines and ledger.tips.tolist() == tips
    ledger.reserve(100)  # never shrinks
    ledger.attach_round(np.ones((4950, 2), dtype=np.int64), 1, np.arange(4950))
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
        ids = ledger.attach_round(parents, r, np.arange(n))
        tips = np.concatenate((tips[~np.isin(tips, parents)], ids))
        assert ledger.tips.dtype == tips.dtype
        assert ledger.tips.tolist() == tips.tolist()
    assert set(ledger.tips.tolist()) == _recomputed_tips(ledger)


# ---------------------------------------------------------------------------
# uniform selection
# ---------------------------------------------------------------------------

def _ten_tip_ledger() -> Ledger:
    ledger = Ledger()
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
    first = [urts_pairs(_ten_tip_ledger().tips, uniforms(99, 5, range(i, i + 1), 8).reshape(2, -1))
             for i in range(50)]
    second = [urts_pairs(_ten_tip_ledger().tips, uniforms(99, 5, range(i, i + 1), 8).reshape(2, -1))
              for i in range(50)]
    assert [pairs.tolist() for pairs in first] == [pairs.tolist() for pairs in second]
    assert len({pairs.tobytes() for pairs in first}) > 1  # the seed's rounds differ


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
    ledger = ledger_from_lines(GOLDEN_LINES)
    assert ledger.parents.tolist() == [[0, 0], [0, 0], [0, 0], [1, 2]]
    assert ledger.tips.tolist() == [3]
    assert ledger.export_lines() == GOLDEN_LINES
    # the same DAG attached under labels prints their round addresses
    labelled = Ledger()
    a, b = _attach(labelled, (GENESIS_ID, GENESIS_ID), (GENESIS_ID, GENESIS_ID))
    labelled.attach_round(np.array([[a, b]]), 1, np.array([7]))
    assert labelled.export_lines() == [
        "0\t0\t0\tgenesis\t0",
        "1\t0\t0\taddr-0-0\t0",
        "2\t0\t0\taddr-0-1\t0",
        "3\t1\t2\taddr-1-7\t1",
    ]


def test_roundtrip_preserves_structure_and_tips():
    original = _grow_random(seed=21, n=120)
    original.attach_round(np.zeros((2, 2), dtype=np.int64), 99, bootstrap_labels(2))
    lines = original.export_lines()
    clone = ledger_from_lines(line + "\n" for line in lines)  # as a file reads
    assert len(clone) == len(original)
    assert clone.parents.tolist() == original.parents.tolist()
    assert clone.tips.tolist() == original.tips.tolist()
    assert clone.export_lines() == lines
    # a clone grows on as the original does
    for ledger in (original, clone):
        ledger.attach_round(np.array([[120, 3]]), 100, np.array([5]))
    assert clone.export_lines() == original.export_lines()
    assert clone.tips.tolist() == original.tips.tolist()


def test_import_rejects_malformed_input():
    # one bad line anywhere in a real export is found: first, inside, last
    lines = _grow_random(seed=4, n=60).export_lines()
    for at in (0, 1, 30, len(lines) - 1):
        for bad in ("x", f"{at}\t0\t0\taddr", f"{at}\t0\t{at + 1}\taddr\t0"):
            corrupt = lines[:at] + [bad] + lines[at + 1:]
            with pytest.raises(AttachError):
                ledger_from_lines(corrupt)
    assert ledger_from_lines(lines[:1] + [""] + lines[1:]).export_lines() == lines


GENESIS_LINE = "0\t0\t0\tgenesis\t0"


@pytest.mark.parametrize("lines, message", [
    ([], "no genesis line"),
    ([GENESIS_LINE, "1\t0\tx"], "malformed ledger line"),
    ([GENESIS_LINE, "1\t0\t0\taddr\t0\textra"], "malformed ledger line"),
    ([GENESIS_LINE, "1\t0\tzero\taddr\t0"], "bad ledger field"),
    ([GENESIS_LINE, "1\t0\t0\taddr\t1.5"], "bad ledger field"),
    ([GENESIS_LINE, "1\t0\t0\taddr\t99999999999999999999"], "bad ledger field"),
    ([GENESIS_LINE, "1\t0\t0\ta\t0", "1\t0\t0\tb\t0"], "non-contiguous transaction id 1"),
    ([GENESIS_LINE, "5\t0\t0\taddr\t0"], "non-contiguous transaction id 5"),
    (["1\t0\t0\taddr\t0"], "non-contiguous transaction id 1"),
    (["0\t0\t1\tgenesis\t0"], "genesis must approve itself"),
    ([GENESIS_LINE, "1\t-1\t0\ta\t0"], "transaction 1 approves [-1, 0]"),
    ([GENESIS_LINE, "1\t0\t0\ta\t0", "2\t2\t0\ta\t0"], "transaction 2 approves [2, 0]"),
    ([GENESIS_LINE, "1\t2\t0\ta\t0", "2\t0\t0\ta\t0"], "transaction 1 approves [2, 0]"),
    # the error names the first bad address
    ([GENESIS_LINE, "1\t0\t0\t\t0"], "bad issuer address ''"),
    ([GENESIS_LINE, "1\t0\t0\ttwo words\t0"], "bad issuer address 'two words'"),
    ([GENESIS_LINE] + [f"{i + 1}\t0\t0\t{a}\t0" for i, a in enumerate(
        ["ok-0", "ok-1", "new\nline", "", "two words"])], "bad issuer address 'new\\nline'"),
    ([GENESIS_LINE] + [f"{i + 1}\t0\t0\t{a}\t0" for i, a in enumerate(
        ["ok-0", "", "two words"])], "bad issuer address ''"),
    ([GENESIS_LINE] + [f"{i + 1}\t0\t0\t{a}\t0" for i, a in enumerate(
        ["ok-0", "ok-1", "ok-2", "trailing "])], "bad issuer address 'trailing '"),
], ids=["empty", "short-line", "long-line", "word-parent", "float-round", "huge-round",
        "duplicate-id", "skipped-id", "no-genesis", "genesis-not-self", "negative-parent",
        "self-parent", "later-parent", "empty-address", "spaced-address", "first-of-newline",
        "first-of-empty", "trailing-space"])
def test_import_rejects_each_bad_input(lines, message):
    with pytest.raises(AttachError) as info:
        ledger_from_lines(lines)
    assert str(info.value).startswith(message)
    assert "\n" not in str(info.value).replace("\\n", "")
