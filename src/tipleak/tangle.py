"""Append-only DAG ledger with tip selection.

Every transaction approves two earlier transactions (its parents); a tip
is a transaction nobody has approved yet.  The ledger starts from a
single genesis transaction whose parents point at itself.  Tip selection
is uniform: :func:`urts_pairs` maps an array of uniforms, drawn by the
caller who owns determinism, to ordered pairs of distinct tips (the lone
tip twice when only one exists).

The ledger is columnar: parents, round and address label are rows of one
int array, and the tips are one ascending id array.  One batch attach,
:meth:`Ledger.attach_round`, is the only writer of both, so a whole round,
or the bootstrap tips, attach as one array update.  The tip update marks
the batch's parents in a mask over the earlier ids (every parent predates
its batch), drops the marked tips and appends the new ids, which keeps the
array ascending.  The read API is :attr:`Ledger.tips`,
:attr:`Ledger.parents`, :meth:`Ledger.export_lines` and
:func:`ledger_from_lines`, which parses the line format back in one pass.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

GENESIS_ID = 0
GENESIS_ADDRESS = "genesis"

# columns of Ledger._rows
_P0, _P1, _ROUND, _LABEL = range(4)


class AttachError(ValueError):
    """Raised when a transaction cannot be appended to the ledger."""


def round_address(round_issued: int, label: int) -> str:
    """Fresh address of the transaction issued under ``label`` in a round."""
    return f"addr-{round_issued}-{label}"


def bootstrap_labels(n: int) -> np.ndarray:
    """The labels of ``n`` bootstrap transactions, whose addresses are
    ``bootstrap-0`` to ``bootstrap-{n - 1}``: the negative labels."""
    return -1 - np.arange(n, dtype=np.int64)


def _label_address(round_issued: int, label: int) -> str:
    """The address a label stands for: a bootstrap address below 0, else
    :func:`round_address`."""
    if label < 0:
        return f"bootstrap-{-1 - label}"
    return round_address(round_issued, label)


def _bad_address(address: str) -> bool:
    """An address the line format cannot hold: empty, or with a space, tab
    or newline in it."""
    return not address or any(ch in address for ch in " \t\n")


def second_index(i, j):
    """The URTS index rule.  With ``i`` uniform on [0, k) and ``j`` uniform
    on [0, k - 1), ``(i, second_index(i, j))`` is a uniform ordered pair of
    distinct indices.  Works on ints and on index arrays alike."""
    return j + (j >= i)


def urts_pairs(tips: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One uniform ordered pair of distinct entries of ``tips`` (the lone
    tip twice if only one exists) per column of the ``(2, n)`` uniforms
    ``u``, as an ``(n, 2)`` array: ``u[0]`` picks the first of k tips as
    ``floor(u[0] * k)``, and ``u[1]`` the second among the other k - 1."""
    k, n = len(tips), u.shape[1]
    if k == 0:
        raise AttachError("tip selection on a ledger with no tips")
    if k == 1:
        return np.full((n, 2), tips[0], dtype=np.int64)
    index = (u * np.array([[k], [k - 1]])).astype(np.intp)
    index[1] = second_index(index[0], index[1])
    return tips[index.T]


def _frozen(ids: np.ndarray) -> np.ndarray:
    ids.flags.writeable = False
    return ids


class Ledger:
    """DAG of transactions plus a live tip set.

    Transactions are rows of an int array that doubles its capacity when
    full, and :meth:`attach_round` alone appends them and moves the tips.
    A writer that knows how many rows it will end with reserves them once
    with :meth:`reserve`, so the array is not copied as it grows.
    The first rows -- genesis, and every row :func:`ledger_from_lines`
    read -- keep their address in ``_addresses``; each later row stores a
    label instead, which stands for :func:`round_address` of its round and
    label, or ``bootstrap-{i}`` for the labels of :func:`bootstrap_labels`.
    The arrays :attr:`tips` and :attr:`parents` hand out are never
    modified afterwards, so a caller may keep them as snapshots.
    """

    def __init__(self) -> None:
        self._rows = np.zeros((1024, 4), dtype=np.int64)
        self._size = 1
        self._addresses = [GENESIS_ADDRESS]
        self._tips = _frozen(np.array([GENESIS_ID], dtype=np.int64))

    def __len__(self) -> int:
        return self._size

    @property
    def tips(self) -> np.ndarray:
        """The tips as a read-only ascending array."""
        return self._tips

    @property
    def tip_count(self) -> int:
        return len(self._tips)

    @property
    def parents(self) -> np.ndarray:
        """Each transaction's two parents as a read-only ``(n, 2)`` array,
        row ``i`` for id ``i``; genesis approves itself."""
        return _frozen(self._rows[:self._size, _P0:_P1 + 1])

    def attach_round(
        self, parents: np.ndarray, round_issued: int, labels: np.ndarray,
    ) -> np.ndarray:
        """Append one transaction per row of the ``(n, 2)`` ``parents``
        array, in row order, row ``r`` under the address ``labels[r]``
        stands for in ``round_issued``; returns their ids.

        Every parent must predate the batch (it need not still be a tip),
        so each new id is larger than its parents' and the DAG stays
        acyclic by construction.  A rejected batch appends nothing.
        """
        n = len(parents)
        if n and (parents.min() < 0 or parents.max() >= self._size):
            raise AttachError("unknown parent in batch")
        start = self._append(n)
        rows = self._rows[start:start + n]
        rows[:, _P0:_P1 + 1] = parents
        rows[:, _ROUND] = round_issued
        rows[:, _LABEL] = labels
        ids = np.arange(start, start + n, dtype=np.int64)
        # every parent predates the batch: a mask over the old ids marks
        # the tips the batch approves
        approved = np.zeros(start, dtype=bool)
        approved[parents] = True
        tips = self._tips
        self._tips = _frozen(np.concatenate((tips[~approved[tips]], ids)))
        return ids

    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` transactions in all, genesis included, so
        that no attach up to that count copies the rows."""
        if rows > len(self._rows):
            grown = np.empty((rows, 4), dtype=np.int64)
            grown[:self._size] = self._rows[:self._size]
            self._rows = grown

    def _append(self, n: int) -> int:
        """Take ``n`` more rows; returns the first new id."""
        start = self._size
        if start + n > len(self._rows):
            self.reserve(max(2 * len(self._rows), start + n))
        self._size = start + n
        return start

    def export_lines(self) -> list[str]:
        """One transaction per line: id, both parent ids, address, round."""
        rows = self._rows[:self._size].tolist()
        named = len(self._addresses)
        addresses = self._addresses + [
            _label_address(round_issued, label) for _, _, round_issued, label in rows[named:]
        ]
        return [
            f"{txid}\t{p0}\t{p1}\t{address}\t{round_issued}"
            for txid, ((p0, p1, round_issued, _), address) in enumerate(zip(rows, addresses))
        ]


def ledger_from_lines(lines: Iterable[str]) -> Ledger:
    """Rebuild a ledger from :meth:`Ledger.export_lines` output, skipping
    blank lines.

    Every line holds five tab-separated fields, its id, parents and round
    integers.  The ids run 0, 1, 2, ... from the genesis line, which
    approves itself; every other line approves two earlier ids, under an
    address the line format can hold.  The tips are the ids no line
    approves.
    """
    fields = []
    for raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise AttachError(f"malformed ledger line: {line!r}")
        fields.append(parts)
    if not fields:
        raise AttachError("no genesis line")
    txids, p0, p1, addresses, rounds = zip(*fields)
    try:
        numbers = np.array((txids, p0, p1, rounds), dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise AttachError(f"bad ledger field: {exc}") from None
    n = len(fields)
    ids, parents = numbers[0], numbers[1:3].T
    skipped = np.flatnonzero(ids != np.arange(n))
    if len(skipped):
        first = int(skipped[0])
        raise AttachError(f"non-contiguous transaction id {ids[first]} (expected {first})")
    if parents[GENESIS_ID].tolist() != [GENESIS_ID, GENESIS_ID]:
        raise AttachError("genesis must approve itself")
    later = parents[1:]
    late = np.flatnonzero(((later < 0) | (later >= ids[1:, None])).any(axis=1))
    if len(late):
        txid = int(late[0]) + 1
        raise AttachError(
            f"transaction {txid} approves {parents[txid].tolist()}, not earlier ids")
    # one scan of all addresses joined (an empty one vanishes from the
    # join, so ``all`` looks for it); the loop names the first bad one
    if not all(addresses) or _bad_address("".join(addresses)):
        for address in addresses:
            if _bad_address(address):
                raise AttachError(f"bad issuer address {address!r}")
    ledger = Ledger()
    ledger.reserve(n)
    ledger._rows[:n, _P0:_ROUND + 1] = numbers[1:].T  # no label: every row is addressed
    ledger._size = n
    ledger._addresses = list(addresses)
    approved = np.zeros(n, dtype=bool)
    approved[later] = True
    ledger._tips = _frozen(np.flatnonzero(~approved))
    return ledger
