"""Append-only DAG ledger with tip selection.

Every transaction approves two earlier transactions (its parents); a tip
is a transaction nobody has approved yet.  The ledger starts from a
single genesis transaction whose parents point at itself.  Tip selection
is uniform: an ordered pair of distinct tips drawn uniformly (the pair
repeats the lone tip when only one exists).

The ledger is columnar: parents, round, issuer and address label are rows
of one int array, and the tips are kept in ascending id order, so a whole
round attaches as one array update.  Draws take an explicit generator so
callers own determinism: :func:`urts_pair` a ``random.Random``,
:func:`urts_pairs` a ``numpy.random.Generator``.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

GENESIS_ID = 0
GENESIS_ADDRESS = "genesis"

NO_ISSUER = -1   # issuer column of a transaction without a recorded identity
NO_LABEL = -1    # label column of a transaction attached under its own address

# columns of Ledger._rows
_P0, _P1, _ROUND, _ISSUER, _LABEL = range(5)


class AttachError(ValueError):
    """Raised when a transaction cannot be appended to the ledger."""


@dataclass(frozen=True)
class Transaction:
    """One ledger entry.  ``issuer_identity`` is ground truth recorded for
    evaluation only; matching code never reads it to *find* links."""

    txid: int
    parents: tuple[int, int]
    issuer_address: str
    round_issued: int
    issuer_identity: int | None = None


def round_address(round_issued: int, label: int) -> str:
    """Fresh address of the transaction issued under ``label`` in a round."""
    return f"addr-{round_issued}-{label}"


def second_index(i, j):
    """The URTS index rule.  With ``i`` uniform on [0, k) and ``j`` uniform
    on [0, k - 1), ``(i, second_index(i, j))`` is a uniform ordered pair of
    distinct indices.  Works on ints and on index arrays alike."""
    return j + (j >= i)


def urts_pair(tips: Sequence[int], rng: random.Random) -> tuple[int, int]:
    """Uniform ordered pair of distinct entries from ``tips`` (the single
    entry twice if only one exists)."""
    k = len(tips)
    if k == 0:
        raise AttachError("tip selection on a ledger with no tips")
    if k == 1:
        return (tips[0], tips[0])
    i = rng.randrange(k)
    return (tips[i], tips[second_index(i, rng.randrange(k - 1))])


def urts_pairs(tips: np.ndarray, gen: np.random.Generator, n: int) -> np.ndarray:
    """``n`` independent :func:`urts_pair` draws from ``tips``, as an
    ``(n, 2)`` array."""
    k = len(tips)
    if k == 0:
        raise AttachError("tip selection on a ledger with no tips")
    if k == 1:
        return np.full((n, 2), tips[0], dtype=np.int64)
    i = gen.integers(0, k, n)
    j = gen.integers(0, k - 1, n)
    return np.stack((tips[i], tips[second_index(i, j)]), axis=1)


class Ledger:
    """DAG of transactions plus a live tip set.

    Transactions are rows of an int array that doubles its capacity when
    full.  A transaction attached by :meth:`attach_round` stores a label
    instead of an address; its address is :func:`round_address` of its
    round and label.  The tips are kept in ascending id order; the array
    :attr:`tip_ids` hands out is never modified afterwards, so a caller
    may keep it as a snapshot.
    """

    def __init__(self) -> None:
        self._rows = np.zeros((1024, 5), dtype=np.int64)
        self._rows[GENESIS_ID] = (GENESIS_ID, GENESIS_ID, 0, NO_ISSUER, NO_LABEL)
        self._size = 1
        self._addresses: dict[int, str] = {GENESIS_ID: GENESIS_ADDRESS}
        self._tips = [GENESIS_ID]                   # ascending
        self._tip_array: np.ndarray | None = None   # built on demand
        self.round = 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def get(self, txid: int) -> Transaction:
        if not 0 <= txid < self._size:
            raise KeyError(txid)
        p0, p1, round_issued, issuer, label = self._rows[txid].tolist()
        address = self._addresses.get(txid)
        return Transaction(
            txid=txid,
            parents=(p0, p1),
            issuer_address=(
                round_address(round_issued, label) if address is None else address
            ),
            round_issued=round_issued,
            issuer_identity=None if issuer == NO_ISSUER else issuer,
        )

    def transactions(self) -> Iterator[Transaction]:
        return (self.get(txid) for txid in range(self._size))

    def approvers(self, txid: int) -> tuple[int, ...]:
        parents = self._rows[1:self._size, _P0:_P1 + 1]
        return tuple((np.flatnonzero((parents == txid).any(axis=1)) + 1).tolist())

    @property
    def tips(self) -> tuple[int, ...]:
        return tuple(self._tips)

    @property
    def tip_ids(self) -> np.ndarray:
        """The tips as a read-only ascending array."""
        if self._tip_array is None:
            self._tip_array = np.array(self._tips, dtype=np.int64)
            self._tip_array.flags.writeable = False
        return self._tip_array

    @property
    def tip_count(self) -> int:
        return len(self._tips)

    # -- growth -----------------------------------------------------------

    def attach(
        self,
        parents: tuple[int, int],
        issuer_address: str,
        round_issued: int | None = None,
        issuer_identity: int | None = None,
    ) -> int:
        """Append a transaction approving ``parents``; returns its id.

        Parents must already exist (they need not still be tips).  The new
        transaction's id is always larger than its parents', so the DAG
        stays acyclic by construction.
        """
        p0, p1 = parents
        if not (0 <= p0 < self._size and 0 <= p1 < self._size):
            raise AttachError(f"unknown parent in {parents!r}")
        if any(ch in (" ", "\t", "\n") for ch in issuer_address) or not issuer_address:
            raise AttachError(f"bad issuer address {issuer_address!r}")
        txid = self._append(1)
        self._rows[txid] = (
            p0, p1, self.round if round_issued is None else round_issued,
            NO_ISSUER if issuer_identity is None else issuer_identity, NO_LABEL,
        )
        self._addresses[txid] = issuer_address
        for parent in {p0, p1}:
            i = bisect.bisect_left(self._tips, parent)
            if i < len(self._tips) and self._tips[i] == parent:
                del self._tips[i]
        self._tips.append(txid)
        self._tip_array = None
        return txid

    def attach_round(
        self,
        parents: np.ndarray,
        round_issued: int,
        issuers: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Append one transaction per row of the ``(n, 2)`` ``parents``
        array, in row order; returns their ids.

        Every parent must predate the batch.  Row ``r`` is issued by
        ``issuers[r]`` under the address ``round_address(round_issued,
        labels[r])``.
        """
        n = len(parents)
        if n and (parents.min() < 0 or parents.max() >= self._size):
            raise AttachError("unknown parent in batch")
        start = self._append(n)
        rows = self._rows[start:start + n]
        rows[:, _P0:_P1 + 1] = parents
        rows[:, _ROUND] = round_issued
        rows[:, _ISSUER] = issuers
        rows[:, _LABEL] = labels
        ids = np.arange(start, start + n, dtype=np.int64)
        tips = self.tip_ids
        tips = np.concatenate((tips[~np.isin(tips, parents)], ids))
        tips.flags.writeable = False
        self._tips, self._tip_array = tips.tolist(), tips
        return ids

    def _append(self, n: int) -> int:
        """Reserve ``n`` rows; returns the first new id."""
        start = self._size
        if start + n > len(self._rows):
            grown = np.zeros((max(2 * len(self._rows), start + n), 5), dtype=np.int64)
            grown[:start] = self._rows[:start]
            self._rows = grown
        self._size = start + n
        return start

    # -- serialization ----------------------------------------------------

    def export_lines(self) -> list[str]:
        """One transaction per line: id, both parent ids, address, round.
        Identities are evaluation-only and deliberately not exported."""
        return [
            f"{tx.txid}\t{tx.parents[0]}\t{tx.parents[1]}"
            f"\t{tx.issuer_address}\t{tx.round_issued}"
            for tx in self.transactions()
        ]


def ledger_from_lines(lines: Iterable[str]) -> Ledger:
    """Rebuild a ledger from :meth:`Ledger.export_lines` output.

    The tip set is recomputed from scratch and the genesis line is
    checked against the reserved id and self-referential parents.
    """
    ledger = Ledger()
    for raw in lines:
        line = raw.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise AttachError(f"malformed ledger line: {line!r}")
        txid, p0, p1, address, round_issued = (
            int(parts[0]), int(parts[1]), int(parts[2]), parts[3], int(parts[4]),
        )
        if txid == GENESIS_ID:
            if (p0, p1) != (GENESIS_ID, GENESIS_ID):
                raise AttachError("genesis must approve itself")
            continue
        got = ledger.attach((p0, p1), address, round_issued)
        if got != txid:
            raise AttachError(f"non-contiguous transaction id {txid} (expected {got})")
    return ledger
