"""Append-only DAG ledger with tip selection.

Every transaction approves two earlier transactions (its parents); a tip
is a transaction nobody has approved yet.  The ledger starts from a
single genesis transaction whose parents point at itself.  Tip selection
is uniform: an ordered pair of distinct tips drawn uniformly (the pair
repeats the lone tip when only one exists).

The ledger is columnar: parents, round, issuer and address label are rows
of one int array, and the tips are one ascending id array.  One batch
attach is the only writer of both, so a whole round, or the bootstrap
tips, attach as one array update; a single attach is a one-row batch.
The tip update marks the batch's parents in a mask over the earlier ids
(every parent predates its batch), drops the marked tips and appends the
new ids, which keeps the array ascending.
Draws take their randomness from the caller, who owns determinism:
:func:`urts_pair` a ``random.Random``, :func:`urts_pairs` an array of
uniforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

GENESIS_ID = 0
GENESIS_ADDRESS = "genesis"

NO_ISSUER = -1   # issuer column of a transaction without a recorded identity
NO_LABEL = -1    # label column of a transaction attached under its own address
# label column of bootstrap-{i}, the i-th genesis child attached before
# round 0, is _BOOTSTRAP - i: the labels below NO_LABEL
_BOOTSTRAP = NO_LABEL - 1

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


def bootstrap_labels(n: int) -> np.ndarray:
    """The labels of ``n`` bootstrap transactions, whose addresses are
    ``bootstrap-0`` to ``bootstrap-{n - 1}``."""
    return _BOOTSTRAP - np.arange(n, dtype=np.int64)


def _label_address(round_issued: int, label: int) -> str:
    """The address a label stands for: a bootstrap address below
    ``NO_LABEL``, else :func:`round_address`."""
    if label < NO_LABEL:
        return f"bootstrap-{_BOOTSTRAP - label}"
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
    A transaction attached without an explicit address stores a label
    instead; its address is :func:`round_address` of its round and label,
    or ``bootstrap-{i}`` for the labels of :func:`bootstrap_labels`.
    The tips are one ascending id array; the array :attr:`tips` hands out
    is never modified afterwards, so a caller may keep it as a snapshot.
    """

    def __init__(self) -> None:
        self._rows = np.zeros((1024, 5), dtype=np.int64)
        self._rows[GENESIS_ID] = (GENESIS_ID, GENESIS_ID, 0, NO_ISSUER, NO_LABEL)
        self._size = 1
        self._addresses: dict[int, str] = {GENESIS_ID: GENESIS_ADDRESS}
        self._tips = _frozen(np.array([GENESIS_ID], dtype=np.int64))

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
                _label_address(round_issued, label) if address is None else address
            ),
            round_issued=round_issued,
            issuer_identity=None if issuer == NO_ISSUER else issuer,
        )

    def transactions(self) -> Iterator[Transaction]:
        return (self.get(txid) for txid in range(self._size))

    @property
    def tips(self) -> np.ndarray:
        """The tips as a read-only ascending array."""
        return self._tips

    @property
    def tip_count(self) -> int:
        return len(self._tips)

    # -- growth -----------------------------------------------------------

    def attach(
        self,
        parents: tuple[int, int],
        issuer_address: str,
        round_issued: int = 0,
        issuer_identity: int | None = None,
    ) -> int:
        """Append one transaction approving ``parents``; returns its id."""
        (txid,) = self.attach_round(
            np.array([parents], dtype=np.int64), round_issued,
            np.array([NO_ISSUER if issuer_identity is None else issuer_identity]),
            addresses=[issuer_address],
        ).tolist()
        return txid

    def attach_round(
        self,
        parents: np.ndarray,
        round_issued: int,
        issuers: np.ndarray,
        labels: np.ndarray | None = None,
        addresses: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Append one transaction per row of the ``(n, 2)`` ``parents``
        array, in row order; returns their ids.

        Every parent must predate the batch (it need not still be a tip),
        so each new id is larger than its parents' and the DAG stays
        acyclic by construction.  Row ``r`` is issued by ``issuers[r]``
        under ``addresses[r]`` when addresses are given, else under the
        address ``labels[r]`` stands for in its round.  A rejected batch
        appends nothing.
        """
        n = len(parents)
        if n and (parents.min() < 0 or parents.max() >= self._size):
            raise AttachError("unknown parent in batch")
        # one scan of all addresses joined (an empty one vanishes from the
        # join, so ``all`` looks for it); the loop names the first bad one
        if addresses is not None and (
            not all(addresses) or _bad_address("".join(addresses))
        ):
            for address in addresses:
                if _bad_address(address):
                    raise AttachError(f"bad issuer address {address!r}")
        start = self._append(n)
        rows = self._rows[start:start + n]
        rows[:, _P0:_P1 + 1] = parents
        rows[:, _ROUND] = round_issued
        rows[:, _ISSUER] = issuers
        rows[:, _LABEL] = NO_LABEL if labels is None else labels
        if addresses is not None:
            self._addresses.update(zip(range(start, start + n), addresses))
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
            grown = np.empty((rows, 5), dtype=np.int64)
            grown[:self._size] = self._rows[:self._size]
            self._rows = grown

    def _append(self, n: int) -> int:
        """Take ``n`` more rows; returns the first new id."""
        start = self._size
        if start + n > len(self._rows):
            self.reserve(max(2 * len(self._rows), start + n))
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
