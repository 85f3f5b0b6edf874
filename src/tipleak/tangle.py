"""Append-only DAG ledger with tip selection.

Every transaction approves two earlier transactions (its parents); a tip
is a transaction nobody has approved yet.  The ledger starts from a
single genesis transaction whose parents point at itself.  Tip selection
is uniform: an ordered pair of distinct tips drawn uniformly (the pair
repeats the lone tip when only one exists).

All draws take an explicit ``random.Random`` so callers own determinism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

GENESIS_ID = 0
GENESIS_ADDRESS = "genesis"


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


def urts_pair(tips: Sequence[int], rng: random.Random) -> tuple[int, int]:
    """Uniform ordered pair of distinct entries from ``tips`` (the single
    entry twice if only one exists)."""
    k = len(tips)
    if k == 0:
        raise AttachError("tip selection on a ledger with no tips")
    if k == 1:
        return (tips[0], tips[0])
    i = rng.randrange(k)
    j = rng.randrange(k - 1)
    if j >= i:
        j += 1
    return (tips[i], tips[j])


class Ledger:
    """DAG of transactions plus a live tip set.

    Tips are kept in a list with an index map so removal and uniform
    sampling are O(1); the list order is a pure function of the attach
    history, which keeps seeded runs reproducible.
    """

    def __init__(self) -> None:
        genesis = Transaction(
            txid=GENESIS_ID,
            parents=(GENESIS_ID, GENESIS_ID),
            issuer_address=GENESIS_ADDRESS,
            round_issued=0,
        )
        self._txs: dict[int, Transaction] = {GENESIS_ID: genesis}
        self._children: dict[int, list[int]] = {GENESIS_ID: []}
        self._tip_list: list[int] = [GENESIS_ID]
        self._tip_pos: dict[int, int] = {GENESIS_ID: 0}
        self._next_id = GENESIS_ID + 1
        self.round = 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, txid: int) -> bool:
        return txid in self._txs

    def get(self, txid: int) -> Transaction:
        return self._txs[txid]

    def transactions(self) -> Iterable[Transaction]:
        return self._txs.values()

    def approvers(self, txid: int) -> tuple[int, ...]:
        return tuple(self._children[txid])

    @property
    def tips(self) -> tuple[int, ...]:
        return tuple(self._tip_list)

    @property
    def tip_count(self) -> int:
        return len(self._tip_list)

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
        if p0 not in self._txs or p1 not in self._txs:
            raise AttachError(f"unknown parent in {parents!r}")
        if any(ch in (" ", "\t", "\n") for ch in issuer_address) or not issuer_address:
            raise AttachError(f"bad issuer address {issuer_address!r}")
        txid = self._next_id
        self._next_id += 1
        tx = Transaction(
            txid=txid,
            parents=(p0, p1),
            issuer_address=issuer_address,
            round_issued=self.round if round_issued is None else round_issued,
            issuer_identity=issuer_identity,
        )
        self._txs[txid] = tx
        self._children[txid] = []
        self._children[p0].append(txid)
        if p1 != p0:
            self._children[p1].append(txid)
        self._remove_tip(p0)
        self._remove_tip(p1)
        self._add_tip(txid)
        return txid

    def _remove_tip(self, txid: int) -> None:
        pos = self._tip_pos.pop(txid, None)
        if pos is None:
            return
        last = self._tip_list.pop()
        if last != txid:
            self._tip_list[pos] = last
            self._tip_pos[last] = pos

    def _add_tip(self, txid: int) -> None:
        self._tip_pos[txid] = len(self._tip_list)
        self._tip_list.append(txid)

    # -- selection --------------------------------------------------------

    def urts_select(self, rng: random.Random) -> tuple[int, int]:
        return urts_pair(self._tip_list, rng)

    # -- serialization ----------------------------------------------------

    def export_lines(self) -> list[str]:
        """One transaction per line: id, both parent ids, address, round.
        Identities are evaluation-only and deliberately not exported."""
        lines = []
        for txid in sorted(self._txs):
            tx = self._txs[txid]
            lines.append(
                f"{tx.txid}\t{tx.parents[0]}\t{tx.parents[1]}"
                f"\t{tx.issuer_address}\t{tx.round_issued}"
            )
        return lines


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
