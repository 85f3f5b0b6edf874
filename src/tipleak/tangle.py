"""Append-only DAG ledger with tip selection.

Every transaction approves two earlier transactions (its parents); a tip
is a transaction nobody has approved yet.  The ledger starts from a
single genesis transaction whose parents point at itself.  Tip selection
is uniform: :func:`urts_pairs` maps an array of uniforms, drawn by the
caller who owns determinism, to ordered pairs of distinct tips (the lone
tip twice when only one exists).

The ledger is columnar: the parents are one ``(capacity, 2)`` int array,
sized once when the ledger is built, and the tips are one ascending id
array.  One batch attach, :meth:`Ledger.attach_round`, is the only writer
of both, so a whole round, or the bootstrap tips, attach as one array
update.  The tip update marks the batch's parents in a mask over the
earlier ids (every parent predates its batch) from the least parent or
the oldest tip on, drops the marked tips and appends the new ids, which
keeps the array ascending.  The read API is :attr:`Ledger.tips` and
:attr:`Ledger.parents`.  A transaction's address is not stored: the one
issued by a light in a round is :func:`round_address` of the two.
"""

from __future__ import annotations

import numpy as np

GENESIS_ID = 0


class AttachError(ValueError):
    """Raised when a transaction cannot be appended to the ledger."""


def round_address(round_issued: int, label: int) -> str:
    """Fresh address of the transaction issued under ``label`` in a round."""
    return f"addr-{round_issued}-{label}"


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

    Transactions are the rows of a parents array with room for
    ``capacity`` of them, genesis included; every writer knows how many
    rows it will end with, so the array is sized once and never copied.
    :meth:`attach_round` alone appends rows and moves the tips.  The
    arrays :attr:`tips` and :attr:`parents` hand out are never modified
    afterwards, so a caller may keep them as snapshots.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise AttachError(f"a ledger holds genesis: capacity {capacity} < 1")
        self._parents = np.empty((capacity, 2), dtype=np.int64)
        self._parents[GENESIS_ID] = GENESIS_ID
        self._size = 1
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
        return _frozen(self._parents[:self._size])

    def attach_round(self, parents: np.ndarray) -> np.ndarray:
        """Append one transaction per row of the ``(n, 2)`` ``parents``
        array, in row order; returns their ids.

        Every parent must predate the batch (it need not still be a tip),
        so each new id is larger than its parents' and the DAG stays
        acyclic by construction.  A rejected batch -- an unknown parent,
        or more rows than the capacity leaves -- appends nothing.
        """
        n, start = len(parents), self._size
        if start + n > len(self._parents):
            raise AttachError(f"a batch of {n} rows overflows the ledger: "
                              f"{start} of {len(self._parents)} rows taken")
        least = int(parents.min()) if n else start
        if n and (least < 0 or parents.max() >= start):
            raise AttachError("unknown parent in batch")
        self._parents[start:start + n] = parents
        self._size = start + n
        ids = np.arange(start, start + n, dtype=np.int64)
        # every parent predates the batch: a mask over the old ids from the
        # least parent or the oldest tip on marks the tips the batch approves
        tips = self._tips
        low = min(least, int(tips[0]))
        approved = np.zeros(start - low, dtype=bool)
        approved[parents - low] = True
        self._tips = _frozen(np.concatenate((tips[~approved[tips - low]], ids)))
        return ids
