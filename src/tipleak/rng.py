"""Deterministic random-stream derivation.

All randomness flows from a single root seed.  Each consumer gets a key
derived by hashing the root seed together with an integer key path that
names the consumer, and draws from a stream keyed by it:

* :func:`substream` seeds a ``random.Random`` (Mersenne Twister).  Node
  placement, adversary choice and every experiment-level draw use it.
* :func:`words` reads a counter-based Philox stream (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed by
  ``(root_seed, domain)``.  Philox's word ``n`` under key ``k`` is a pure
  function of ``(k, n)``, so every round owns a fixed range of counters:
  a block of rounds is one call, and a round's words are the same
  whichever block it falls in, or however late they are drawn again.
  :func:`to_uniforms` converts words to uniforms, so a caller converts
  only the columns it reads; :func:`uniforms` is the two in one.
  A simulation run reads two such streams.  ``DOMAIN_REQUEST`` holds each
  round's queried positions and follow choices, which decide every link;
  ``DOMAIN_URTS`` holds each round's URTS (uniform random tip selection)
  draws, which pick the tips served and attached on.  Only a run under
  collision-aware matching draws them: it alone compares served pairs
  with the parents of new ledger entries, so it alone keeps a ledger.

Because a key is a pure function of ``(root_seed, key path)``, results
never depend on scheduling or worker count: two runs with the same seed
produce bit-identical draws no matter how the work is split up.
"""

from __future__ import annotations

import hashlib
import random
import struct

import numpy as np

# Domain tags keep key paths from different subsystems disjoint.
DOMAIN_LAYOUT = 1      # node placement
DOMAIN_ADVERSARY = 2   # adversary subset draws
DOMAIN_REQUEST = 3     # a run's queried positions and follow choices
DOMAIN_URTS = 5        # a collision-aware run's URTS draws: responses' tip pairs
DOMAIN_EXPERIMENT = 6  # experiment-level draws (samples, subsets, ...)


def _stream_key(root_seed: int, *path: int) -> int:
    """128-bit BLAKE2b key of the root seed and integer key path."""
    h = hashlib.blake2b(digest_size=16)
    try:
        h.update(struct.pack("<q", root_seed))
    except struct.error:
        raise ValueError(f"seed must be a signed 64-bit integer, got {root_seed!r}") from None
    for part in path:
        h.update(struct.pack("<q", part))
    return int.from_bytes(h.digest(), "little")


def substream(root_seed: int, *path: int) -> random.Random:
    """Return an independent RNG for the given integer key path.

    Distinct paths yield unrelated streams and the same path always yields
    the same stream.
    """
    return random.Random(_stream_key(root_seed, *path))


def words(root_seed: int, domain: int, rounds: range, width: int) -> np.ndarray:
    """``width`` 64-bit words for each of the consecutive ``rounds``, as a
    ``(len(rounds), width)`` uint64 array, from the Philox stream keyed by
    ``(root_seed, domain)``.

    A counter block gives four words, and round ``r`` owns the
    ``S = ceil(width / 4)`` blocks from counter ``r * S`` on, so a round's
    row is the same whatever block of rounds it is drawn in.
    """
    per_round = -(-width // 4)
    raw = np.random.Philox(
        key=_stream_key(root_seed, domain), counter=rounds.start * per_round,
    ).random_raw(len(rounds) * per_round * 4)
    return raw.reshape(len(rounds), 4 * per_round)[:, :width]


def to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Each word's uniform on [0, 1): its top 53 bits times 2**-53.

    ``floor(u * k)`` maps a uniform to an index in [0, k): below k for
    every k < 2**53, because the product's rounding cannot reach k; and
    that rounding moves each cut point by less than one of the 2**53
    steps, so every index is within 2**-52 of probability 1/k, a
    total-variation bias below k * 2**-53.
    """
    u = np.empty(raw.shape)
    # shifted in buffered chunks straight into the floats, which hold
    # every 53-bit value exactly
    np.right_shift(raw, np.uint64(11), out=u, casting="unsafe")
    u *= 2.0 ** -53
    return u


def uniforms(root_seed: int, domain: int, rounds: range, width: int) -> np.ndarray:
    """``to_uniforms(words(root_seed, domain, rounds, width))``: ``width``
    uniforms on [0, 1) for each of the consecutive ``rounds``."""
    return to_uniforms(words(root_seed, domain, rounds, width))
