"""Deterministic random-stream derivation.

All randomness flows from a single root seed.  Each consumer gets a key
derived by hashing the root seed together with an integer key path that
names the consumer, and draws from a stream keyed by it:

* :func:`substream` seeds a ``random.Random`` (Mersenne Twister).  Node
  placement, adversary choice and every experiment-level draw use it.
* :func:`uniforms` reads a counter-based Philox stream (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11) keyed by
  ``(root_seed, domain)``, one per simulation run.  Philox's word ``n``
  under key ``k`` is a pure function of ``(k, n)``, so every round owns a
  fixed range of counters: a block of rounds is one call, and a round's
  uniforms are the same whichever block it falls in.  Every light node's
  request, response and follow draws come from them.

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
DOMAIN_REQUEST = 3     # a run's requests, responses and follow choices
DOMAIN_LOCAL = 5       # a run's local tip selection (no request issued)
DOMAIN_EXPERIMENT = 6  # experiment-level draws (samples, subsets, ...)


def _stream_key(root_seed: int, *path: int) -> int:
    """128-bit BLAKE2b key of the root seed and integer key path."""
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", root_seed))
    for part in path:
        h.update(struct.pack("<q", part))
    return int.from_bytes(h.digest(), "little")


def substream(root_seed: int, *path: int) -> random.Random:
    """Return an independent RNG for the given integer key path.

    Distinct paths yield unrelated streams and the same path always yields
    the same stream.
    """
    return random.Random(_stream_key(root_seed, *path))


def uniforms(root_seed: int, domain: int, rounds: range, width: int) -> np.ndarray:
    """``width`` uniforms on [0, 1) for each of the consecutive ``rounds``,
    as a ``(len(rounds), width)`` array, from the Philox stream keyed by
    ``(root_seed, domain)``.

    A counter block gives four 64-bit words, and round ``r`` owns the
    ``S = ceil(width / 4)`` blocks from counter ``r * S`` on, so a round's
    row is the same whatever block of rounds it is drawn in.  A uniform
    is its word's top 53 bits times 2**-53.  ``floor(u * k)`` maps it to an
    index in [0, k): below k for every k < 2**53, because the product's
    rounding cannot reach k; and that rounding moves each cut point by
    less than one of the 2**53 steps, so every index is within 2**-52 of
    probability 1/k, a total-variation bias below k * 2**-53.
    """
    per_round = -(-width // 4)
    words = np.random.Philox(
        key=_stream_key(root_seed, domain), counter=rounds.start * per_round,
    ).random_raw(len(rounds) * per_round * 4)
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u *= 2.0 ** -53
    return u.reshape(len(rounds), 4 * per_round)[:, :width]
