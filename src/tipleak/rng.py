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
  :func:`words` keeps one Philox generator and re-keys it (:func:`rekey`)
  under a lock for each call, which draws what a fresh generator would.
  A simulation run reads up to three such streams.  ``DOMAIN_FIRST_PICK``
  holds each requesting light's first pick of its reach, one word a light
  a round: the node it follows, which alone decides its nonce-matched
  links.  Only a run under collision-aware matching reads the other two:
  ``DOMAIN_REQUEST`` holds the rest of each round's queried sets, and
  ``DOMAIN_URTS`` each round's URTS (uniform random tip selection) draws,
  which pick the tips served and attached on.  That run alone compares
  served pairs with the parents of new ledger entries, so it alone keeps
  a ledger.

Because a key is a pure function of ``(root_seed, key path)``, results
never depend on scheduling or worker count: two runs with the same seed
produce bit-identical draws no matter how the work is split up.
"""

from __future__ import annotations

import hashlib
import random
import struct
import threading

import numpy as np

# Domain tags keep key paths from different subsystems disjoint.
DOMAIN_LAYOUT = 1      # node placement
DOMAIN_ADVERSARY = 2   # adversary subset draws
DOMAIN_REQUEST = 3     # a collision-aware run's queried positions after the first
DOMAIN_FIRST_PICK = 4  # a run's first picks: the node each requesting light follows
DOMAIN_URTS = 5        # a collision-aware run's URTS draws: responses' tip pairs
DOMAIN_EXPERIMENT = 6  # experiment-level draws (samples, subsets, ...)

_WORD = (1 << 64) - 1  # Philox keys and counters are 64-bit words, low word first
_PHILOX = np.random.Philox(0)  # seeded, so built without OS entropy; words() re-keys it
_PHILOX_LOCK = threading.Lock()  # a re-key and its draw are one step


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


def rekey(bit_generator: np.random.Philox, key: int, counter: int = 0) -> None:
    """Set ``bit_generator`` to the 128-bit ``key`` at the 256-bit
    ``counter`` with an empty buffer and no pending 32-bit half: it then
    draws exactly what ``np.random.Philox(key=key, counter=counter)`` draws."""
    bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": tuple(counter >> shift & _WORD for shift in range(0, 256, 64)),
        "key": (key & _WORD, key >> 64),
    }, "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def words(root_seed: int, domain: int, rounds: range, width: int) -> np.ndarray:
    """``width`` 64-bit words for each of the consecutive ``rounds``, as a
    ``(len(rounds), width)`` uint64 array, from the Philox stream keyed by
    ``(root_seed, domain)``.

    A counter block gives four words, and round ``r`` owns the
    ``S = ceil(width / 4)`` blocks from counter ``r * S`` on, so a round's
    row is the same whatever block of rounds it is drawn in.
    """
    per_round = -(-width // 4)
    with _PHILOX_LOCK:
        rekey(_PHILOX, _stream_key(root_seed, domain), rounds.start * per_round)
        raw = _PHILOX.random_raw(len(rounds) * per_round * 4)
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
