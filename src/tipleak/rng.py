"""Deterministic random-stream derivation.

All randomness flows from a single root seed.  Each consumer gets a key
derived by hashing the root seed together with an integer key path that
names the consumer, and draws from a stream keyed by it:

* :func:`substream` seeds a ``random.Random`` (Mersenne Twister).  Node
  placement, adversary choice and every experiment-level draw use it.
* :func:`round_generator` keys a counter-based Philox generator (Salmon et
  al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) for one
  simulator round; every light node's request, response and follow draws
  of that round come from it as arrays.  :func:`rekey` moves an existing
  Philox generator to the start of such a stream, which is several times
  cheaper than building one, so a simulation keeps one generator and
  re-keys it each round.  A generator's ``bit_generator.state`` is a full
  snapshot -- counter, key, buffered words and a buffered 32-bit half --
  so a stream set aside after a draw resumes exactly where it stopped.

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
DOMAIN_REQUEST = 3     # one round of requests, responses and follow choices
DOMAIN_LOCAL = 5       # one round of local tip selection (no request issued)
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


def round_generator(root_seed: int, domain: int, round_idx: int) -> np.random.Generator:
    """Philox generator keyed by ``(root_seed, domain, round_idx)``."""
    return np.random.Generator(
        np.random.Philox(key=_stream_key(root_seed, domain, round_idx))
    )


_WORD = (1 << 64) - 1


def rekey(
    gen: np.random.Generator, root_seed: int, domain: int, round_idx: int
) -> np.random.Generator:
    """Reset the Philox generator ``gen`` to the first draw of
    ``round_generator(root_seed, domain, round_idx)``; returns ``gen``."""
    key = _stream_key(root_seed, domain, round_idx)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        # Philox(key=k) stores k as little-endian 64-bit words, counter 0
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([key & _WORD, key >> 64], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # empty: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
