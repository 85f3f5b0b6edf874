"""Random-stream tests: re-keyed generators and state snapshots."""

import numpy as np
import pytest

from tipleak.rng import DOMAIN_LOCAL, DOMAIN_REQUEST, rekey, round_generator


def _draws(gen):
    """A mix of the draws a simulator round makes, and a few others."""
    return [
        gen.integers(0, np.array([7, 6, 5])).tolist(),
        gen.integers(0, 1000, 5).tolist(),
        gen.integers(0, 2**62),
        gen.random(3).tolist(),
    ]


def test_rekey_draws_the_round_generator_stream():
    gen = round_generator(0, 0, 0)
    gen.integers(0, np.array([3, 4, 5]))  # leave a buffered half word behind
    assert gen.bit_generator.state["has_uint32"] == 1
    for key in [(1, DOMAIN_REQUEST, 0), (1, DOMAIN_REQUEST, 1), (2**63 - 1, DOMAIN_LOCAL, 999),
                (-5, DOMAIN_REQUEST, 2**40), (42, DOMAIN_REQUEST, 7)]:
        assert rekey(gen, *key) is gen
        assert _draws(gen) == _draws(round_generator(*key))


@pytest.mark.parametrize("length", [1, 4, 5, 300, 301])
def test_restored_snapshot_continues_the_stream_on_another_generator(length):
    bounds = np.arange(2, length + 2)
    gen = round_generator(3, DOMAIN_REQUEST, length)
    gen.integers(0, bounds)
    snapshot = gen.bit_generator.state
    # each bound fits 32 bits, so an odd count leaves half a word buffered
    assert snapshot["has_uint32"] == length % 2
    want = _draws(gen)
    other = np.random.Generator(np.random.Philox(key=0))
    other.bit_generator.state = snapshot
    assert _draws(other) == want
    # the snapshot is a copy: later draws left it alone
    other.bit_generator.state = snapshot
    assert _draws(other) == want
