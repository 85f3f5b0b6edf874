"""Random-stream tests: counter-indexed uniforms per run."""

import numpy as np
import pytest

from tipleak.experiments import exp_mixer, exp_variance
from tipleak.network import SimConfig, run_simulation
from tipleak.rng import DOMAIN_REQUEST, DOMAIN_URTS, _stream_key, to_uniforms, uniforms, words

LARGEST = float((2**64 - 1) >> 11) * 2.0**-53  # the uniform of the largest word


def test_uniforms_are_top_53_bits_of_the_rounds_philox_words():
    # numpy's Generator.random is the same top-53-bits map of the same words
    for seed, domain, round_idx, width in [(1, DOMAIN_REQUEST, 0, 7), (-5, DOMAIN_URTS, 2**40, 4),
                                           (2**63 - 1, DOMAIN_REQUEST, 999, 410)]:
        per_round = -(-width // 4)
        gen = np.random.Generator(np.random.Philox(
            key=_stream_key(seed, domain), counter=round_idx * per_round))
        (row,) = uniforms(seed, domain, range(round_idx, round_idx + 1), width)
        assert row.tolist() == gen.random(width).tolist()


@pytest.mark.parametrize("width", [1, 4, 5, 300, 301])
def test_block_rows_equal_each_rounds_own_call(width):
    for start in (0, 1, 6, 2**40):
        block = uniforms(3, DOMAIN_REQUEST, range(start, start + 9), width)
        assert block.shape == (9, width)
        for i, row in enumerate(block):
            own = uniforms(3, DOMAIN_REQUEST, range(start + i, start + i + 1), width)
            assert row.tolist() == own[0].tolist()
        assert (0 <= block).all() and (block < 1).all()
        assert (block * 2.0**53 == np.floor(block * 2.0**53)).all()
    # domains and seeds key unrelated streams
    first = uniforms(3, DOMAIN_REQUEST, range(1), width).tolist()
    assert uniforms(3, DOMAIN_URTS, range(1), width).tolist() != first
    assert uniforms(4, DOMAIN_REQUEST, range(1), width).tolist() != first


def test_any_columns_convert_as_in_the_whole_block():
    # a caller converts only the columns it reads, to the same floats
    raw = words(3, DOMAIN_REQUEST, range(4, 11), 301)
    assert raw.dtype == np.uint64
    whole = uniforms(3, DOMAIN_REQUEST, range(4, 11), 301)
    for cols in (slice(None), slice(0, 1), slice(17, 217), slice(300, None), slice(1, None, 3)):
        assert to_uniforms(raw[:, cols]).tolist() == whole[:, cols].tolist()
    assert to_uniforms(raw[2]).tolist() == whole[2].tolist()


def test_rounds_without_words_are_empty():
    assert uniforms(3, DOMAIN_REQUEST, range(5, 9), 0).shape == (4, 0)


def test_largest_word_maps_below_k():
    ks = sorted({k for e in range(41) for k in (2**e - 1, 2**e, 2**e + 1) if k >= 1})
    mapped = (LARGEST * np.array(ks, dtype=float)).astype(np.int64)
    assert mapped.tolist() == [k - 1 for k in ks]


@pytest.mark.parametrize("call, seed", [
    (lambda seed: run_simulation(SimConfig(seed=seed)), 2**63),
    (lambda seed: exp_mixer(seed=seed), 2**63),
    (lambda seed: exp_variance(runs=3, seed=seed), -2**63 - 1),
    (lambda seed: exp_mixer(seed=seed), 1.5),
], ids=["run_simulation", "exp_mixer", "exp_variance", "float"])
def test_out_of_range_seed_is_a_one_line_value_error(call, seed):
    # stream keys pack the seed in 64 bits; a seed past them names itself
    with pytest.raises(ValueError, match=f"^seed must be a signed 64-bit integer, got {seed}$"):
        call(seed)
