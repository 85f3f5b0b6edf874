"""Random-stream tests: counter-indexed uniforms per run."""

import threading

import numpy as np
import pytest

from tipleak.experiments import exp_mixer, exp_variance
from tipleak.network import WORK_BOUND, SimConfig, run_simulation
from tipleak.rng import (
    DOMAIN_FIRST_PICK,
    DOMAIN_REQUEST,
    DOMAIN_URTS,
    _stream_key,
    rekey,
    to_uniforms,
    uniforms,
    words,
)

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


def _fresh_words(seed, domain, rounds, width):
    """``words`` as drawn from a Philox generator built for the call."""
    per_round = -(-width // 4)
    raw = np.random.Philox(key=_stream_key(seed, domain), counter=rounds.start * per_round
                           ).random_raw(len(rounds) * per_round * 4)
    return raw.reshape(len(rounds), 4 * per_round)[:, :width]


# interleaved seeds and domains; widths off and on a multiple of 4; rounds
# from 0 to the last one a run of WORK_BOUND rounds can draw
WORD_CALLS = [
    (1, DOMAIN_REQUEST, range(0, 3), 5),
    (-5, DOMAIN_URTS, range(7, 9), 4),
    (1, DOMAIN_FIRST_PICK, range(2, 6), 1),
    (2**63 - 1, DOMAIN_REQUEST, range(0, 3), 5),
    (1, DOMAIN_REQUEST, range(1, 2), 410),
    (-5, DOMAIN_URTS, range(WORK_BOUND - 1, WORK_BOUND), 7),
    (3, DOMAIN_FIRST_PICK, range(WORK_BOUND - 1, WORK_BOUND), 2 * 4096 + 3),
    (1, DOMAIN_REQUEST, range(0, 3), 5),
]


def test_kept_generator_draws_what_a_fresh_one_draws():
    for call in WORD_CALLS + WORD_CALLS[::-1]:
        got, want = words(*call), _fresh_words(*call)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), call
    # a counter past 64 bits, after draws that leave a buffer half read
    # and a 32-bit half pending
    gen = np.random.Generator(np.random.Philox(key=9))
    gen.random(3)
    gen.integers(0, 2**32, size=3, dtype=np.uint32)
    rekey(gen.bit_generator, 2**127 + 5, counter=2**200 + 2**64 + 3)
    fresh = np.random.Generator(np.random.Philox(key=2**127 + 5, counter=2**200 + 2**64 + 3))
    assert gen.bit_generator.random_raw(9).tolist() == fresh.bit_generator.random_raw(9).tolist()
    assert gen.random(5).tolist() == fresh.random(5).tolist()


def test_words_from_two_threads_draw_each_calls_own_stream():
    # each call re-keys the one kept generator and draws from it: two
    # threads calling at once must not draw under each other's key
    wrong = []

    def draw(seed, domain, width):
        for start in range(0, 2 * 200, 2):
            call = (seed, domain, range(start, start + 3), width)
            if words(*call).tolist() != _fresh_words(*call).tolist():
                wrong.append(call)

    threads = [threading.Thread(target=draw, args=args)
               for args in ((11, DOMAIN_REQUEST, 2000), (12, DOMAIN_URTS, 1999))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert wrong == []


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
