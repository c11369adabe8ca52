import numpy as np
import pytest

from kronnet import BadArgs, level_rng, replicate_seed
from kronnet.rng import level_states, replicate_seeds, stream_from_state


def test_level_rng_deterministic():
    a = level_rng(42, 0).random(8)
    b = level_rng(42, 0).random(8)
    np.testing.assert_array_equal(a, b)


def test_level_rng_streams_differ_by_level_and_seed():
    base = level_rng(42, 0).random(8)
    assert not np.array_equal(base, level_rng(42, 1).random(8))
    assert not np.array_equal(base, level_rng(43, 0).random(8))


def test_level_rng_chunked_draws_match_bulk():
    # the streamed level-0 path relies on chunked draws equaling one bulk draw
    bulk = level_rng(7, 0).random(100)
    gen = level_rng(7, 0)
    chunks = np.concatenate([gen.random(30), gen.random(30), gen.random(40)])
    np.testing.assert_array_equal(bulk, chunks)


def test_level_rng_scalar_draws_match_array():
    # ancestral sampling draws per node; sweep sampling draws arrays
    gen = level_rng(3, 1)
    array = level_rng(3, 1).random(16)
    scalars = np.array([gen.random() for _ in range(16)])
    np.testing.assert_array_equal(array, scalars)


def test_replicate_seed_deterministic_and_distinct():
    seeds = {replicate_seed(5, 2, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert replicate_seed(5, 2, 17) == replicate_seed(5, 2, 17)
    assert replicate_seed(5, 2, 17) != replicate_seed(5, 3, 17)
    assert replicate_seed(6, 2, 17) != replicate_seed(5, 2, 17)


def test_seed_validation():
    with pytest.raises(BadArgs):
        level_rng(-1, 0)
    with pytest.raises(BadArgs):
        level_rng(2**64, 0)
    # the top of the u64 range is legal
    level_rng(2**64 - 1, 0).random()


# -- the derivation equals numpy's SeedSequence ---------------------------------

EDGE_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _random_seeds(count):
    return [int(v) for v in np.random.default_rng(20261018).integers(0, 2**64, count, dtype=np.uint64)]


def _numpy_level_state(seed, level):
    return np.random.SeedSequence([seed, level]).generate_state(4, np.uint64)


def _numpy_replicate_seed(master, block, index):
    return int(np.random.SeedSequence([master, block, index]).generate_state(1, np.uint64)[0])


def test_level_states_match_seed_sequence():
    seeds = list(EDGE_SEEDS) + _random_seeds(200)
    states = level_states(np.array(seeds, dtype=np.uint64), 64)
    assert states.shape == (len(seeds), 64, 4) and states.dtype == np.uint64
    for i, seed in enumerate(seeds):
        for level in range(64):
            np.testing.assert_array_equal(states[i, level], _numpy_level_state(seed, level))


def test_level_rng_state_matches_seed_sequence():
    for seed in EDGE_SEEDS + tuple(_random_seeds(20)):
        for level in (0, 1, 2, 31, 63):
            ours = level_rng(seed, level).bit_generator.state["state"]
            ref = np.random.PCG64(np.random.SeedSequence([seed, level])).state["state"]
            assert ours == ref


def test_replicate_seeds_match_seed_sequence_beyond_the_pool():
    # A 64-bit master, a block of 2**64 or more and an index of 2**32 or more
    # give entropy longer than the 4-word pool.
    for master in (0, 5, 2**32 - 1, 2**32, 2**64 - 1):
        for block in (0, 3, 2**32, 2**64, 2**70):
            for start in (0, 2**32 - 8, 2**64 - 16):
                bulk = replicate_seeds(master, block, start, start + 16)
                assert bulk.dtype == np.uint64
                expected = [_numpy_replicate_seed(master, block, i) for i in range(start, start + 16)]
                assert [int(v) for v in bulk] == expected
                assert [replicate_seed(master, block, i) for i in range(start, start + 16)] == expected
            # the scalar form takes indices past the 64-bit range too
            assert replicate_seed(master, block, 2**100) == _numpy_replicate_seed(master, block, 2**100)


def test_replicate_seeds_match_scalar_on_random_masters():
    for master in _random_seeds(50):
        bulk = replicate_seeds(master, 4, 0, 40)
        assert [int(v) for v in bulk] == [_numpy_replicate_seed(master, 4, i) for i in range(40)]


def test_stream_from_state_draws_like_seed_sequence():
    for seed in EDGE_SEEDS:
        states = level_states(np.array([seed], dtype=np.uint64), 3)
        for level in range(3):
            for draws in (
                lambda g: g.random(50),
                lambda g: g.binomial(1000, 0.3, 20),
                lambda g: g.choice(10**6, 500, replace=False, shuffle=False),
                lambda g: g.choice(20000, 5000, replace=False, shuffle=False),
            ):
                expected = draws(
                    np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, level])))
                )
                np.testing.assert_array_equal(draws(stream_from_state(states[0, level])), expected)
                np.testing.assert_array_equal(draws(level_rng(seed, level)), expected)


def test_stream_from_state_copies_strided_and_typed_states():
    # PCG64 reads the state words from the array's buffer, so a strided view
    # or a non-uint64 row must be made contiguous uint64 first
    states = level_states(np.array([11, 12], dtype=np.uint64), 2)
    expected = stream_from_state(states[1, 0].copy()).random(20)
    column = np.ascontiguousarray(states[:, 0, :].T)[:, 1]  # stride of 2 words
    assert not column.flags.c_contiguous
    np.testing.assert_array_equal(stream_from_state(column).random(20), expected)
    as_objects = np.array([int(word) for word in states[1, 0]], dtype=object)
    np.testing.assert_array_equal(stream_from_state(as_objects).random(20), expected)
    for bad in (states[0], states[0, 0, :3]):
        with pytest.raises(BadArgs):
            stream_from_state(bad)


def test_level_rng_seed_seq_is_not_spawnable():
    seed_seq = level_rng(7, 0).bit_generator.seed_seq
    assert not isinstance(seed_seq, np.random.SeedSequence)
    with pytest.raises(BadArgs):
        seed_seq.generate_state(1)


def test_replicate_seeds_validation():
    with pytest.raises(BadArgs):
        replicate_seeds(-1, 0, 0, 1)
    with pytest.raises(BadArgs):
        replicate_seeds(0, -1, 0, 1)
    with pytest.raises(BadArgs):
        replicate_seeds(0, 0, 5, 4)
    with pytest.raises(BadArgs):
        replicate_seeds(0, 0, 0, 2**64 + 1)
    assert replicate_seeds(0, 0, 3, 3).size == 0
    assert replicate_seeds(0, 0, 2**64, 2**64).size == 0


INT_ARGS = {
    "level_rng level": lambda v: level_rng(5, v),
    "replicate_seed block": lambda v: replicate_seed(5, v, 0),
    "replicate_seed index": lambda v: replicate_seed(5, 1, v),
    "replicate_seeds block": lambda v: replicate_seeds(5, v, 0, 3),
    "replicate_seeds start": lambda v: replicate_seeds(5, 1, v, 3),
    "replicate_seeds stop": lambda v: replicate_seeds(5, 1, 0, v),
    "level_states levels": lambda v: level_states([1, 2], v),
}


@pytest.mark.parametrize("value", [1.5, 2.0, "2", True, None], ids=repr)
@pytest.mark.parametrize("call", sorted(INT_ARGS))
def test_integer_arguments_reject_bool_float_and_str(call, value):
    with pytest.raises(BadArgs, match="must be an integer"):
        INT_ARGS[call](value)


def test_integer_arguments_accept_numpy_integers():
    np.testing.assert_array_equal(
        level_rng(5, np.int64(1)).random(4), level_rng(5, 1).random(4)
    )
    assert replicate_seed(5, np.uint8(1), np.int32(2)) == replicate_seed(5, 1, 2)
    np.testing.assert_array_equal(
        replicate_seeds(5, np.int16(1), np.uint64(0), np.int64(3)), replicate_seeds(5, 1, 0, 3)
    )
    np.testing.assert_array_equal(level_states([1, 2], np.int8(2)), level_states([1, 2], 2))
    with pytest.raises(BadArgs):
        level_states([1, 2], -1)
