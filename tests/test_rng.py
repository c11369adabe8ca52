import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronnet.rng as rng_mod
from kronnet import BadArgs, level_rng, replicate_seed
from kronnet.rng import level_states, replicate_seeds, stream_from_state, stream_uniforms


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


def test_level_states_of_one_int_seed_match_the_columns():
    # run derives its states on Python ints; verify derives columns
    for seed in EDGE_SEEDS + tuple(_random_seeds(20)):
        state = level_states(int(seed), 5)
        assert state.shape == (1, 5, 4) and state.dtype == np.uint64
        np.testing.assert_array_equal(state, level_states(np.array([seed], dtype=np.uint64), 5))
        for level in range(5):
            np.testing.assert_array_equal(state[0, level], _numpy_level_state(seed, level))
    assert level_states(3, 0).shape == (1, 0, 4)


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


# -- replicate streams computed by PCG64 arithmetic --------------------------------

PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
M128 = (1 << 128) - 1
M64 = (1 << 64) - 1


def _pcg64_reference(words, n):
    """The first ``n`` doubles of PCG64 seeded with 4 state words, and each
    one's output rotation, stepped one value at a time on Python ints."""
    initstate = (int(words[0]) << 64) | int(words[1])
    inc = (((int(words[2]) << 64) | int(words[3])) << 1 | 1) & M128
    state = ((initstate + inc) * PCG_MULT + inc) & M128
    doubles, rotations = [], []
    for _ in range(n):
        state = (state * PCG_MULT + inc) & M128
        hi, lo = state >> 64, state & M64
        rot = hi >> 58
        value = hi ^ lo
        out = ((value >> rot) | (value << (64 - rot))) & M64
        doubles.append((out >> 11) * 2.0**-53)
        rotations.append(rot)
    return np.array(doubles), rotations


def _numpy_uniforms(states, sizes):
    return np.concatenate(
        [stream_from_state(state).random(size) for state, size in zip(states, sizes)] + [np.empty(0)]
    )


def _assert_stream_uniforms(states, sizes):
    states = np.asarray(states, dtype=np.uint64).reshape(-1, 4)
    sizes = np.asarray(sizes, dtype=np.intp)
    got = stream_uniforms(states, sizes, 0)
    # numpy's own PCG64 and Generator.random are the oracle; a numpy release
    # that changes either fails here with its version named
    np.testing.assert_array_equal(
        got, _numpy_uniforms(states, sizes), err_msg=f"numpy {np.__version__}"
    )
    return got


def test_stream_uniforms_match_seed_sequence_streams():
    for seed in EDGE_SEEDS + tuple(_random_seeds(10)):
        states = level_states(np.array([seed], dtype=np.uint64), 4)[0]
        for n in (0, 1, 16, 38, 64, 65, 1000):
            got = stream_uniforms(states, np.full(4, n), 0)
            expected = np.concatenate(
                [
                    np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, lam]))).random(n)
                    for lam in range(4)
                ]
            )
            np.testing.assert_array_equal(got, expected, err_msg=f"numpy {np.__version__}")


CARRY_STATES = [
    [0, 0, 0, 0],
    [M64, M64, M64, M64],
    # initstate + inc carries out of the low word, and out of the high one
    [0, M64, 0, 1],
    [M64, M64, 0, 0],
    [M64, M64 - 1, M64, M64],
    [1 << 63, M64, 1 << 63, 1 << 63],
    [0, 1 << 63, 0, 1 << 62],
]


def test_stream_uniforms_carry_and_extreme_words():
    # several streams, so the column arithmetic computes them
    got = _assert_stream_uniforms(CARRY_STATES, [64] * len(CARRY_STATES))
    expected = np.concatenate([_pcg64_reference(words, 64)[0] for words in CARRY_STATES])
    np.testing.assert_array_equal(got, expected)


def test_stream_uniforms_hit_every_output_rotation():
    states = np.random.default_rng(20261019).integers(0, 2**64, (40, 4), dtype=np.uint64)
    rotations = set()
    expected = []
    for words in states:
        doubles, rots = _pcg64_reference(words, 48)
        rotations.update(rots)
        expected.append(doubles)
    assert rotations == set(range(64))
    np.testing.assert_array_equal(stream_uniforms(states, 48, 0), np.concatenate(expected))
    _assert_stream_uniforms(states, [48] * len(states))


@pytest.mark.parametrize("width", [63, 64, 65, 1000])
def test_stream_uniforms_around_table_sizes(width):
    # streams under, at and past a 64-entry jump table; 300 streams span tiles
    states = level_states(replicate_seeds(3, 1, 0, 300), 2)[:, 1]
    _assert_stream_uniforms(states, [width] * 300)


@pytest.mark.parametrize("size", [0, 1])
def test_stream_uniforms_tiny_sizes(size):
    states = level_states(replicate_seeds(3, 1, 0, 50), 1)[:, 0]
    assert _assert_stream_uniforms(states, [size] * 50).size == 50 * size
    assert stream_uniforms(np.empty((0, 4), dtype=np.uint64), np.empty(0, dtype=np.intp), 0).size == 0


@pytest.mark.parametrize("tile", [1, 7, 64, 1 << 13])
def test_stream_uniforms_ragged_sizes_across_tiles(monkeypatch, tile):
    monkeypatch.setattr(rng_mod, "_TILE_VALUES", tile)
    gen = np.random.default_rng(tile)
    states = level_states(replicate_seeds(9, 2, 0, 500), 1)[:, 0]
    for high in (2, 17, 65, 300):
        sizes = gen.integers(0, high, 500)
        sizes[gen.random(500) < 0.3] = 0
        sizes[[0, -1]] = 0
        _assert_stream_uniforms(states, sizes)


def _refuse_generators(monkeypatch):
    def refuse(state):
        raise AssertionError("stream_uniforms built a generator")

    monkeypatch.setattr(rng_mod, "stream_from_state", refuse)


def test_stream_uniforms_build_no_generator(monkeypatch):
    # several streams read up to value _COLUMN_VALUES at most: uint64 columns
    states = level_states(replicate_seeds(4, 1, 0, 8), 1)[:, 0]
    sizes = np.array([0, 3, 64, 17, 63, 1, 0, 40])
    starts = np.array([5, 0, 0, 47, 1, 63, 64, 24])
    expected = _numpy_pieces(states, sizes, starts)
    _refuse_generators(monkeypatch)
    np.testing.assert_array_equal(stream_uniforms(states, sizes, 0), _numpy_uniforms(states, sizes))
    np.testing.assert_array_equal(stream_uniforms(states, sizes, starts), expected)
    np.testing.assert_array_equal(
        stream_uniforms(states, 16, 48), _numpy_pieces(states, np.full(8, 16), np.full(8, 48))
    )


def test_stream_uniforms_long_or_single_streams_use_generators(monkeypatch):
    states = level_states(replicate_seeds(4, 1, 0, 8), 1)[:, 0]
    _refuse_generators(monkeypatch)
    for sizes, starts in ((65, 0), (64, 1), (np.array([0, 1, 2, 3, 4, 5, 6, 65]), 0)):
        with pytest.raises(AssertionError, match="built a generator"):
            stream_uniforms(states, sizes, starts)
    with pytest.raises(AssertionError, match="built a generator"):
        stream_uniforms(states[:1], 4, 0)


def _numpy_pieces(states, sizes, starts):
    """Values starts[r] .. starts[r] + sizes[r] of each stream, from numpy's generators."""
    return np.concatenate(
        [
            stream_from_state(state).random(start + size)[start:]
            for state, size, start in zip(states, sizes, starts)
        ]
        + [np.empty(0)]
    )


def _pieces_of(gen, n, cuts):
    """Cut points splitting [0, n) into ``cuts`` + 1 ascending pieces."""
    return np.concatenate(([0], np.sort(gen.integers(0, n + 1, cuts)), [n]))


@pytest.mark.parametrize("tile", [5, 1 << 13])
@pytest.mark.parametrize("streams", [1, 9, 300])
@pytest.mark.parametrize("n", [40, 64, 200])
def test_stream_uniforms_pieces_equal_one_draw(monkeypatch, tile, streams, n):
    # any split of a level into consecutive pieces, per stream or shared by
    # every stream, reads what one draw of n values reads
    monkeypatch.setattr(rng_mod, "_TILE_VALUES", tile)
    gen = np.random.default_rng([tile, streams, n])
    states = level_states(replicate_seeds(8, 2, 0, streams), 2)[:, 1]
    whole = _numpy_uniforms(states, [n] * streams).reshape(streams, n)
    # pieces that differ per stream: stream r's k-th piece is cuts[r, k]..cuts[r, k + 1]
    cuts = np.array([_pieces_of(gen, n, 4) for _ in range(streams)])
    got = [
        stream_uniforms(states, cuts[:, k + 1] - cuts[:, k], cuts[:, k]).tolist()
        for k in range(cuts.shape[1] - 1)
    ]
    for r in range(streams):
        pieces = []
        for k, part in enumerate(got):
            size = cuts[: r + 1, k + 1] - cuts[: r + 1, k]
            pieces += part[int(size[:-1].sum()) : int(size.sum())]
        np.testing.assert_array_equal(pieces, whole[r], err_msg=f"numpy {np.__version__}")
    # pieces shared by every stream
    shared = _pieces_of(gen, n, 5)
    parts = [
        stream_uniforms(states, int(hi - lo), int(lo)).reshape(streams, -1)
        for lo, hi in zip(shared[:-1], shared[1:])
    ]
    np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)


@settings(max_examples=60, deadline=None)
@given(
    streams=st.lists(
        st.tuples(
            st.lists(st.integers(0, M64), min_size=4, max_size=4),
            st.integers(0, 200),
            st.integers(0, 60),
        ),
        max_size=12,
    ),
    tile=st.integers(1, 200),
)
def test_stream_uniforms_equal_numpy_property(streams, tile):
    # column limit raised so that the columns compute streams of every size
    saved = rng_mod._TILE_VALUES, rng_mod._COLUMN_VALUES
    rng_mod._TILE_VALUES, rng_mod._COLUMN_VALUES = tile, 260
    try:
        states = np.array([words for words, _, _ in streams], dtype=np.uint64).reshape(-1, 4)
        sizes = np.array([size for _, size, _ in streams], dtype=np.intp)
        starts = np.array([start for _, _, start in streams], dtype=np.intp)
        np.testing.assert_array_equal(
            stream_uniforms(states, sizes, starts),
            _numpy_pieces(states, sizes, starts),
            err_msg=f"numpy {np.__version__}",
        )
    finally:
        rng_mod._TILE_VALUES, rng_mod._COLUMN_VALUES = saved
