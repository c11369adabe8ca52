"""Deterministic derivation of random streams.

Every random draw in the package comes from a PCG64 generator whose seed is
derived here.  The derivation rules are part of the reproducibility contract:

* A sampler run with seed ``s`` consumes one child stream per level,
  ``level_rng(s, level)``, seeded as by ``SeedSequence([s, level])``.  Levels
  are therefore decoupled: two runs that agree on a level's stream agree on
  that level's draws no matter how other levels are processed.
* Replicated runs (verification, benchmarks) derive one 64-bit sampler seed
  per replicate with ``replicate_seed(master, block, index)``, as by
  ``SeedSequence([master, block, index])``; ``block`` namespaces independent
  experiment arms so equal-indexed replicates of different arms are still
  independent.

The derivation is numpy's ``SeedSequence`` algorithm (entropy mixing, then
``generate_state``) written once in 32-bit integer arithmetic that runs on
Python ints and on uint64 arrays alike, so one call can derive the streams of
a whole block of replicates (``replicate_seeds``, ``level_states``).  The
results equal numpy's bit for bit, so identical inputs give identical streams
on every platform numpy supports.  A generator is built from its derived
4-word PCG64 state (``stream_from_state``); its ``bit_generator.seed_seq`` is
that stored state, not a ``SeedSequence``, and cannot spawn.

Every sampler level reads its uniforms, whole or in pieces, through
``stream_uniforms``: one stream or long ones by numpy's generator moved
forward by ``bit_generator.advance``, several short ones (a stack of
verification replicates) with no generator per stream: PCG64 is a 128-bit
LCG, so k steps from a state are one multiply-add by precomputed constants
(O'Neill 2014; Brown 1994), computed on uint64 columns.  Both give
``Generator.random``'s doubles bit for bit, so numpy's PCG64 and
``random()`` are part of the contract.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .config import U64_MAX, check_int
from .errors import BadArgs

_M32 = 0xFFFFFFFF
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
# PCG64 takes its state as four 64-bit words.
_STATE_WORDS = 4
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# numpy's PCG64 multiplier: each draw steps its 128-bit state to
# state * _PCG_MULT + inc (mod 2**128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Several streams none of which is read past this many values are computed
# as uint64 columns, others by one numpy generator per stream.  On 1024
# equal streams (2 vCPUs, numpy 2.4) columns took 0.19-0.24x the generators'
# time at 16 values, 0.58-0.73x at 64 and 1.09-1.36x at 128; against 64, a
# limit of 128 ran K = 3 and 4 naive/ci/dcsd marginal_test 0.99/1.00/1.02x
# and 0.98/0.95/1.17x as long.
_COLUMN_VALUES = 64
# Values per tile of stream_uniforms' column arithmetic, which keeps its ~20
# uint64 temporaries in cache: on 1024 streams of 64 values (2 vCPUs, numpy
# 2.4), 2**13 took 2.1 ms against 3.0 ms untiled, and on a ragged level (mean
# 23, at most 64 values) 1.3 ms against 1.7 ms at 2**14.
_TILE_VALUES = 1 << 13


def _hash_consts(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The first ``count`` (xor, multiplier) pairs of a hash-constant sequence.

    The sequence does not depend on the data: each hash step XORs the
    current constant in, then multiplies by the next one.
    """
    pairs = []
    const = init
    for _ in range(count):
        nxt = (const * mult) & _M32
        pairs.append((const, nxt))
        const = nxt
    return tuple(pairs)


# Constants of the pool's hashing, which do not depend on the data: the
# first 4 hash the entropy words in, the next 12 cross-mix the pool (every
# word into every other one), and those after fold in words past the pool.
_HASH_IN = _hash_consts(_INIT_A, _MULT_A, _POOL)
_CROSS = tuple(
    (src, dst, a, b)
    for (src, dst), (a, b) in zip(
        ((s, d) for s in range(_POOL) for d in range(_POOL) if s != d),
        _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)[_POOL:],
    )
)
# Output constants for the 8 32-bit words of a 4-word PCG64 state.
_HASH_OUT = _hash_consts(_INIT_B, _MULT_B, 2 * _STATE_WORDS)


def _derive(words, n_out: int, present=None) -> list:
    """``SeedSequence`` state words for the entropy ``words``.

    ``words`` are 32-bit entropy words, each a Python int or a uint64 column
    (one entry per entropy tuple).  Words past the pool of 4 are folded in
    only where ``present[k]`` (for the k-th of them) is true; with
    ``present`` None they are folded in everywhere.  Returns the first
    ``n_out`` (at most 4) 64-bit words of ``generate_state``, as ints or
    columns.

    hashmix(v) with constants (a, b) is v = ((v ^ a) * b) mod 2**32, then
    v ^= v >> 16; mix(x, y) is v = (MIX_L * x - MIX_R * y) mod 2**32, then
    v ^= v >> 16.  Both are written inline: a single derivation on Python
    ints is bound by interpreter overhead.
    """
    m32 = _M32
    n_words = len(words)
    pool = []
    for i, (a, b) in enumerate(_HASH_IN):
        v = (((words[i] if i < n_words else 0) ^ a) * b) & m32
        pool.append(v ^ (v >> 16))
    for src, dst, a, b in _CROSS:
        h = ((pool[src] ^ a) * b) & m32
        v = (_MIX_L * pool[dst] - _MIX_R * (h ^ (h >> 16))) & m32
        pool[dst] = v ^ (v >> 16)
    if n_words > _POOL:
        consts = iter(_hash_consts(_INIT_A, _MULT_A, _POOL * n_words)[_POOL * _POOL :])
        for k, word in enumerate(words[_POOL:]):
            for dst in range(_POOL):
                a, b = next(consts)
                h = ((word ^ a) * b) & m32
                v = (_MIX_L * pool[dst] - _MIX_R * (h ^ (h >> 16))) & m32
                v ^= v >> 16
                pool[dst] = v if present is None else np.where(present[k], v, pool[dst])
    # Output word i hashes pool word i % 4; little-endian pairs of 32-bit
    # words make the 64-bit words.
    out = []
    for i in range(n_out):
        (a, b), (c, d) = _HASH_OUT[2 * i], _HASH_OUT[2 * i + 1]
        lo = ((pool[(2 * i) & 3] ^ a) * b) & m32
        hi = ((pool[(2 * i + 1) & 3] ^ c) * d) & m32
        out.append((lo ^ (lo >> 16)) | ((hi ^ (hi >> 16)) << 32))
    return out


def _int_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; ``[0]`` for 0."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _column_words(items: list, size: int):
    """Entropy words of ``size`` tuples, laid out as ``SeedSequence`` reads them.

    Each item is a Python int shared by every tuple or a uint64 column; every
    value contributes its little-endian 32-bit words, so a tuple's words
    shift where a column value reaches 2**32.  Returns the word columns and,
    for each word past the pool, where it is present.
    """
    width = sum(len(_int_words(v)) if isinstance(v, int) else 2 for v in items)
    words = np.zeros((max(width, _POOL), size), dtype=np.uint64)
    at = np.arange(size)
    length = np.zeros(size, dtype=np.intp)
    for item in items:
        if isinstance(item, int):
            for word in _int_words(item):
                words[length, at] = word
                length += 1
        else:
            big = item > _M32
            words[length, at] = item & _M32
            words[length[big] + 1, at[big]] = item[big] >> 32
            length += 1 + big
    present = [length > k for k in range(_POOL, width)]
    return list(words), present


def check_seed(seed: int) -> int:
    """Validate a user-facing 64-bit seed and return it as a Python int."""
    seed = check_int(seed, "seed")
    if not (0 <= seed <= U64_MAX):
        raise BadArgs(f"seed {seed} outside the unsigned 64-bit range")
    return seed


class _StoredState(ISeedSequence):
    """A derived PCG64 state handed to ``PCG64`` in place of a ``SeedSequence``."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        # PCG64 reads the returned words straight from the array's buffer
        state = np.ascontiguousarray(state, dtype=np.uint64)
        if state.shape != (_STATE_WORDS,):
            raise BadArgs(f"a stream state has shape ({_STATE_WORDS},), got {state.shape}")
        self.state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the np.uint64 type itself; np.dtype() costs ~0.4 us
        if n_words != _STATE_WORDS or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise BadArgs("a stored stream state only seeds PCG64")
        return self.state


def stream_from_state(state: np.ndarray) -> np.random.Generator:
    """Generator seeded with a derived 4-word state (a row of ``level_states``)."""
    return np.random.Generator(np.random.PCG64(_StoredState(state)))


def _add128(ah, al, bh, bl):
    """(ah:al) + (bh:bl) mod 2**128 on uint64 words, as (hi, lo)."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _mul128(ah, al, bh, bl):
    """(ah:al) * (bh:bl) mod 2**128 on uint64 words, as (hi, lo).

    The high word of ``al * bl`` is summed from products of 32-bit halves,
    none of which overflows 64 bits.
    """
    a0, a1 = al & _M32, al >> 32
    b0, b1 = bl & _M32, bl >> 32
    mid = a1 * b0
    mid += (a0 * b0) >> 32
    low_mid = a0 * b1
    low_mid += mid & _M32
    hi = a1 * b1
    hi += mid >> 32
    hi += low_mid >> 32
    hi += al * bh
    hi += ah * bl
    return hi, al * bl


@functools.cache
def _jump_table(count: int) -> np.ndarray:
    """Words of ``A_k = M**k`` and ``S_k = M**0 + ... + M**(k-1)`` (mod 2**128)
    for k = 1..count, as a read-only ``(4, count)`` uint64 array of rows A hi,
    A lo, S hi, S lo: k PCG64 steps take a state x to ``A_k * x + S_k * inc``.
    """
    words = []
    a, s = _PCG_MULT, 1
    for _ in range(count):
        words += (a >> 64, a & _M64, s >> 64, s & _M64)
        a, s = (a * _PCG_MULT) & _M128, (s * _PCG_MULT + 1) & _M128
    table = np.array(words, dtype=np.uint64).reshape(count, 4).T.copy()
    table.flags.writeable = False
    return table


def _column_uniforms(states, sizes, starts, out: np.ndarray) -> None:
    """Write ``stream_uniforms(states, sizes, starts)`` into ``out`` by PCG64
    arithmetic: a (stream, k) grid for int ``sizes`` and ``starts``, else a gather.

    numpy's PCG64 takes ``initstate = w0:w1`` and ``inc = (w2:w3) << 1 | 1``
    from the 4 words, seeds ``s = (initstate + inc) * M + inc``, and draws
    value k (from 1) from ``x = A_k * s + S_k * inc``: ``rotr64(hi ^ lo, hi >>
    58)`` of x, whose top 53 bits make the double.
    """
    jumps = _jump_table(_COLUMN_VALUES)
    w0, w1, w2, w3 = states.T
    inc_h, inc_l = (w2 << 1) | (w3 >> 63), (w3 << 1) | 1
    seed_h, seed_l = _add128(
        *_mul128(*_add128(w0, w1, inc_h, inc_l), _PCG_MULT >> 64, _PCG_MULT & _M64), inc_h, inc_l
    )
    per_stream = (seed_h, seed_l, inc_h, inc_l)
    if isinstance(sizes, int):
        # gathering equal streams instead ran K = 3 naive/ci marginal_test
        # 2.2/1.8x as long
        a_h, a_l, s_h, s_l = jumps[:, starts : starts + sizes]
        seed_h, seed_l, inc_h, inc_l = (words[:, None] for words in per_stream)
    else:
        k = np.arange(out.size) - np.repeat(np.cumsum(sizes) - sizes - starts, sizes)
        a_h, a_l, s_h, s_l = jumps[:, k]
        seed_h, seed_l, inc_h, inc_l = (np.repeat(words, sizes) for words in per_stream)
    x_h, x_l = _mul128(a_h, a_l, seed_h, seed_l)
    c_h, c_l = _mul128(s_h, s_l, inc_h, inc_l)
    x_l += c_l
    x_h += c_h
    x_h += x_l < c_l
    v = x_h ^ x_l
    x_h >>= 58
    x_l = v >> x_h
    np.negative(x_h, out=x_h)
    x_h &= 63
    v <<= x_h
    v |= x_l
    v >>= 11
    np.multiply(v, 2.0**-53, out=out.reshape(v.shape))


def stream_uniforms(states: np.ndarray, sizes, starts) -> np.ndarray:
    """Values ``starts[r]`` to ``starts[r] + sizes[r]`` (exclusive) of each
    stream ``states[r]``, concatenated in stream order.

    ``states`` is a ``(streams, 4)`` uint64 array; ``sizes`` and ``starts``
    are ints shared by every stream, or int arrays of one entry per stream.
    Equal bit for bit to ``stream_from_state(states[r])`` moved forward by
    ``starts[r]`` values, then ``random(sizes[r])``, for each r in turn, so
    a stream read in consecutive pieces gives what one read gives.  Several
    streams, none read past value ``_COLUMN_VALUES``, are computed as uint64
    columns ``_TILE_VALUES`` or so values at a time; a stream on its own,
    and longer ones, by that generator.
    """
    count = len(states)
    shared = isinstance(sizes, int) and isinstance(starts, int)
    if not shared:
        sizes, starts = np.broadcast_to(sizes, count), np.broadcast_to(starts, count)
    if count <= 1 or np.max(sizes + starts) > _COLUMN_VALUES:
        # advance takes no numpy integer
        sizes, starts = ([sizes] * count, [starts] * count) if shared else (sizes.tolist(), starts.tolist())
        parts = []
        for r in range(count):
            stream = stream_from_state(states[r])
            if starts[r]:
                stream.bit_generator.advance(starts[r])
            parts.append(stream.random(sizes[r]))
        return parts[0] if count == 1 else np.concatenate([np.empty(0), *parts])
    bounds = np.arange(count + 1) * sizes if shared else np.concatenate(([0], np.cumsum(sizes)))
    # stream r's values are out[bounds[r]:bounds[r + 1]]
    out = np.empty(int(bounds[-1]))
    # tiles of whole streams, each starting at the stream that holds value
    # j * _TILE_VALUES
    tiles = np.searchsorted(bounds, np.arange(0, out.size, _TILE_VALUES), "right") - 1
    for lo, hi in zip(tiles.tolist(), [*tiles[1:].tolist(), count]):
        part = (sizes, starts) if shared else (sizes[lo:hi], starts[lo:hi])
        _column_uniforms(states[lo:hi], *part, out[bounds[lo] : bounds[hi]])
    return out


def level_rng(seed: int, level: int) -> np.random.Generator:
    """Child generator for one sampling level of a run."""
    seed = check_seed(seed)
    level = check_int(level, "level")
    if level < 0:
        raise BadArgs(f"level must be >= 0, got {level}")
    state = _derive(_int_words(seed) + _int_words(level), _STATE_WORDS)
    return stream_from_state(state)


def level_states(seeds, levels: int) -> np.ndarray:
    """States of ``level_rng(seed, level)`` for every seed and level below ``levels``.

    ``seeds`` is a uint64 array, or one checked seed as a Python int; the
    result has shape ``(seeds.size, levels, 4)``, and
    ``stream_from_state(result[i, level])`` draws exactly what
    ``level_rng(seeds[i], level)`` draws.
    """
    levels = check_int(levels, "levels")
    if levels < 0:
        raise BadArgs(f"levels must be >= 0, got {levels}")
    if isinstance(seeds, int):
        # on Python ints, as level_rng: ~10 us a level against ~200 us in columns
        words = _int_words(seeds)
        state = [_derive(words + _int_words(level), _STATE_WORDS) for level in range(levels)]
        return np.array([state], dtype=np.uint64).reshape(1, levels, _STATE_WORDS)
    seeds = np.asarray(seeds, dtype=np.uint64)
    words, present = _column_words(
        [np.repeat(seeds, levels), np.tile(np.arange(levels, dtype=np.uint64), seeds.size)],
        seeds.size * levels,
    )
    state = np.stack(_derive(words, _STATE_WORDS, present), axis=-1)
    return state.reshape(seeds.size, levels, _STATE_WORDS)


def replicate_seed(master_seed: int, block: int, index: int) -> int:
    """Sampler seed for replicate ``index`` of experiment arm ``block``."""
    master_seed = check_seed(master_seed)
    block = check_int(block, "block")
    index = check_int(index, "index")
    if block < 0 or index < 0:
        raise BadArgs("block and index must be >= 0")
    words = _int_words(master_seed) + _int_words(block) + _int_words(index)
    return _derive(words, 1)[0]


def replicate_seeds(master_seed: int, block: int, start: int, stop: int) -> np.ndarray:
    """``replicate_seed(master_seed, block, i)`` for i in [start, stop), as uint64."""
    master_seed = check_seed(master_seed)
    block = check_int(block, "block")
    start = check_int(start, "start")
    stop = check_int(stop, "stop")
    if block < 0 or not (0 <= start <= stop <= U64_MAX + 1):
        raise BadArgs("need block >= 0 and 0 <= start <= stop <= 2**64")
    index = np.arange(start, stop, dtype=np.uint64)
    words, present = _column_words([master_seed, block, index], index.size)
    return _derive(words, 1, present)[0]
