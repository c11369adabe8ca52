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
"""

from __future__ import annotations

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
        if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise BadArgs("a stored stream state only seeds PCG64")
        return self.state


def stream_from_state(state: np.ndarray) -> np.random.Generator:
    """Generator seeded with a derived 4-word state (a row of ``level_states``)."""
    return np.random.Generator(np.random.PCG64(_StoredState(state)))


def level_rng(seed: int, level: int) -> np.random.Generator:
    """Child generator for one sampling level of a run."""
    seed = check_seed(seed)
    if level < 0:
        raise BadArgs(f"level must be >= 0, got {level}")
    state = _derive(_int_words(seed) + _int_words(level), _STATE_WORDS)
    return stream_from_state(state)


def level_states(seeds: np.ndarray, levels: int) -> np.ndarray:
    """States of ``level_rng(seed, level)`` for every seed and level below ``levels``.

    ``seeds`` is a uint64 array; the result has shape ``(seeds.size, levels,
    4)``, and ``stream_from_state(result[i, level])`` draws exactly what
    ``level_rng(seeds[i], level)`` draws.
    """
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
    if block < 0 or index < 0:
        raise BadArgs("block and index must be >= 0")
    words = _int_words(master_seed) + _int_words(block) + _int_words(index)
    return _derive(words, 1)[0]


def replicate_seeds(master_seed: int, block: int, start: int, stop: int) -> np.ndarray:
    """``replicate_seed(master_seed, block, i)`` for i in [start, stop), as uint64."""
    master_seed = check_seed(master_seed)
    if block < 0 or not (0 <= start <= stop <= U64_MAX + 1):
        raise BadArgs("need block >= 0 and 0 <= start <= stop <= 2**64")
    index = np.arange(start, stop, dtype=np.uint64)
    words, present = _column_words([master_seed, int(block), index], index.size)
    return _derive(words, 1, present)[0]
