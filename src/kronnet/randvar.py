"""Exact-in-law random variate primitives used by the group sampler.

``binomial_draw`` counts the realized cells of an equal-probability group
and ``choose_without_replacement`` places that many uniformly; both take
their randomness from a caller-supplied generator, so the sampler decides
which stream each draw comes from.
"""

from __future__ import annotations

import math

import numpy as np

from .config import I64_MAX
from .errors import BadArgs, Overflow

# Below this expected count, sequential CDF inversion is both exact and fast;
# above it we delegate to numpy's exact accept/reject binomial sampler.
_INVERSION_MAX_MEAN = 30.0


def binomial_draw(trials: int, prob: float, rng: np.random.Generator) -> int:
    """Draw the number of successes in ``trials`` Bernoulli(prob) trials.

    Exact in law for every (trials, prob): sequential CDF inversion when the
    expected count is small, numpy's exact accept/reject sampler otherwise.
    No normal approximation is ever used.  Degenerate probabilities return
    without consuming randomness.

    Raises:
        BadArgs: trials < 0 or prob outside [0, 1].
        Overflow: trials exceeds the signed 64-bit range.
    """
    trials = int(trials)
    if trials < 0:
        raise BadArgs(f"trials must be >= 0, got {trials}")
    if trials > I64_MAX:
        raise Overflow(f"trials {trials} exceeds the signed 64-bit range")
    if not (0.0 <= prob <= 1.0):
        raise BadArgs(f"prob {prob!r} outside [0, 1]")
    if trials == 0 or prob == 0.0:
        return 0
    if prob == 1.0:
        return trials
    if prob > 0.5:
        return trials - binomial_draw(trials, 1.0 - prob, rng)
    if trials * prob <= _INVERSION_MAX_MEAN:
        return _inversion_draw(trials, prob, rng)
    return int(rng.binomial(trials, prob))


def _inversion_draw(trials: int, prob: float, rng: np.random.Generator) -> int:
    # Walk the CDF from k = 0 using the pmf ratio recurrence; consumes exactly
    # one uniform.  Requires prob <= 0.5 and trials*prob <= ~30 so the initial
    # pmf never underflows.
    u = rng.random()
    ratio = prob / (1.0 - prob)
    pmf = math.exp(trials * math.log1p(-prob))
    cdf = pmf
    k = 0
    while u >= cdf and k < trials:
        k += 1
        pmf *= (trials - k + 1) / k * ratio
        cdf += pmf
    return k


def choose_without_replacement(total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample ``count`` distinct indices from [0, total), sorted.

    One call to numpy's C sampler, ``rng.choice(total, count, replace=False,
    shuffle=False)``: Floyd's algorithm with a hash set, or a tail shuffle of
    ``arange(total)`` when ``total`` exceeds 10000 and ``count`` exceeds
    ``total // 20``.  Either way every size-``count`` subset is equally
    likely, and memory stays O(count): the shuffled range is at most 20
    times the count.  Returns an int64 array, sorted in place.

    Raises:
        BadArgs: count < 0 or count > total.
        Overflow: total exceeds the signed 64-bit range, the bound
            ``binomial_draw`` puts on the count's trials.
    """
    total = int(total)
    count = int(count)
    if total < 0 or count < 0 or count > total:
        raise BadArgs(f"need 0 <= count <= total, got count={count} total={total}")
    if total > I64_MAX:
        raise Overflow(f"total {total} exceeds the signed 64-bit range")
    picks = rng.choice(total, count, replace=False, shuffle=False)
    picks.sort()
    return picks
