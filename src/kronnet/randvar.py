"""Exact-in-law random variate primitives used by the group sampler.

``binomial_draw`` counts the realized cells of an equal-probability group
and ``choose_without_replacement`` places that many uniformly; both take
their randomness from a caller-supplied generator, so the sampler decides
which stream each draw comes from.  Each is one call into numpy's C
samplers, ``Generator.binomial`` and ``Generator.choice``, whose draws are
part of the seed contract at every size, as PCG64's are.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .config import I64_MAX, check_int
from .errors import BadArgs, Overflow


def binomial_draw(trials: int, prob: float, rng: np.random.Generator) -> int:
    """Draw the number of successes in ``trials`` Bernoulli(prob) trials.

    One call to numpy's ``rng.binomial``, exact in law at every (trials,
    prob): CDF inversion on the smaller tail (prob or 1 - prob) while its
    mean is at most 30, the BTPE accept/reject sampler above
    (Kachitvichyanukul & Schmeiser, CACM 1988); no normal approximation is
    ever used.  Trials 0 and probabilities 0 and 1 return without consuming
    randomness.

    Raises:
        BadArgs: trials is not an integer or is < 0, or prob is not a real
            number in [0, 1].
        Overflow: trials exceeds the signed 64-bit range and prob is not 0.
    """
    trials = check_int(trials, "trials")
    if trials < 0:
        raise BadArgs(f"trials must be >= 0, got {trials}")
    if isinstance(prob, bool) or not isinstance(prob, Real) or not 0.0 <= prob <= 1.0:
        raise BadArgs(f"prob must be a real number in [0, 1], got {prob!r}")
    if trials == 0 or prob == 0.0:
        return 0
    if trials > I64_MAX:
        raise Overflow(f"trials {trials} exceeds the signed 64-bit range")
    if prob == 1.0:
        return trials
    return int(rng.binomial(trials, prob))


def choose_without_replacement(total: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly sample ``count`` distinct indices from [0, total), sorted.

    One call to numpy's C sampler, ``rng.choice(total, count, replace=False,
    shuffle=False)``: Floyd's algorithm with a hash set, or a tail shuffle of
    ``arange(total)`` when ``total`` exceeds 10000 and ``count`` exceeds
    ``total // 20``.  Either way every size-``count`` subset is equally
    likely, and memory stays O(count): the shuffled range is at most 20
    times the count.  Returns an int64 array, sorted in place.

    Raises:
        BadArgs: total or count is not an integer, or count < 0 or
            count > total.
        Overflow: total exceeds the signed 64-bit range, the bound
            ``binomial_draw`` puts on the count's trials.
    """
    total = check_int(total, "total")
    count = check_int(count, "count")
    if total < 0 or count < 0 or count > total:
        raise BadArgs(f"need 0 <= count <= total, got count={count} total={total}")
    if total > I64_MAX:
        raise Overflow(f"total {total} exceeds the signed 64-bit range")
    picks = rng.choice(total, count, replace=False, shuffle=False)
    picks.sort()
    return picks
