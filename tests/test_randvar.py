import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2

from kronnet import BadArgs, Overflow, binomial_draw, choose_without_replacement


def _rng(seed=0):
    return np.random.default_rng(seed)


def chisquare_vs_binom(draws, trials, prob, min_expected=10.0):
    """Chi-square statistic of draws against the exact binomial pmf.

    Bins with expected count under ``min_expected`` merge into their
    neighbour toward the mode.
    """
    n = len(draws)
    expected = binom.pmf(np.arange(trials + 1), trials, prob) * n
    observed = np.bincount(draws, minlength=trials + 1).astype(float)
    # merge sparse tails inward
    exp_bins, obs_bins = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= min_expected:
            exp_bins.append(acc_e)
            obs_bins.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e or acc_o:
        exp_bins[-1] += acc_e
        obs_bins[-1] += acc_o
    exp_arr = np.array(exp_bins)
    obs_arr = np.array(obs_bins)
    stat = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = len(exp_bins) - 1
    return stat, float(chi2.sf(stat, dof))


def test_inversion_path_matches_exact_pmf():
    # trials * prob = 6 <= 30 keeps this on numpy's inversion path
    rng = _rng(1234)
    draws = [binomial_draw(20, 0.3, rng) for _ in range(100_000)]
    _, pvalue = chisquare_vs_binom(draws, 20, 0.3)
    assert pvalue > 1e-3


def test_complement_path_matches_exact_pmf():
    # prob > 0.5 draws the complement's count (numpy flips to 1 - prob)
    rng = _rng(99)
    draws = [binomial_draw(40, 0.9, rng) for _ in range(100_000)]
    _, pvalue = chisquare_vs_binom(draws, 40, 0.9)
    assert pvalue > 1e-3


def test_delegated_path_moments():
    # trials * prob = 4000 > 30 takes numpy's BTPE accept/reject path
    rng = _rng(7)
    trials, prob = 10_000, 0.4
    n = 20_000
    draws = np.array([binomial_draw(trials, prob, rng) for _ in range(n)], dtype=float)
    mean = trials * prob
    sd = math.sqrt(trials * prob * (1 - prob))
    assert abs(draws.mean() - mean) < 5 * sd / math.sqrt(n)
    assert abs(draws.std(ddof=1) - sd) < 0.05 * sd


def test_degenerate_probs_consume_no_randomness():
    rng_a = _rng(5)
    rng_b = _rng(5)
    assert binomial_draw(1000, 0.0, rng_a) == 0
    assert binomial_draw(1000, 1.0, rng_a) == 1000
    assert binomial_draw(0, 0.7, rng_a) == 0
    assert binomial_draw(2**64, 0.0, rng_a) == 0
    # rng_a state untouched: next draws equal a fresh generator's
    assert rng_a.random() == rng_b.random()


def test_binomial_draw_validation():
    rng = _rng(0)
    with pytest.raises(BadArgs):
        binomial_draw(-1, 0.5, rng)
    with pytest.raises(BadArgs):
        binomial_draw(10, 1.5, rng)
    with pytest.raises(BadArgs):
        binomial_draw(10, float("nan"), rng)
    with pytest.raises(BadArgs):
        binomial_draw(10, "0.5", rng)
    with pytest.raises(BadArgs):
        binomial_draw(10, True, rng)
    with pytest.raises(Overflow):
        binomial_draw(2**63, 0.5, rng)


def test_binomial_draw_huge_trials_tiny_prob():
    # huge trial counts stay exact as long as the mean is modest
    rng = _rng(3)
    trials = 2**62
    prob = 1e-18
    draws = [binomial_draw(trials, prob, rng) for _ in range(2000)]
    mean = trials * prob  # ~4.6
    assert 0 < np.mean(draws) < 3 * mean


@settings(max_examples=100, deadline=None)
@given(
    trials=st.integers(min_value=0, max_value=10_000),
    prob=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_binomial_draw_range(trials, prob, seed):
    value = binomial_draw(trials, prob, _rng(seed))
    assert 0 <= value <= trials


def test_floyd_uniform_over_subsets():
    # every 2-subset of 5 items should appear equally often
    rng = _rng(2024)
    total, count, reps = 5, 2, 60_000
    freq = Counter()
    for _ in range(reps):
        freq[tuple(choose_without_replacement(total, count, rng).tolist())] += 1
    subsets = list(combinations(range(total), count))
    assert sorted(freq) == sorted(subsets)
    expected = reps / len(subsets)
    stat = sum((freq[s] - expected) ** 2 / expected for s in subsets)
    assert chi2.sf(stat, len(subsets) - 1) > 1e-3


def test_floyd_per_item_inclusion_uniform():
    # each of 7 items appears in a 3-subset with probability 3/7
    rng = _rng(77)
    total, count, reps = 7, 3, 40_000
    hits = np.zeros(total)
    for _ in range(reps):
        for item in choose_without_replacement(total, count, rng):
            hits[item] += 1
    expected = reps * count / total
    z = (hits - expected) / math.sqrt(reps * (count / total) * (1 - count / total))
    assert np.abs(z).max() < 5.0


def test_floyd_per_item_inclusion_uniform_tail_shuffle():
    # total > 10000 and count > total // 20: numpy places by a tail shuffle
    # of the whole range rather than Floyd's algorithm; each item is still
    # included with probability count / total
    rng = _rng(31)
    total, count, reps = 12_000, 3_000, 400
    hits = np.zeros(total)
    for _ in range(reps):
        hits[choose_without_replacement(total, count, rng)] += 1
    p = count / total
    z = (hits - reps * p) / math.sqrt(reps * p * (1 - p))
    assert np.abs(z).max() < 5.5
    assert chi2.sf(float((z**2).sum()), total - 1) > 1e-3


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=200),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_floyd_output_contract(total, data, seed):
    count = data.draw(st.integers(min_value=0, max_value=total))
    picks = choose_without_replacement(total, count, _rng(seed))
    assert picks.dtype == np.int64
    picks = picks.tolist()
    assert len(picks) == count
    assert picks == sorted(picks)
    assert len(set(picks)) == count
    assert all(0 <= p < total for p in picks)


def _floyd_reference(total, count, rng):
    # Floyd's algorithm with one bounded draw per element
    chosen = set()
    for j in range(total - count, total):
        r = int(rng.integers(0, j, endpoint=True, dtype=np.uint64))
        chosen.add(j if r in chosen else r)
    return sorted(chosen)


@pytest.mark.parametrize(
    "total,count", [(1, 1), (7, 3), (10_000, 9_000), (200_000, 10_000), (2**63 - 1, 40)]
)
def test_placement_matches_floyd_reference(total, count):
    # where numpy's sampler runs Floyd's algorithm (total <= 10000 or
    # count <= total // 20) it makes the reference's draws one for one
    for seed in range(3):
        got = choose_without_replacement(total, count, _rng(seed)).tolist()
        assert got == _floyd_reference(total, count, _rng(seed))


def test_floyd_full_take_is_everything():
    assert choose_without_replacement(6, 6, _rng(1)).tolist() == list(range(6))


def test_floyd_huge_population():
    # memory stays O(count) up to the largest population binomial_draw
    # accepts as trials
    total = 2**63 - 1
    picks = choose_without_replacement(total, 5, _rng(11)).tolist()
    assert len(picks) == 5
    assert all(0 <= p < total for p in picks)
    assert len(set(picks)) == 5


def test_floyd_validation():
    rng = _rng(0)
    with pytest.raises(BadArgs):
        choose_without_replacement(5, 6, rng)
    with pytest.raises(BadArgs):
        choose_without_replacement(5, -1, rng)
    with pytest.raises(Overflow):
        choose_without_replacement(2**63, 1, rng)


def test_binomial_draw_deterministic_given_rng_state():
    a = [binomial_draw(50, 0.2, _rng(42)) for _ in range(5)]
    b = [binomial_draw(50, 0.2, _rng(42)) for _ in range(5)]
    assert a == b
