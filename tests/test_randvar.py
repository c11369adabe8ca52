"""Law checks of the random variates behind grouped level 0.

Every draw goes through the sampler's own path, ``samplers._grouped_draw``
on a plan of many equal groups, so one call yields many independent groups.
Groups expecting fewer than ``_GAP_COUNT`` cells draw by geometric gaps;
the ``counted`` fixture sends every group to the count-then-placement path
(numpy's ``binomial`` and ``choice``) instead.
"""

import math
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2

import kronnet.samplers as samplers_mod


def _rng(seed=0):
    return np.random.default_rng(seed)


def _plan(size, prob, groups):
    return samplers_mod._draw_plan(np.full(groups, size, dtype=np.int64), np.full(groups, prob))


def _draw(size, prob, groups, rng):
    """``groups`` independent groups of ``size`` cells of probability
    ``prob``, drawn in one ``_grouped_draw`` call: each group's count, and
    every realized cell's group and rank, ordered by group then rank."""
    index, ranks = samplers_mod._grouped_draw(_plan(size, prob, groups), rng)
    order = np.lexsort((ranks, index))
    return np.bincount(index, minlength=groups), index[order], ranks[order]


def _counts(size, prob, groups, rng, batch=500):
    """The counts alone of ``_draw``'s groups, drawn ``batch`` groups per
    call so that their cells never all sit in memory at once."""
    plan = _plan(size, prob, batch)
    return np.concatenate(
        [
            np.bincount(samplers_mod._grouped_draw(plan, rng)[0], minlength=batch)
            for _ in range(groups // batch)
        ]
    )


@pytest.fixture
def counted(monkeypatch):
    """Every group draws a binomial count, then places it by ``choice``."""
    monkeypatch.setattr(samplers_mod, "_GAP_COUNT", 0)


def chisquare_vs_binom(draws, trials, prob, min_expected=10.0):
    """Chi-square statistic of draws against the exact binomial pmf.

    The support stops 10 standard deviations past the mean (at ``trials``
    at most), the last bin taking the whole upper tail; bins with expected
    count under ``min_expected`` merge into their neighbour toward the mode.
    """
    n = len(draws)
    top = int(min(trials, max(draws.max(), trials * prob + 10 * math.sqrt(trials * prob) + 10)))
    expected = binom.pmf(np.arange(top + 1), trials, prob) * n
    expected[-1] += binom.sf(top, trials, prob) * n
    observed = np.bincount(draws, minlength=top + 1).astype(float)
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


def _assert_uniform(hits, trials, p, z_max):
    """Hit counts per rank (or per bin of ranks), each Binomial(``trials``,
    ``p``) over all groups: every z-score and their chi-square."""
    z = (hits - trials * p) / math.sqrt(trials * p * (1 - p))
    assert np.abs(z).max() < z_max
    assert chi2.sf(float((z**2).sum()), len(hits) - 1) > 1e-3


def test_inversion_path_matches_exact_pmf():
    # a group expecting 6 cells draws geometric gaps, inverted from one
    # exponential draw each; its count is how many ranks they reach
    counts, _, _ = _draw(20, 0.3, 100_000, _rng(1234))
    _, pvalue = chisquare_vs_binom(counts, 20, 0.3)
    assert pvalue > 1e-3


@pytest.mark.usefixtures("counted")
def test_complement_path_matches_exact_pmf():
    # prob > 0.5 draws the complement's count (numpy flips to 1 - prob)
    counts, _, _ = _draw(40, 0.9, 100_000, _rng(99))
    _, pvalue = chisquare_vs_binom(counts, 40, 0.9)
    assert pvalue > 1e-3


def test_delegated_path_moments():
    # trials * prob = 4000 is past _GAP_COUNT, so the count comes from
    # numpy's binomial, whose BTPE accept/reject path takes means above 30
    trials, prob = 10_000, 0.4
    assert trials * prob >= samplers_mod._GAP_COUNT
    n = 20_000
    counts = _counts(trials, prob, n, _rng(7))
    draws = counts.astype(float)
    mean = trials * prob
    sd = math.sqrt(trials * prob * (1 - prob))
    assert abs(draws.mean() - mean) < 5 * sd / math.sqrt(n)
    assert abs(draws.std(ddof=1) - sd) < 0.05 * sd


def test_degenerate_probs_consume_no_randomness():
    rng_a = _rng(5)
    rng_b = _rng(5)
    plan = samplers_mod._draw_plan(
        np.array([1000, 1000, 0], dtype=np.int64), np.array([0.0, 1.0, 0.7])
    )
    index, ranks = samplers_mod._grouped_draw(plan, rng_a)
    # only the probability-1 group has cells: all of them
    assert index.tolist() == [1] * 1000
    assert ranks.tolist() == list(range(1000))
    # rng_a state untouched: next draws equal a fresh generator's
    assert rng_a.random() == rng_b.random()


def test_binomial_draw_huge_trials_tiny_prob():
    # huge groups stay exact as long as the mean is modest; their budget is
    # one gap a round, so every group runs the top-up loop, and the gap sums
    # stay in range past 2**63
    groups, prob = 2000, 1e-18
    for size in (2**62, 2**63 - 1):
        assert _plan(size, prob, groups).gap_budget.tolist() == [1] * groups
        counts, index, ranks = _draw(size, prob, groups, _rng(3))
        mean = size * prob  # ~4.6 and ~9.2
        assert 0 < counts.mean() < 3 * mean
        assert ranks.min() >= 0 and ranks.max() < size
        # each group's ranks are distinct, so no sum wrapped back
        same_group = index[1:] == index[:-1]
        assert (ranks[1:][same_group] > ranks[:-1][same_group]).all()


@settings(max_examples=100, deadline=None)
@given(
    trials=st.integers(min_value=0, max_value=10_000),
    prob=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_binomial_draw_range(trials, prob, seed):
    counts, index, ranks = _draw(trials, prob, 1, _rng(seed))
    assert 0 <= counts[0] <= trials
    assert len(set(ranks.tolist())) == len(ranks)
    assert all(0 <= r < trials for r in ranks.tolist())


@pytest.mark.parametrize("slack", [samplers_mod._GAP_SLACK, 0.0], ids=["default", "top-up"])
def test_gap_draw_matches_bernoulli_cells(monkeypatch, slack):
    # Each of a group's 50 ranks is realized with probability 0.1: the
    # count is Binomial(50, 0.1) and every rank is hit equally often.  With
    # no slack a group's budget is its expected count plus one gap, so
    # about 38% of the groups run out of gaps and continue in a new round.
    monkeypatch.setattr(samplers_mod, "_GAP_SLACK", slack)
    size, prob, reps = 50, 0.1, 20_000
    plan = _plan(size, prob, reps)
    counts, index, ranks = _draw(size, prob, reps, _rng(2026))
    if not slack:
        assert (counts >= plan.gap_budget).sum() > reps // 4
    _, pvalue = chisquare_vs_binom(counts, size, prob)
    assert pvalue > 1e-3
    same_group = index[1:] == index[:-1]
    assert (ranks[1:][same_group] > ranks[:-1][same_group]).all()
    _assert_uniform(np.bincount(ranks, minlength=size), reps, prob, 5.0)


def test_gap_draw_top_up_at_the_budget_cap():
    # 2**62-cell groups expecting ~46 cells draw one gap a round, so the
    # top-up loop runs ~47 rounds; counts are still Binomial(size, p), and
    # the ranks are uniform over 64 equal bins of the group
    size, prob, reps = 2**62, 1e-17, 3000
    assert _plan(size, prob, 1).gap_budget.tolist() == [1]
    counts, _, ranks = _draw(size, prob, reps, _rng(11))
    _, pvalue = chisquare_vs_binom(counts, size, prob)
    assert pvalue > 1e-3
    assert ranks.min() >= 0 and ranks.max() < size
    _assert_uniform(np.bincount(ranks >> 56, minlength=64), reps * 2**56, prob, 5.0)


@pytest.mark.usefixtures("counted")
def test_floyd_uniform_over_subsets():
    # every 2-subset of 5 items should appear equally often among the
    # groups that count 2
    rng = _rng(2024)
    total, count, reps = 5, 2, 60_000
    counts, _, ranks = _draw(total, 0.4, reps, rng)
    placed = np.split(ranks, np.cumsum(counts)[:-1])
    freq = Counter(tuple(p.tolist()) for p, c in zip(placed, counts) if c == count)
    subsets = list(combinations(range(total), count))
    assert sorted(freq) == sorted(subsets)
    expected = sum(freq.values()) / len(subsets)
    stat = sum((freq[s] - expected) ** 2 / expected for s in subsets)
    assert chi2.sf(stat, len(subsets) - 1) > 1e-3


@pytest.mark.usefixtures("counted")
def test_floyd_per_item_inclusion_uniform():
    # each of 7 items is included with probability 3/7
    rng = _rng(77)
    total, count, reps = 7, 3, 40_000
    _, _, ranks = _draw(total, count / total, reps, rng)
    hits = np.bincount(ranks, minlength=total)
    expected = reps * count / total
    z = (hits - expected) / math.sqrt(reps * (count / total) * (1 - count / total))
    assert np.abs(z).max() < 5.0


def test_floyd_per_item_inclusion_uniform_tail_shuffle():
    # total > 10000 and count > total // 20: numpy places by a tail shuffle
    # of the whole range rather than Floyd's algorithm; each item is still
    # included with probability p
    rng = _rng(31)
    total, p, reps = 12_000, 0.25, 400
    assert total * p >= samplers_mod._GAP_COUNT
    counts, _, ranks = _draw(total, p, reps, rng)
    assert (counts > total // 20).all()
    _assert_uniform(np.bincount(ranks, minlength=total), reps, p, 5.5)


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=200),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_floyd_output_contract(total, data, seed):
    count = data.draw(st.integers(min_value=0, max_value=total))
    with mock.patch.object(samplers_mod, "_GAP_COUNT", 0):
        plan = _plan(total, count / total if total else 0.0, 1)
        index, ranks = samplers_mod._grouped_draw(plan, _rng(seed))
    assert ranks.dtype == np.int64
    picks = ranks.tolist()
    assert index.tolist() == [0] * len(picks)
    assert len(set(picks)) == len(picks) <= total
    assert all(0 <= p < total for p in picks)


def _floyd_reference(total, count, rng):
    # Floyd's algorithm with one bounded draw per element
    chosen = set()
    for j in range(total - count, total):
        r = int(rng.integers(0, j, endpoint=True, dtype=np.uint64))
        chosen.add(j if r in chosen else r)
    return sorted(chosen)


def _tail_shuffle_reference(total, count, rng):
    # Fisher-Yates over the last count places of arange(total), from the end
    data = list(range(total))
    for i in range(total - 1, max(total - count, 1) - 1, -1):
        j = int(rng.integers(0, i, endpoint=True, dtype=np.uint64))
        data[i], data[j] = data[j], data[i]
    return sorted(data[total - count :])


def _counted_reference(total, prob, rng):
    """One counted group's ranks: a binomial count, then numpy's placement
    algorithm for that count, one bounded draw per element."""
    if prob == 1.0:
        return list(range(total))
    count = int(rng.binomial(np.array([total]), np.array([prob]))[0])
    if total > 10_000 and count > total // 20:
        return _tail_shuffle_reference(total, count, rng)
    return _floyd_reference(total, count, rng)


@pytest.mark.usefixtures("counted")
@pytest.mark.parametrize(
    "total,count", [(1, 1), (7, 3), (10_000, 9_000), (200_000, 10_000), (2**63 - 1, 40)]
)
def test_placement_matches_floyd_reference(total, count):
    # where numpy's sampler runs Floyd's algorithm (total <= 10000 or
    # count <= total // 20) it makes the reference's draws one for one, and
    # past that its tail shuffle does; a group expecting `count` cells
    for seed in range(3):
        _, _, ranks = _draw(total, count / total, 1, _rng(seed))
        assert ranks.tolist() == _counted_reference(total, count / total, _rng(seed))


def test_floyd_full_take_is_everything():
    _, _, ranks = _draw(6, 1.0, 1, _rng(1))
    assert ranks.tolist() == list(range(6))


def test_floyd_huge_population():
    # memory stays O(count) up to the largest group a grid may hold
    total = 2**63 - 1
    with mock.patch.object(samplers_mod, "_GAP_COUNT", 0):
        _, _, ranks = _draw(total, 5 / total, 1, _rng(11))
    picks = ranks.tolist()
    assert 0 < len(picks) < 20
    assert all(0 <= p < total for p in picks)
    assert len(set(picks)) == len(picks)


def test_binomial_draw_deterministic_given_rng_state():
    a = samplers_mod._grouped_draw(_plan(50, 0.2, 5), _rng(42))
    b = samplers_mod._grouped_draw(_plan(50, 0.2, 5), _rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
