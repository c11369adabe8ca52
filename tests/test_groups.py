import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnet import (
    GroupCapExceeded,
    ThetaMatrix,
    edge_prob,
    grid_groups,
    kronecker_power,
    make_config,
    theta_value_classes,
    unrank_grid_cell,
)


def grid_group_oracle(cfg):
    """Frequency of each probability value over the dense grid."""
    dense = kronecker_power(cfg.theta, cfg.levels)
    freq = Counter()
    n = cfg.n_nodes
    for i in range(n):
        for j in range(n):
            freq[round(float(dense.probs[i, j]), 12)] += 1
    return freq


def test_theta_value_classes_descending_with_positions():
    theta = ThetaMatrix([[0.5, 0.9], [0.3, 0.5]])
    classes = theta_value_classes(theta)
    assert [c.value for c in classes] == [0.9, 0.5, 0.3]
    # positions are row-major flat offsets
    assert list(classes[0].positions) == [1]
    assert list(classes[1].positions) == [0, 3]
    assert list(classes[2].positions) == [2]


def test_grid_groups_frozen_count_for_worked_example():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    _, groups = grid_groups(cfg)
    assert len(groups) == 10
    assert sum(g.size for g in groups) == 16


def test_grid_groups_match_dense_frequency_oracle():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    _, groups = grid_groups(cfg)
    oracle = grid_group_oracle(cfg)
    got = {round(g.prob, 12): g.size for g in groups}
    assert got == dict(oracle)


def test_grid_groups_duplicate_value_merging():
    cfg = make_config([[0.5, 0.5], [0.7, 0.3]], 1, 1)
    _, groups = grid_groups(cfg)
    assert [(g.prob, g.size) for g in groups] == [(0.7, 1), (0.5, 2), (0.3, 1)]


def test_grid_groups_probs_strictly_descending():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1)
    _, groups = grid_groups(cfg)
    probs = [g.prob for g in groups]
    assert probs == sorted(probs, reverse=True)
    assert len(set(probs)) == len(probs)


@pytest.mark.parametrize(
    "rows,levels",
    [
        ([[0.9, 0.7], [0.5, 0.3]], 1),
        ([[0.9, 0.7], [0.5, 0.3]], 2),
        ([[0.9, 0.7], [0.5, 0.3]], 3),
        ([[0.5, 0.5], [0.7, 0.3]], 2),
        ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 2),
        ([[0.0, 0.7], [0.5, 0.3]], 2),
    ],
)
def test_unrank_is_a_bijection_onto_the_grid(rows, levels):
    cfg = make_config(rows, levels, 1)
    classes, groups = grid_groups(cfg)
    seen = set()
    for group in groups:
        for rank in range(group.size):
            cell = unrank_grid_cell(group, classes, cfg.levels, cfg.b, rank)
            assert cell not in seen
            seen.add(cell)
            assert edge_prob(cfg, *cell) == pytest.approx(group.prob, rel=1e-9, abs=1e-15)
    n = cfg.n_nodes
    assert len(seen) == n * n


def test_zero_entries_collapse_into_one_group():
    cfg = make_config([[0.0, 0.7], [0.5, 0.0]], 2, 1)
    _, groups = grid_groups(cfg)
    zero_groups = [g for g in groups if g.prob == 0.0]
    assert len(zero_groups) == 1
    # every grid cell with a zero digit factor lands in the zero group
    dense = kronecker_power(cfg.theta, 2)
    assert zero_groups[0].size == int((dense.probs == 0.0).sum())


def test_group_sizes_sum_to_grid_everywhere():
    for rows, levels in [
        ([[0.9, 0.7], [0.5, 0.3]], 4),
        ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 3),
    ]:
        cfg = make_config(rows, levels, 1)
        _, groups = grid_groups(cfg)
        n = cfg.n_nodes
        assert sum(g.size for g in groups) == n * n


def test_group_count_formula_distinct_values():
    # m distinct entries and K levels give C(K + m - 1, m - 1) descriptors
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 5, 1)
    _, groups = grid_groups(cfg)
    assert len(groups) == math.comb(5 + 3, 3)


def test_group_cap():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 5, 1)
    with pytest.raises(GroupCapExceeded):
        grid_groups(cfg, group_cap=10)
    assert len(grid_groups(cfg, group_cap=math.comb(8, 3))[1]) == math.comb(8, 3)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    levels=st.integers(min_value=1, max_value=3),
)
def test_unrank_bijection_property(values, levels):
    cfg = make_config([values[:2], values[2:]], levels, 1)
    classes, groups = grid_groups(cfg)
    seen = set()
    for group in groups:
        for rank in range(group.size):
            cell = unrank_grid_cell(group, classes, cfg.levels, cfg.b, rank)
            assert cell not in seen
            seen.add(cell)
    assert len(seen) == cfg.n_nodes**2


def test_unrank_rejects_out_of_range_rank():
    from kronnet import BadArgs

    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    classes, groups = grid_groups(cfg)
    with pytest.raises(BadArgs):
        unrank_grid_cell(groups[0], classes, cfg.levels, cfg.b, groups[0].size)
