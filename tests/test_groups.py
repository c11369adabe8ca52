import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronnet.groups as groups_mod
from kronnet import (
    BadArgs,
    GridUnranker,
    GroupCapExceeded,
    ModelSampler,
    Overflow,
    ThetaMatrix,
    edge_prob,
    grid_groups,
    kronecker_power,
    level_rng,
    make_config,
    theta_value_classes,
)
from kronnet.config import I64_MAX
from kronnet.randvar import binomial_draw, choose_without_replacement

WORKED = [[0.9, 0.7], [0.5, 0.3]]
SYMMETRIC = [[0.9, 0.5], [0.5, 0.3]]
THETA3 = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
# 0.8 * 0.1 == 0.4 * 0.2 and the like: groups merge 2-3 descriptors
MERGED = [[0.8, 0.4], [0.2, 0.1]]


def _tail(cells, rows, levels, name):
    """A case whose ``GridUnranker`` tabulates at most ``cells`` sub-grid cells."""
    return pytest.param(rows, levels, marks=pytest.mark.tail_cells(cells), id=f"{name}-{levels}-tail{cells}")


def _multinomial(counts):
    value = math.factorial(sum(counts))
    for c in counts:
        value //= math.factorial(c)
    return value


def _unrank_arrangement(rank, counts):
    # Standard multiset-permutation unranking; all arithmetic exact.
    remaining = sum(counts)
    arrangements = _multinomial(counts)
    seq = []
    while remaining > 0:
        acc = 0
        for cls_index, count in enumerate(counts):
            if count == 0:
                continue
            sub = arrangements * count // remaining
            if rank < acc + sub:
                seq.append(cls_index)
                counts[cls_index] -= 1
                arrangements = sub
                rank -= acc
                break
            acc += sub
        remaining -= 1
    return seq


def unrank_grid_cell(group, classes, levels, base, rank):
    """Reference unranking, one cell in exact Python integers.

    Descriptors in listed order; within one, the rank is an arrangement
    rank times the member count plus a mixed-radix member rank (last level
    least significant).
    """
    assert 0 <= rank < group.size
    for desc in group.cell_source:
        if rank < desc.sequences:
            break
        rank -= desc.sequences
    members = 1
    for cls, exp in zip(classes, desc.exponents):
        members *= len(cls.positions) ** exp
    arrangement_rank, member_rank = divmod(rank, members)
    class_seq = _unrank_arrangement(arrangement_rank, list(desc.exponents))
    digits = [0] * levels
    for pos in range(levels - 1, -1, -1):
        radix = len(classes[class_seq[pos]].positions)
        digits[pos] = member_rank % radix
        member_rank //= radix
    row = 0
    col = 0
    for pos in range(levels):
        offset = classes[class_seq[pos]].positions[digits[pos]]
        row = row * base + offset // base
        col = col * base + offset % base
    return row, col


def unrank_all(cfg):
    """Every cell of every group, from the array unranking, group by group."""
    classes, groups = grid_groups(cfg)
    unranker = GridUnranker(classes, groups, cfg.levels, cfg.b)
    rows, cols = unranker.cells(
        np.repeat(np.arange(len(groups)), [group.size for group in groups]),
        np.concatenate([np.arange(group.size) for group in groups]),
    )
    cells = list(zip(rows.tolist(), cols.tolist()))
    expected = [
        unrank_grid_cell(group, classes, cfg.levels, cfg.b, rank)
        for group in groups
        for rank in range(group.size)
    ]
    assert cells == expected
    return groups, cells


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
        # 16 cells tabulate 2 levels at b = 2, so levels 1-3 are one under,
        # at and one over the table's depth; 1 cell tabulates none
        _tail(16, WORKED, 1, "worked"),
        _tail(16, WORKED, 2, "worked"),
        _tail(16, WORKED, 3, "worked"),
        _tail(4, WORKED, 4, "worked"),
        _tail(1, WORKED, 3, "worked"),
        _tail(16, SYMMETRIC, 3, "symmetric"),
        _tail(4, SYMMETRIC, 3, "symmetric"),
        _tail(4, [[0.0, 0.7], [0.5, 0.3]], 3, "zero"),
        _tail(9, THETA3, 2, "theta3"),
        _tail(81, THETA3, 3, "theta3"),
        # tables of 0, 1 and 2 levels leave heads of 2 levels
        _tail(1, MERGED, 2, "merged"),
        _tail(4, MERGED, 3, "merged"),
        _tail(16, MERGED, 4, "merged"),
    ],
)
@pytest.mark.usefixtures("tail_cells")
def test_unrank_is_a_bijection_onto_the_grid(rows, levels):
    cfg = make_config(rows, levels, 1)
    groups, cells = unrank_all(cfg)
    if rows is MERGED:
        assert max(len(group.cell_source) for group in groups) >= 2
    assert len(set(cells)) == len(cells) == cfg.n_nodes**2
    probs = [group.prob for group in groups for _ in range(group.size)]
    for cell, prob in zip(cells, probs):
        assert edge_prob(cfg, *cell) == pytest.approx(prob, rel=1e-9, abs=1e-15)


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


def test_group_cap(monkeypatch):
    # grid_groups reads the cap when called; it is not a keyword
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 5, 1)
    monkeypatch.setattr(groups_mod, "DEFAULT_GROUP_CAP", 10)
    with pytest.raises(GroupCapExceeded):
        grid_groups(cfg)
    monkeypatch.setattr(groups_mod, "DEFAULT_GROUP_CAP", math.comb(8, 3))
    assert len(grid_groups(cfg)[1]) == math.comb(8, 3)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    levels=st.integers(min_value=1, max_value=3),
    # the default table, or one of 1 or 2 levels at b = 2
    tail_cells=st.sampled_from([groups_mod._TAIL_CELLS, 4, 16]),
)
def test_unrank_bijection_property(values, levels, tail_cells):
    cfg = make_config([values[:2], values[2:]], levels, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups_mod, "_TAIL_CELLS", tail_cells)
        _, cells = unrank_all(cfg)
    assert len(set(cells)) == len(cells) == cfg.n_nodes**2


def test_unrank_rejects_out_of_range_rank():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    classes, groups = grid_groups(cfg)
    unranker = GridUnranker(classes, groups, cfg.levels, cfg.b)
    for index, group in enumerate(groups):
        for bad in (-1, group.size):
            with pytest.raises(BadArgs):
                unranker.cells([index, index], [0, bad])
    # a group of several descriptors: past its last one, not only its first
    cfg = make_config(MERGED, 3, 1)
    classes, groups = grid_groups(cfg)
    unranker = GridUnranker(classes, groups, cfg.levels, cfg.b)
    index = next(i for i, group in enumerate(groups) if len(group.cell_source) >= 2)
    for bad in (-1, groups[index].size):
        with pytest.raises(BadArgs):
            unranker.cells([index, index], [0, bad])


def test_unrank_refuses_groups_beyond_int64():
    # the zero group holds 4**40 - 2**40 cells, so it has no tables
    cfg = make_config([[0.5, 0.0], [0.0, 0.5]], 40, 1)
    classes, groups = grid_groups(cfg)
    unranker = GridUnranker(classes, groups, cfg.levels, cfg.b)
    assert groups[-1].size > I64_MAX
    with pytest.raises(Overflow):
        unranker.cells([len(groups) - 1], [0])
    rows, cols = unranker.cells([0, 0], [0, groups[0].size - 1])
    assert rows.tolist() == cols.tolist() == [0, 2**40 - 1]


def test_unrank_exact_where_arrangement_products_pass_int64():
    # At K = 34 some descriptors have arrangements * count > 2**63, so the
    # naive product arr * count // remaining would overflow int64.
    cfg = make_config([[0.9, 0.1], [0.05, 0.02]], 34, 1)
    classes, groups = grid_groups(cfg)
    unranker = GridUnranker(classes, groups, cfg.levels, cfg.b)
    wide = [
        index
        for index, group in enumerate(groups)
        if any(
            _multinomial(d.exponents) * max(d.exponents) > I64_MAX
            for d in group.cell_source
        )
    ]
    assert len(wide) >= 30
    rng = np.random.default_rng(34)
    drawn = []
    for index in wide:
        size = groups[index].size
        ranks = [0, size - 1] + [int(v) for v in rng.integers(0, size, 5)]
        drawn.append((index, np.asarray(ranks, dtype=np.int64)))
    rows, cols = unranker.cells(
        np.repeat([index for index, _ in drawn], 7), np.concatenate([ranks for _, ranks in drawn])
    )
    expected = [
        unrank_grid_cell(groups[index], classes, cfg.levels, cfg.b, int(rank))
        for index, ranks in drawn
        for rank in ranks
    ]
    assert list(zip(rows.tolist(), cols.tolist())) == expected


def _reference_draw(group, stream):
    """One group's ranks from the checked public draws: a count, then that
    many distinct ranks, or every rank when the group's probability is 1."""
    count = binomial_draw(group.size, group.prob, stream)
    if count == 0:
        return []
    if group.prob == 1.0:
        return range(group.size)
    return choose_without_replacement(group.size, count, stream).tolist()


def _reference_grid_gp(cfg, seed):
    """Whole-grid gp with the scalar unranking: the same draws, group by
    group, one cell at a time, sorted."""
    classes, groups = grid_groups(cfg)
    stream = level_rng(seed, 0)
    return sorted(
        unrank_grid_cell(group, classes, cfg.levels, cfg.b, rank)
        for group in groups
        for rank in _reference_draw(group, stream)
    )


@pytest.mark.parametrize(
    "rows,levels",
    [
        ([[0.9, 0.7], [0.5, 0.3]], 3),
        ([[0.9, 0.7], [0.5, 0.3]], 8),
        ([[0.5, 0.5], [0.7, 0.3]], 6),
        ([[1.0, 0.5], [0.5, 0.0]], 6),
        ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 4),
        ([[0.5, 0.0], [0.0, 0.5]], 40),
        _tail(16, WORKED, 1, "worked"),
        _tail(16, WORKED, 2, "worked"),
        _tail(16, WORKED, 3, "worked"),
        _tail(16, WORKED, 8, "worked"),
        _tail(16, SYMMETRIC, 6, "symmetric"),
        _tail(81, THETA3, 4, "theta3"),
        _tail(16, [[0.5, 0.0], [0.0, 0.5]], 40, "diagonal"),
    ],
)
@pytest.mark.usefixtures("group_every_grid", "tail_cells")
def test_grid_gp_matches_scalar_unrank_reference(rows, levels):
    cfg = make_config(rows, levels, levels)
    engine = ModelSampler(cfg)
    for seed in (0, 7, 12345):
        net, trace = engine.run("gp", seed)
        expected = [list(cell) for cell in _reference_grid_gp(cfg, seed)]
        assert net.edges.tolist() == expected
        assert trace.final_active == net.edge_count


@pytest.mark.parametrize(
    "rows,levels",
    [(WORKED, 12), ([[0.9, 0.8, 0.7], [0.6, 0.5, 0.4], [0.3, 0.2, 0.1]], 8)],
)
def test_unranker_tables_stay_within_tail_cells(rows, levels):
    # A table of every class sequence would hold m**levels entries, 16.7M at
    # b = 2 and 43M at b = 3, of at least a byte each.
    cfg = make_config(rows, levels, 1)
    classes, groups = grid_groups(cfg)
    bound = 8 * groups_mod._TAIL_CELLS
    assert len(classes) ** levels > bound
    tracemalloc.start()
    try:
        unranker = GridUnranker(classes, groups, levels, cfg.b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unranker.tail < levels
    assert unranker._sub_cells.size <= groups_mod._TAIL_CELLS
    assert peak <= bound
