import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_acceptance import _brute_force_joint, _csi_from_joint

from kronnet import (
    BadArgs,
    BayesNet,
    CapExceeded,
    DEFAULT_DENSE_CAP,
    IndexOutOfRange,
    ModelSampler,
    Strategy,
    ancestral_sample,
    build_bn,
    check_csi,
    check_dcsd,
    ci_rv_count,
    kronecker_power,
    make_config,
)

# -- structure ---------------------------------------------------------------


def test_node_count_matches_rv_formula_everywhere():
    for base in (2, 3):
        rows = [[0.5] * base for _ in range(base)]
        for levels in range(1, 5):
            for untied in range(1, levels + 1):
                cfg = make_config(rows, levels, untied)
                bn = build_bn(cfg)
                assert bn.node_count == ci_rv_count(cfg)


def test_worked_example_structure(worked_cfg):
    bn = build_bn(worked_cfg)
    assert bn.node_count == 80
    assert bn.side(0) == 4
    assert bn.side(1) == 8
    assert bn.tree_size() == 5
    assert bn.tables.shape == (1, 2, 2, 2) and not bn.tables.flags.writeable


def test_root_priors_are_untied_grid_cells(worked_cfg):
    bn = build_bn(worked_cfg)
    grid = kronecker_power(worked_cfg.theta, 2).probs
    assert bn.node((0, 0, 0)).prior == pytest.approx(0.81, abs=1e-12)
    for r in range(4):
        for c in range(4):
            node = bn.node((0, r, c))
            assert node.is_root
            assert node.parent_id is None
            assert node.prior == grid[r, c]


def test_leaf_cpts_follow_position_in_parent_block(worked_cfg):
    bn = build_bn(worked_cfg)
    theta = worked_cfg.theta.entries
    for r in range(8):
        for c in range(8):
            node = bn.node((1, r, c))
            assert not node.is_root
            assert node.parent_id == (0, r // 2, c // 2)
            assert node.p_given_parent_one == theta[r % 2, c % 2]
            assert node.p_given_parent_zero == 0.0


def test_tree_ids_cover_forest_exactly(worked_cfg):
    bn = build_bn(worked_cfg)
    seen = []
    for r in range(4):
        for c in range(4):
            ids = list(bn.tree_ids((0, r, c)))
            assert len(ids) == bn.tree_size()
            seen.extend(ids)
    assert len(seen) == len(set(seen)) == bn.node_count


def test_deeper_forest_tree_size():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1)
    bn = build_bn(cfg)
    assert bn.tree_size() == 21
    assert bn.node_count == 84
    assert bn.root_of((2, 5, 6)) == (0, 1, 1)
    assert bn.root_of((1, 1, 0)) == (0, 0, 0)


def test_node_id_validation(worked_cfg):
    bn = build_bn(worked_cfg)
    for bad in [(2, 0, 0), (-1, 0, 0), (0, 4, 0), (0, 0, 4), (1, 8, 0), (1, 0, -1)]:
        with pytest.raises(IndexOutOfRange):
            bn.node(bad)


@pytest.mark.parametrize(
    "tables",
    [
        pytest.param(np.zeros((2, 2, 2)), id="shape"),
        pytest.param(np.full((1, 2, 2, 2), -0.1), id="below-0"),
        pytest.param(np.full((1, 2, 2, 2), 1.5), id="above-1"),
        pytest.param(np.full((1, 2, 2, 2), np.nan), id="nan"),
        pytest.param([[["a"]]], id="not-numbers"),
    ],
)
def test_bayes_net_rejects_bad_tables(worked_cfg, tables):
    with pytest.raises(BadArgs):
        BayesNet(worked_cfg, tables)


# -- hierarchical-determinism property ----------------------------------------


def test_check_dcsd_true_for_positive_matrices(worked_cfg):
    assert check_dcsd(build_bn(worked_cfg))


def test_check_dcsd_false_with_zero_entry():
    cfg = make_config([[0.9, 0.0], [0.5, 0.3]], 2, 1)
    assert not check_dcsd(build_bn(cfg))


def test_check_dcsd_false_with_parent_zero_leak(worked_cfg):
    # a forest where a dead parent can still spawn children
    tables = build_bn(worked_cfg).tables.copy()
    tables[0, 0, 0, 0] = 0.25
    leaky = BayesNet(worked_cfg, tables)
    assert not check_dcsd(leaky)
    assert leaky.node((1, 2, 4)).p_given_parent_zero == 0.25


# -- ancestral sampling --------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
def test_ancestral_sampling_equals_full_sweep_exactly(worked_cfg, seed):
    bn = build_bn(worked_cfg)
    net_bn, trace_bn = ancestral_sample(bn, seed)
    engine = ModelSampler(worked_cfg)
    net_ci, trace_ci = engine.run(Strategy.CI, seed)
    np.testing.assert_array_equal(net_bn.edges, net_ci.edges)
    assert trace_bn == trace_ci
    assert trace_bn.strategy == Strategy.CI


def test_ancestral_sampling_three_levels():
    # b=3 with an asymmetric seed and no self loops checks the tiled tables'
    # orientation and the edge-mode filter
    theta3 = [[0.9, 0.6, 0.3], [0.8, 0.5, 0.2], [0.7, 0.4, 0.1]]
    for cfg in (
        make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1),
        make_config(theta3, 3, 1, self_loops=False),
    ):
        bn = build_bn(cfg)
        for seed in (3, 99):
            net_bn, trace_bn = ancestral_sample(bn, seed)
            net_ci, trace_ci = ModelSampler(cfg).run(Strategy.CI, seed)
            np.testing.assert_array_equal(net_bn.edges, net_ci.edges)
            assert trace_bn == trace_ci


def test_ancestral_sampling_peak_memory_per_last_level_cell():
    # 4**11 last-level cells: a level holds its uniforms and probabilities
    # (8 bytes each per cell) and two levels' values, no repeated parents or
    # tiled tables
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 11, 1)
    bn = build_bn(cfg)
    tracemalloc.start()
    try:
        ancestral_sample(bn, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * bn.side(cfg.tied_levels) ** 2, peak


def test_ancestral_sampling_refuses_above_the_dense_cap_without_allocating():
    bn = build_bn(make_config([[0.5, 0.5], [0.5, 0.5]], 14, 1))
    assert bn.node_count > DEFAULT_DENSE_CAP
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            ancestral_sample(bn, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# -- conditional independence oracle -------------------------------------------


def _children(bn, node_id):
    level, row, col = node_id
    if level >= bn.cfg.tied_levels:
        return []
    b = bn.cfg.b
    return [
        (level + 1, row * b + i, col * b + j) for i in range(b) for j in range(b)
    ]


def joint_prob_oracle(bn, assignment):
    """Exact joint probability by sum-product recursion over each tree.

    Independent of check_csi's exhaustive enumeration: this marginalizes
    unassigned nodes recursively instead of enumerating joint bit vectors.
    """

    def rec(node_id, parent_value):
        node = bn.node(node_id)
        if node.is_root:
            dist = {1: node.prior, 0: 1.0 - node.prior}
        else:
            p1 = (
                node.p_given_parent_one
                if parent_value == 1
                else node.p_given_parent_zero
            )
            dist = {1: p1, 0: 1.0 - p1}
        wanted = assignment.get(node_id)
        total = 0.0
        for value in (0, 1) if wanted is None else (wanted,):
            weight = dist[value]
            if weight == 0.0:
                continue
            for child in _children(bn, node_id):
                weight *= rec(child, value)
                if weight == 0.0:
                    break
            total += weight
        return total

    roots = {bn.root_of(node_id) for node_id in assignment}
    prob = 1.0
    for root in sorted(roots):
        prob *= rec(root, None)
    return prob


def csi_oracle(bn, x, y, context=None, tol=1e-9):
    context = dict(context or {})
    p_ctx = joint_prob_oracle(bn, context)
    if p_ctx == 0.0:
        return True
    p_x = [joint_prob_oracle(bn, {**context, x: xv}) for xv in (0, 1)]
    p_y = [joint_prob_oracle(bn, {**context, y: yv}) for yv in (0, 1)]
    for xv in (0, 1):
        for yv in (0, 1):
            p_xy = joint_prob_oracle(bn, {**context, x: xv, y: yv})
            if abs(p_xy * p_ctx - p_x[xv] * p_y[yv]) > tol:
                return False
    return True


def _probe_cases():
    cases = []
    # two-level forest: siblings and cross-tree pairs
    shallow = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 2)
    cases.extend(
        (shallow, x, y, ctx)
        for x, y, ctx in [
            ((1, 0, 0), (1, 0, 1), None),
            ((1, 0, 0), (1, 0, 1), {(0, 0, 0): 1}),
            ((1, 0, 0), (1, 0, 1), {(0, 0, 0): 0}),
            ((1, 0, 0), (1, 7, 7), None),
            ((0, 0, 0), (1, 0, 0), None),
            ((0, 0, 0), (1, 0, 0), {(1, 0, 1): 1}),
            ((0, 0, 0), (0, 3, 3), None),
        ]
    )
    # three-level forest: cousins, grandparents, deep chains
    deep = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1)
    cases.extend(
        (deep, x, y, ctx)
        for x, y, ctx in [
            ((2, 0, 0), (2, 0, 1), {(1, 0, 0): 1}),
            ((2, 0, 0), (2, 0, 1), None),
            ((2, 0, 0), (2, 0, 2), None),
            ((2, 0, 0), (2, 0, 2), {(0, 0, 0): 1}),
            ((2, 0, 0), (2, 0, 2), {(1, 0, 0): 1, (1, 0, 1): 1}),
            ((2, 0, 0), (2, 0, 2), {(1, 0, 0): 1}),
            ((2, 0, 0), (0, 0, 0), {(1, 0, 0): 0}),
            ((2, 0, 0), (0, 0, 0), None),
            ((1, 0, 0), (2, 0, 3), None),
            ((2, 0, 0), (2, 3, 3), {(1, 0, 0): 1}),
        ]
    )
    return cases


@pytest.mark.parametrize("cfg,x,y,ctx", _probe_cases())
def test_check_csi_matches_sum_product_oracle(cfg, x, y, ctx):
    bn = build_bn(cfg)
    assert check_csi(bn, x, y, ctx) == csi_oracle(bn, x, y, ctx)


def test_check_csi_known_verdicts(worked_cfg):
    bn = build_bn(worked_cfg)
    # observing the shared parent separates siblings
    assert check_csi(bn, (1, 0, 0), (1, 0, 1), {(0, 0, 0): 1})
    assert check_csi(bn, (1, 0, 0), (1, 0, 1), {(0, 0, 0): 0})
    # marginally the shared parent couples them
    assert not check_csi(bn, (1, 0, 0), (1, 0, 1))
    # different trees never interact
    assert check_csi(bn, (1, 0, 0), (1, 7, 7))
    # a node and its own child are dependent
    assert not check_csi(bn, (0, 0, 0), (1, 0, 0))


def test_check_csi_dead_parent_freezes_children():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1)
    bn = build_bn(cfg)
    # under a dead parent both children are deterministically zero,
    # hence (vacuously) independent
    assert check_csi(bn, (2, 0, 0), (2, 0, 1), {(1, 0, 0): 0})


def test_check_csi_impossible_context_is_vacuous():
    cfg = make_config([[0.9, 0.0], [0.5, 0.3]], 2, 1)
    bn = build_bn(cfg)
    # this leaf has p(child=1 | parent) == 0 on both branches
    impossible = {(1, 0, 1): 1}
    assert check_csi(bn, (1, 0, 0), (1, 1, 1), impossible)


def test_check_csi_argument_validation(worked_cfg):
    bn = build_bn(worked_cfg)
    with pytest.raises(BadArgs):
        check_csi(bn, (1, 0, 0), (1, 0, 0))
    with pytest.raises(BadArgs):
        check_csi(bn, (1, 0, 0), (1, 0, 1), {(1, 0, 0): 1})
    with pytest.raises(BadArgs):
        check_csi(bn, (1, 0, 0), (1, 0, 1), {(0, 0, 0): 2})
    with pytest.raises(IndexOutOfRange):
        check_csi(bn, (5, 0, 0), (1, 0, 1))


@pytest.mark.parametrize(
    "query",
    [
        pytest.param(lambda bn: check_csi(bn, (1, 0.5, 0), (1, 0, 1)), id="float-id-entry"),
        pytest.param(lambda bn: check_csi(bn, (1, 0), (1, 0, 1)), id="two-entry-id"),
        pytest.param(
            lambda bn: check_csi(bn, (1, 0, 0), (1, 0, 1), {(0, 0): 1}), id="short-ctx-id"
        ),
        pytest.param(lambda bn: bn.node((1, 0.5, 0)), id="node-float-entry"),
        pytest.param(lambda bn: bn.node((True, 0, 0)), id="node-bool-entry"),
        pytest.param(lambda bn: bn.node(7), id="node-not-a-tuple"),
        pytest.param(
            lambda bn: check_csi(bn, (1, 0, 0), (1, 0, 1), {(0, 0, 0): 1.0}), id="float-ctx-value"
        ),
        pytest.param(
            lambda bn: check_csi(bn, (1, 0, 0), (1, 0, 1), {(0, 0, 0): True}), id="bool-ctx-value"
        ),
    ],
)
def test_malformed_ids_and_context_values_raise_bad_args(worked_cfg, query):
    with pytest.raises(BadArgs):
        query(build_bn(worked_cfg))


def test_numpy_integer_ids_and_values_are_accepted(worked_cfg):
    bn = build_bn(worked_cfg)
    assert bn.node((np.int64(1), np.int32(0), 0)) == bn.node((1, 0, 0))
    assert check_csi(bn, (1, 0, 0), [1, 0, np.int64(1)], {(0, 0, 0): np.int64(1)})


_THETA_VALUES = st.sampled_from([0.0, 0.3, 0.5, 0.7, 0.9, 1.0])


@st.composite
def _csi_queries(draw, theta_values=_THETA_VALUES, max_levels=3):
    """A forest with K <= ``max_levels``, x != y and 0-3 context nodes.

    Nodes fall in the trees of roots (0, 0) and (0, 1), so queries often
    share a tree; other trees differ only in their root priors.
    """
    b = draw(st.sampled_from([2, 3]))
    levels = draw(st.integers(1, max_levels))
    # trees of at least two levels whenever K > 1
    untied = levels - draw(st.integers(min(1, levels - 1), levels - 1))
    rows = [[draw(theta_values) for _ in range(b)] for _ in range(b)]
    cfg = make_config(rows, levels, untied)
    # nodes are drawn as plain integers in a loop: strategies built per
    # example (flatmap, builds) cost hypothesis ~10 ms an example
    ids = []
    for _ in range(draw(st.integers(2, 5))):
        level = draw(st.integers(0, levels - untied))
        span = b**level
        row, root, col = (draw(st.integers(0, top)) for top in (span - 1, 1, span - 1))
        if (nid := (level, row, root * span + col)) not in ids:
            ids.append(nid)
    assume(len(ids) >= 2)
    values = [draw(st.integers(0, 1)) for _ in ids[2:]]
    return cfg, ids[0], ids[1], dict(zip(ids[2:], values))


@settings(max_examples=50, deadline=None)
@given(query=_csi_queries())
def test_check_csi_matches_oracles_property(query):
    cfg, x, y, ctx = query
    bn = build_bn(cfg)
    got = check_csi(bn, x, y, ctx)
    assert got == csi_oracle(bn, x, y, ctx)
    roots = {bn.root_of(nid) for nid in (x, y, *ctx)}
    if len(roots) * bn.tree_size() <= 10:
        assert got == _csi_from_joint(_brute_force_joint, bn, x, y, ctx)


_TINY_THETA = make_config([[0.01, 0.01], [0.01, 0.01]], 6, 1)


@settings(max_examples=100, deadline=None)
@given(query=_csi_queries(st.floats(1e-3, 1.0), max_levels=8))
@example(query=(_TINY_THETA, (5, 0, 0), (0, 0, 0), {}))
def test_check_csi_symmetry(query):
    cfg, x, y, ctx = query
    bn = build_bn(cfg)
    assert check_csi(bn, x, y, ctx) == check_csi(bn, y, x, ctx)


def test_check_csi_is_relative_at_small_magnitudes():
    # P(leaf=1 | root=1) = 1e-10 against P(leaf=1) = 1e-12: dependent either way round
    bn = build_bn(_TINY_THETA)
    assert not check_csi(bn, (5, 0, 0), (0, 0, 0))
    assert not check_csi(bn, (0, 0, 0), (5, 0, 0))


def _dcsd_pattern(levels):
    """Criterion 5's probes with their verdicts, on a forest with ell=1."""
    d = levels - 1  # leaf level
    siblings = ((d, 0, 0), (d, 0, 1))
    cousins = ((d, 0, 0), (d, 0, 2))  # parents (d-1, 0, 0) and (d-1, 0, 1)
    return [
        (*siblings, None, False),
        (*siblings, {(d - 1, 0, 0): 0}, True),
        (*siblings, {(d - 1, 0, 0): 1}, True),
        ((0, 0, 0), (d, 0, 0), None, False),
        (*cousins, {(d - 2, 0, 0): 1}, True),
        (*cousins, None, False),
    ]


@pytest.mark.parametrize("levels", [6, 7, 8, 12])
def test_dcsd_not_csi_on_large_trees(levels):
    small = build_bn(make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1))
    for x, y, ctx, expected in _dcsd_pattern(3):
        assert check_csi(small, x, y, ctx) == csi_oracle(small, x, y, ctx) == expected
    bn = build_bn(make_config([[0.9, 0.7], [0.5, 0.3]], levels, 1))
    assert bn.tree_size() == (4**levels - 1) // 3
    for x, y, ctx, expected in _dcsd_pattern(levels):
        assert check_csi(bn, x, y, ctx) == expected, (x, y, ctx)
