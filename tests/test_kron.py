import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnet import (
    BadArgs,
    CapExceeded,
    IndexOutOfRange,
    Overflow,
    ThetaMatrix,
    ci_rv_count,
    dcsd_ebound,
    edge_prob,
    expected_active,
    kronecker_power,
    make_config,
)
from kronnet.kron import fold, row_blocks


def kron_product_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nested-loop Kronecker product, independent of np.kron."""
    n, m = a.shape[0], b.shape[0]
    out = np.empty((n * m, n * m))
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    out[i * m + k, j * m + l] = a[i, j] * b[k, l]
    return out


def kron_power_oracle(theta: np.ndarray, power: int) -> np.ndarray:
    out = theta.copy()
    for _ in range(power - 1):
        out = kron_product_oracle(out, theta)
    return out


WORKED_THETA = [[0.9, 0.7], [0.5, 0.3]]

# Second Kronecker power of WORKED_THETA, spelled out by hand from the digit products.
WORKED_POW2 = [
    [0.81, 0.63, 0.63, 0.49],
    [0.45, 0.27, 0.35, 0.21],
    [0.45, 0.35, 0.27, 0.21],
    [0.25, 0.15, 0.15, 0.09],
]


def test_kronecker_power_two_matches_frozen_grid():
    theta = ThetaMatrix(WORKED_THETA)
    dense = kronecker_power(theta, 2)
    assert dense.side == 4
    np.testing.assert_allclose(dense.probs, WORKED_POW2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("power", [1, 2, 3, 4])
def test_kronecker_power_matches_loop_oracle(power):
    theta = ThetaMatrix(WORKED_THETA)
    expected = kron_power_oracle(theta.entries, power)
    got = kronecker_power(theta, power)
    assert got.side == 2**power
    # the same products in the same order, so equal bit for bit: level-0
    # draws compare uniforms with these values
    np.testing.assert_array_equal(got.probs, expected)


def test_kronecker_power_three_by_three():
    rows = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
    theta = ThetaMatrix(rows)
    expected = kron_power_oracle(theta.entries, 3)
    np.testing.assert_array_equal(kronecker_power(theta, 3).probs, expected)


@pytest.mark.parametrize(
    "rows, levels, max_cells, n_blocks",
    [
        (WORKED_THETA, 4, 1 << 20, 1),  # the whole grid in one block
        (WORKED_THETA, 4, 64, 4),  # four rows of 16 per block
        (WORKED_THETA, 4, 100, 4),  # a bound between two block sizes
        (WORKED_THETA, 4, 15, 16),  # narrower than a row: one row per block
        ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 3, 81, 9),
        ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 3, 1, 27),
    ],
)
def test_row_blocks_concatenate_to_kronecker_power(rows, levels, max_cells, n_blocks):
    theta = ThetaMatrix(rows)
    blocks = list(row_blocks(theta, levels, max_cells))
    assert len(blocks) == n_blocks
    side = theta.side**levels
    assert all(block.shape == (side // n_blocks, side) for block in blocks)
    assert all(block.size <= max(max_cells, side) for block in blocks)
    # exact: level-0 draws compare uniforms with these values
    np.testing.assert_array_equal(
        np.concatenate(blocks), kronecker_power(theta, levels).probs
    )


def test_kronecker_power_rejects_bad_power():
    theta = ThetaMatrix(WORKED_THETA)
    with pytest.raises(BadArgs):
        kronecker_power(theta, 0)


def test_kronecker_power_cap():
    theta = ThetaMatrix(WORKED_THETA)
    with pytest.raises(CapExceeded) as err:
        kronecker_power(theta, 4, dense_cap=255)
    assert "dcsd" in str(err.value)
    # 16 * 16 == 256 entries fits exactly
    assert kronecker_power(theta, 4, dense_cap=256).side == 16


def edge_prob_oracle(rows, base, levels, i, j):
    """Product over base-b digit pairs, most-significant digit first."""
    prob = 1.0
    for _ in range(levels):
        prob *= rows[i % base][j % base]
        i //= base
        j //= base
    return prob


def test_edge_prob_frozen_values(worked_cfg):
    assert edge_prob(worked_cfg, 0, 0) == pytest.approx(0.729, abs=1e-12)
    assert edge_prob(worked_cfg, 7, 7) == pytest.approx(0.027, abs=1e-12)


def test_edge_prob_matches_digit_oracle(worked_cfg):
    for i in range(8):
        for j in range(8):
            assert edge_prob(worked_cfg, i, j) == pytest.approx(
                edge_prob_oracle(WORKED_THETA, 2, 3, i, j), rel=1e-13
            )


def test_edge_prob_matches_dense_grid(theta3_cfg):
    dense = kronecker_power(theta3_cfg.theta, theta3_cfg.levels)
    n = theta3_cfg.n_nodes
    for i in range(n):
        for j in range(n):
            assert edge_prob(theta3_cfg, i, j) == pytest.approx(
                dense.probs[i, j], rel=1e-13
            )


def test_edge_prob_index_bounds(worked_cfg):
    with pytest.raises(IndexOutOfRange):
        edge_prob(worked_cfg, 8, 0)
    with pytest.raises(IndexOutOfRange):
        edge_prob(worked_cfg, 0, -1)


def test_edge_prob_huge_grid_stays_cheap():
    cfg = make_config([[0.5, 0.5], [0.5, 0.5]], 60, 1)
    assert edge_prob(cfg, 2**60 - 1, 0) == pytest.approx(0.5**60, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
    ),
    levels=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_edge_prob_consistent_with_dense_for_small_grids(entries, levels, data):
    rows = [entries[:2], entries[2:]]
    cfg = make_config(rows, levels, 1)
    dense = kronecker_power(cfg.theta, levels)
    i = data.draw(st.integers(min_value=0, max_value=cfg.n_nodes - 1))
    j = data.draw(st.integers(min_value=0, max_value=cfg.n_nodes - 1))
    assert edge_prob(cfg, i, j) == pytest.approx(dense.probs[i, j], rel=1e-12, abs=1e-300)


def rv_count_oracle(base, levels, untied):
    """Direct summation of grid cells over every sweep level."""
    total = 0
    for lam in range(levels - untied + 1):
        side = base ** (untied + lam)
        total += side * side
    return total


def test_ci_rv_count_frozen(worked_cfg):
    assert ci_rv_count(worked_cfg) == 80


def test_ci_rv_count_frozen_base3():
    cfg = make_config(
        [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 2, 1
    )
    assert ci_rv_count(cfg) == 90


@pytest.mark.parametrize("base", [2, 3])
@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
def test_ci_rv_count_matches_summation_oracle(base, levels):
    rows = [[0.5] * base for _ in range(base)]
    for untied in range(1, levels + 1):
        cfg = make_config(rows, levels, untied)
        assert ci_rv_count(cfg) == rv_count_oracle(base, levels, untied)


def test_ci_rv_count_matches_closed_form_wide_sweep():
    # summation equals ((b^2)^(K+1) - (b^2)^ell) / (b^2 - 1) everywhere
    for base in (2, 3):
        rows = [[0.5] * base for _ in range(base)]
        bb = base * base
        for levels in range(1, 11):
            for untied in range(1, levels + 1):
                cfg = make_config(rows, levels, untied)
                closed = (bb ** (levels + 1) - bb**untied) // (bb - 1)
                assert ci_rv_count(cfg) == closed


def test_expected_active_final_level_below_grid_size():
    # any entry below one keeps the expected final actives under the cell count
    for rows, levels, untied in [
        ([[0.9, 0.7], [0.5, 0.3]], 3, 2),
        ([[1.0, 1.0], [1.0, 0.999]], 4, 1),
        ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 3, 1),
    ]:
        cfg = make_config(rows, levels, untied)
        n = cfg.n_nodes
        assert expected_active(cfg, cfg.tied_levels) < n * n


def test_edge_prob_matches_dense_at_64_nodes():
    cfg = make_config(WORKED_THETA, 6, 1)
    dense = kronecker_power(cfg.theta, 6)
    for i in range(64):
        for j in range(64):
            assert edge_prob(cfg, i, j) == pytest.approx(
                dense.probs[i, j], rel=1e-12, abs=1e-300
            )


@pytest.mark.parametrize(
    "rows,levels",
    [
        pytest.param(WORKED_THETA, 7, id="b2-K7"),
        pytest.param([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 4, id="b3-K4"),
    ],
)
def test_edge_prob_equals_dense_grid_bit_for_bit(rows, levels):
    # digits multiplied outermost first, as kronecker_power does
    cfg = make_config(rows, levels, 1)
    dense = kronecker_power(cfg.theta, levels).probs
    exact = [[edge_prob(cfg, i, j) for j in range(cfg.n_nodes)] for i in range(cfg.n_nodes)]
    np.testing.assert_array_equal(np.array(exact), dense)


def test_ci_rv_count_overflow():
    cfg = make_config([[0.5, 0.5], [0.5, 0.5]], 35, 1)
    with pytest.raises(Overflow):
        ci_rv_count(cfg)


def test_dcsd_ebound_frozen(worked_cfg):
    assert dcsd_ebound(worked_cfg) == 64


def test_dcsd_ebound_frozen_base2_k4():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 4, 2)
    # (K - ell + 1) * b**(K + 2) = 3 * 2**6
    assert dcsd_ebound(cfg) == 192


def test_dcsd_ebound_frozen_base3():
    cfg = make_config(
        [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 2, 1
    )
    # 2 * 3**4
    assert dcsd_ebound(cfg) == 162


def test_dcsd_ebound_k3_ell1():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 1)
    # 3 * 2**5
    assert dcsd_ebound(cfg) == 96


def test_expected_active_frozen(worked_cfg):
    assert expected_active(worked_cfg, 0) == pytest.approx(2.4**2, rel=1e-12)
    assert expected_active(worked_cfg, 1) == pytest.approx(13.824, rel=1e-12)


def test_expected_active_oracle():
    rows = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
    cfg = make_config(rows, 3, 1)
    mass = sum(sum(r) for r in rows)
    for lam in range(cfg.tied_levels + 1):
        assert expected_active(cfg, lam) == pytest.approx(
            mass ** (1 + lam), rel=1e-12
        )


def test_expected_active_rejects_out_of_range(worked_cfg):
    with pytest.raises(BadArgs):
        expected_active(worked_cfg, -1)
    with pytest.raises(BadArgs):
        expected_active(worked_cfg, worked_cfg.tied_levels + 1)


def test_formula_ordering_holds_across_configs():
    # pruned-sweep expectation stays below the full-sweep count
    for base, levels, untied in [(2, 3, 2), (2, 5, 1), (3, 3, 2), (3, 4, 1)]:
        rows = [[0.5] * base for _ in range(base)]
        cfg = make_config(rows, levels, untied)
        expected_total = sum(
            expected_active(cfg, lam) for lam in range(cfg.tied_levels + 1)
        )
        assert expected_total < ci_rv_count(cfg)


def test_dense_prob_matrix_is_read_only(worked_cfg):
    dense = kronecker_power(worked_cfg.theta, 2)
    with pytest.raises(ValueError):
        dense.probs[0, 0] = 0.5


def test_kron_power_one_is_theta(worked_cfg):
    np.testing.assert_array_equal(
        kronecker_power(worked_cfg.theta, 1).probs, worked_cfg.theta.entries
    )


def test_row_sums_multiply():
    # mass of the dense grid is mass(theta) ** power
    theta = ThetaMatrix(WORKED_THETA)
    for power in (1, 2, 3):
        dense = kronecker_power(theta, power)
        assert float(dense.probs.sum()) == pytest.approx(
            theta.mass**power, rel=1e-12
        )


def _ones_start_power(ent, power):
    """The power as one Kronecker step per level from a leading 1x1 one."""
    return fold(np.ones((1, 1)), ent, power)


def _ones_start_row_blocks(ent, levels, max_cells):
    """Row blocks built from a leading 1x1 one, one digit row at a time."""
    b = ent.shape[0]
    side = b**levels
    low = 0
    while low < levels and b ** (low + 1) * side <= max_cells:
        low += 1
    for digits in np.ndindex(*(b,) * (levels - low)):
        prefix = np.ones((1, 1))
        for d in digits:
            prefix = fold(prefix, ent[d : d + 1], 1)
        yield fold(prefix, ent, low)


@pytest.mark.parametrize(
    "rows",
    [
        [[0.9, 0.7], [0.5, 0.3]],
        [[0.91, 0.63, 0.37], [0.61, 0.53, 0.23], [0.33, 0.27, 0.11]],
    ],
)
@pytest.mark.parametrize("levels", range(1, 7))
def test_products_equal_ones_start_exactly(rows, levels):
    theta = ThetaMatrix(rows)
    ent = theta.entries
    np.testing.assert_array_equal(
        kronecker_power(theta, levels).probs, _ones_start_power(ent, levels)
    )
    side = theta.side**levels
    # a bound of one cell gives one row per block; side * side gives one
    # block with no shared digits
    for max_cells in (1, theta.side * side, side * side):
        got = list(row_blocks(theta, levels, max_cells))
        expected = list(_ones_start_row_blocks(ent, levels, max_cells))
        assert len(got) == len(expected)
        for block, ref in zip(got, expected):
            np.testing.assert_array_equal(block, ref)


def parent_mask_reference(parent_active, uniforms, theta_flat, b, parent_side):
    # one cell at a time, straight from the model's definition
    side = parent_side * b
    out = np.zeros(uniforms.shape[0], dtype=bool)
    for f in range(uniforms.shape[0]):
        r, c = divmod(f, side)
        if parent_active[(r // b) * parent_side + c // b]:
            out[f] = uniforms[f] < theta_flat[(r % b) * b + c % b]
    return out


@pytest.mark.parametrize("b,parent_side,seed", [(2, 16, 10), (2, 5, 11), (3, 7, 12), (3, 4, 13)])
def test_fold_of_parent_mask_matches_cellwise_reference(b, parent_side, seed):
    # ci's tied levels compare each child's uniform with one fold of the
    # boolean parent mask by theta: a dead parent's children get exactly 0
    rng = np.random.default_rng(seed)
    parent_active = rng.random(parent_side * parent_side) < 0.4
    assert 0 < parent_active.sum() < parent_active.size  # dead parents included
    uniforms = rng.random((parent_side * b) ** 2)
    theta_flat = rng.random(b * b)
    probs = fold(parent_active.reshape(parent_side, parent_side), theta_flat.reshape(b, b), 1)
    mask = uniforms < probs.ravel()
    np.testing.assert_array_equal(
        mask, parent_mask_reference(parent_active, uniforms, theta_flat, b, parent_side)
    )
