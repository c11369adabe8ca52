import numpy as np
import pytest

from kronnet import _kernels as kernels


def random_case(seed, n_active, b):
    rng = np.random.default_rng(seed)
    side = 64
    flat = rng.choice(side * side, size=n_active, replace=False)
    flat.sort()
    rows = (flat // side).astype(np.int64)
    cols = (flat % side).astype(np.int64)
    theta_flat = rng.random(b * b)
    uniforms = rng.random(n_active * b * b)
    return rows, cols, uniforms, theta_flat


def expand_active_reference(rows, cols, uniforms, theta_flat, b):
    bb = b * b
    out = [
        (rows[p] * b + q // b, cols[p] * b + q % b)
        for p in range(rows.size)
        for q in range(bb)
        if uniforms[p * bb + q] < theta_flat[q]
    ]
    return [r for r, _ in out], [c for _, c in out]


@pytest.mark.parametrize("b,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_expand_active_matches_reference(b, seed):
    rows, cols, uniforms, theta_flat = random_case(seed, n_active=50, b=b)
    r, c = kernels.expand_active(rows, cols, uniforms, theta_flat, b)
    ref_r, ref_c = expand_active_reference(rows, cols, uniforms, theta_flat, b)
    assert r.tolist() == ref_r and c.tolist() == ref_c


def test_expand_active_empty_input():
    empty = np.empty(0, dtype=np.int64)
    r, c = kernels.expand_active(
        empty, empty, np.empty(0), np.array([0.5, 0.5, 0.5, 0.5]), 2
    )
    assert r.size == 0 and c.size == 0


def test_expand_active_oracle_tiny():
    # one parent at (1, 2), thresholds hand-picked around the uniforms
    rows = np.array([1], dtype=np.int64)
    cols = np.array([2], dtype=np.int64)
    theta_flat = np.array([0.9, 0.1, 0.6, 0.4])
    uniforms = np.array([0.5, 0.05, 0.7, 0.39])
    # kept offsets: 0 (0.5 < 0.9), 1 (0.05 < 0.1), 3 (0.39 < 0.4)
    r, c = kernels.expand_active(rows, cols, uniforms, theta_flat, 2)
    assert list(zip(r.tolist(), c.tolist())) == [(2, 4), (2, 5), (3, 5)]
