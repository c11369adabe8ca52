"""Dense Kronecker-power probabilities and exact complexity formulas.

The network model assigns each cell (i, j) of an n x n grid, n = side**levels,
the probability obtained by multiplying one seed entry per level: writing i
and j in base ``side`` with ``levels`` digits (most significant first), level
d contributes ``theta[digit_d(i), digit_d(j)]``.  Equivalently the full grid
is the ``levels``-fold Kronecker power of the seed matrix, with the first
digit selecting the outermost factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import DEFAULT_DENSE_CAP, U64_MAX, ModelConfig, ThetaMatrix, check_int
from .errors import BadArgs, CapExceeded, IndexOutOfRange, Overflow


@dataclass(frozen=True)
class DenseProbMatrix:
    """Dense per-cell probability grid, row-major.

    Attributes:
        side: grid is side x side.
        probs: float64 array of shape (side, side), read-only.
    """

    side: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if arr.shape != (self.side, self.side):
            raise BadArgs(f"probs shape {arr.shape} does not match side {self.side}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


def fold(mat: np.ndarray, ent: np.ndarray, times: int) -> np.ndarray:
    """``mat`` Kronecker-multiplied on the right by ``ent``, ``times`` times.

    Cell values are products of their factors in level order, outermost
    first, so a grid built in pieces matches one built whole bit for bit.
    ``mat`` may be boolean: a False cell's products are exactly 0.
    """
    b_rows, b_cols = ent.shape
    for _ in range(times):
        rows, cols = mat.shape
        # Cell (r*b_rows + dr, c*b_cols + dc) is mat[r, c] * ent[dr, dc].
        # Repeating mat's entries and tiling ent gives whole-row inner loops,
        # where a 4-axis broadcast would loop over only b_cols cells.
        wide = mat.repeat(b_cols, axis=1)
        tiled = ent[:, None, :].repeat(cols, axis=1).reshape(b_rows, -1)
        mat = (wide[:, None, :] * tiled).reshape(rows * b_rows, cols * b_cols)
    return mat


def kronecker_power(theta: ThetaMatrix, power: int, *, dense_cap: int = DEFAULT_DENSE_CAP) -> DenseProbMatrix:
    """Materialize the ``power``-fold Kronecker power of the seed matrix.

    The first base-``side`` digit of a row/column index addresses the
    outermost factor.  Refuses to allocate more than ``dense_cap`` entries.

    Raises:
        BadArgs: ``power`` or ``dense_cap`` is not an integer, or power < 1.
        CapExceeded: (side**power)**2 exceeds ``dense_cap``.
    """
    power = check_int(power, "power")
    dense_cap = check_int(dense_cap, "dense_cap")
    if power < 1:
        raise BadArgs(f"power must be >= 1, got {power}")
    side = theta.side**power
    if side * side > dense_cap:
        raise CapExceeded(
            f"dense grid of {side}x{side} = {side * side} entries exceeds cap "
            f"{dense_cap}; use the dcsd or gp strategy for large level counts"
        )
    return DenseProbMatrix(side=side, probs=fold(theta.entries, theta.entries, power - 1))


def row_blocks(theta: ThetaMatrix, levels: int, max_cells: int) -> Iterator[np.ndarray]:
    """Consecutive row blocks of the ``levels``-fold Kronecker power.

    A block holds the rows that share their top ``levels - low`` base-``side``
    digits, with ``low`` the largest level count whose block stays within
    ``max_cells`` cells (one row when even that is wider).  Each block is the
    1-row product over its shared row digits folded ``low`` more times, so its
    values equal ``kronecker_power``'s bit for bit.  ``levels`` must be >= 1.
    """
    b = theta.side
    ent = theta.entries
    side = b**levels
    low = 0
    while low < levels and b ** (low + 1) * side <= max_cells:
        low += 1
    for digits in np.ndindex(*(b,) * (levels - low)):
        # One factor per shared digit (a seed row), then ``low`` whole seeds,
        # multiplied left to right from the first factor.
        factors = [ent[d : d + 1] for d in digits] + [ent] * low
        block = factors[0]
        for factor in factors[1:]:
            block = fold(block, factor, 1)
        yield block


def _digit_product(theta: ThetaMatrix, row: int, col: int, levels: int) -> float:
    """Product of the seed entries that the ``levels`` base-``side`` digits
    of (row, col) select, outermost first, as ``kronecker_power`` multiplies
    them, so the two agree bit for bit."""
    b = theta.side
    ent = theta.entries
    prob = 1.0
    for shift in reversed(range(levels)):
        scale = b**shift
        prob *= float(ent[row // scale % b, col // scale % b])
    return prob


def edge_prob(cfg: ModelConfig, row: int, col: int) -> float:
    """Probability of cell (row, col) under the untied model.

    The product of one seed entry per level selected by the base-``side``
    digits of the indices, multiplied outermost first without materializing
    the grid: bit for bit the entry of ``kronecker_power``'s grid.

    Raises:
        BadArgs: an index is not an integer.
        IndexOutOfRange: an index lies outside [0, n_nodes).
    """
    row = check_int(row, "row")
    col = check_int(col, "col")
    n = cfg.n_nodes
    if not (0 <= row < n) or not (0 <= col < n):
        raise IndexOutOfRange(f"cell ({row}, {col}) outside [0, {n})^2")
    return _digit_product(cfg.theta, row, col, cfg.levels)


def ci_rv_count(cfg: ModelConfig) -> int:
    """Exact number of random variables a full per-cell sweep examines.

    Sums the grid sizes of every level from the untied stage onward, in
    closed form: sum over lam in [0, tied_levels] of (side**(untied_levels + lam))**2.
    With untied_levels == levels this is just n_nodes**2.

    Raises:
        Overflow: the exact count exceeds the unsigned 64-bit range.
    """
    b2 = cfg.b * cfg.b
    total = b2**cfg.untied_levels * (b2 ** (cfg.tied_levels + 1) - 1) // (b2 - 1)
    if total > U64_MAX:
        raise Overflow(f"examined-RV count {total} exceeds the 64-bit range")
    return total


def expected_active(cfg: ModelConfig, tied_level: int) -> float:
    """Expected number of realized cells after tied level ``tied_level``.

    ``tied_level`` 0 refers to the grid sampled from the dense untied-stage
    probabilities; each later level multiplies the expectation by the total
    seed mass, giving mass**(untied_levels + tied_level).

    Raises:
        BadArgs: tied_level is not an integer or lies outside [0, tied_levels].
    """
    tied_level = check_int(tied_level, "tied_level")
    if not (0 <= tied_level <= cfg.tied_levels):
        raise BadArgs(
            f"tied_level must lie in [0, {cfg.tied_levels}], got {tied_level}"
        )
    return float(cfg.theta.mass ** (cfg.untied_levels + tied_level))


def dcsd_ebound(cfg: ModelConfig) -> int:
    """Closed-form ceiling on expected RVs examined by the pruned sampler.

    Equals (tied_levels + 1) * side**(levels + 2).  Meaningful as a bound on
    the expected examined count when the model is sparse (seed mass <= side).

    Raises:
        Overflow: the exact value exceeds the unsigned 64-bit range.
    """
    value = (cfg.tied_levels + 1) * cfg.b ** (cfg.levels + 2)
    if value > U64_MAX:
        raise Overflow(f"bound {value} exceeds the 64-bit range")
    return value
