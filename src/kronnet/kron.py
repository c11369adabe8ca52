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

import numpy as np

from .config import DEFAULT_DENSE_CAP, U64_MAX, ModelConfig, ThetaMatrix
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

    @property
    def flat(self) -> np.ndarray:
        return self.probs.reshape(-1)


def index_digits(index: int, base: int, width: int) -> tuple[int, ...]:
    """Base-``base`` digits of ``index``, most significant first, fixed width."""
    digits = []
    rem = index
    for _ in range(width):
        digits.append(rem % base)
        rem //= base
    return tuple(reversed(digits))


def kronecker_power(theta: ThetaMatrix, power: int, *, dense_cap: int = DEFAULT_DENSE_CAP) -> DenseProbMatrix:
    """Materialize the ``power``-fold Kronecker power of the seed matrix.

    The first base-``side`` digit of a row/column index addresses the
    outermost factor.  Refuses to allocate more than ``dense_cap`` entries.

    Raises:
        BadArgs: power < 1.
        CapExceeded: (side**power)**2 exceeds ``dense_cap``.
    """
    if power < 1:
        raise BadArgs(f"power must be >= 1, got {power}")
    side = theta.side**power
    if side * side > dense_cap:
        raise CapExceeded(
            f"dense grid of {side}x{side} = {side * side} entries exceeds cap "
            f"{dense_cap}; use the dcsd or gp strategy for large level counts"
        )
    ent = theta.entries
    out = ent
    for _ in range(power - 1):
        # np.kron(out, ent) by broadcasting: the same products in the same
        # order, without np.kron's per-call overhead.
        n = out.shape[0] * theta.side
        out = (out[:, None, :, None] * ent[None, :, None, :]).reshape(n, n)
    return DenseProbMatrix(side=side, probs=out)


def edge_prob(cfg: ModelConfig, row: int, col: int) -> float:
    """Probability of cell (row, col) under the untied model.

    Computed as the product of one seed entry per level selected by the
    base-``side`` digits of the indices, without materializing the grid.
    The product of ``levels`` floats carries a worst-case relative error
    of about ``levels`` times machine epsilon.

    Raises:
        IndexOutOfRange: an index lies outside [0, n_nodes).
    """
    n = cfg.n_nodes
    if not (0 <= row < n) or not (0 <= col < n):
        raise IndexOutOfRange(f"cell ({row}, {col}) outside [0, {n})^2")
    b = cfg.b
    ent = cfg.theta.entries
    prob = 1.0
    r, c = row, col
    for _ in range(cfg.levels):
        r, rd = divmod(r, b)
        c, cd = divmod(c, b)
        prob *= float(ent[rd, cd])
    return prob


def ci_rv_count(cfg: ModelConfig) -> int:
    """Exact number of random variables a full per-cell sweep examines.

    Sums the grid sizes of every level from the untied stage onward:
    sum over lam in [0, tied_levels] of (side**(untied_levels + lam))**2.
    With untied_levels == levels this is just n_nodes**2.

    Raises:
        Overflow: the exact count exceeds the unsigned 64-bit range.
    """
    b2 = cfg.b * cfg.b
    total = sum(b2 ** (cfg.untied_levels + lam) for lam in range(cfg.tied_levels + 1))
    if total > U64_MAX:
        raise Overflow(f"examined-RV count {total} exceeds the 64-bit range")
    return total


def expected_active(cfg: ModelConfig, tied_level: int) -> float:
    """Expected number of realized cells after tied level ``tied_level``.

    ``tied_level`` 0 refers to the grid sampled from the dense untied-stage
    probabilities; each later level multiplies the expectation by the total
    seed mass, giving mass**(untied_levels + tied_level).

    Raises:
        BadArgs: tied_level outside [0, tied_levels].
    """
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
