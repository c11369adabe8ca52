"""Network samplers: dense per-cell, full sweep, pruned sweep, and grouped.

All strategies draw the same model:

* Level 0 realizes the grid of side**untied_levels cells whose probabilities
  come from the dense untied product matrix.  Every strategy draws it with
  one sweep (``naive`` over all ``levels``): one uniform per cell, row-major,
  probabilities cached per engine under ``dense_cap`` and computed row by
  row above it, with the same draws either way.
* Each tied level replaces every realized cell with a side x side block of
  candidate children; child (dr, dc) survives with probability
  ``theta[dr, dc]``, and children of unrealized cells never survive.
* The cells realized at the last level are the network's edges (optionally
  filtered by the directed / self-loop mode, which never alters sampling).

They differ only in which random variables they touch:

* ``naive``: every cell of the final untied grid directly (plain model).
* ``ci``: every candidate cell at every level, dead parents included.
* ``dcsd``: only children of realized cells; dead subtrees are pruned.
* ``gp``: like dcsd, but each tied level draws one binomial count per
  distinct seed value and places that many children uniformly, instead of
  per-cell Bernoullis.  On the plain model (no tied levels) it draws one
  binomial count per whole-grid probability group instead of sweeping
  level 0, unless the grouping exceeds the fixed cap of ``grid_groups``
  (``DEFAULT_GROUP_CAP`` exponent multisets).

Randomness is consumed per level from ``rng.level_rng(seed, level)`` in a
documented order (cells row-major; pruned candidates parent-major with
blocks row-major; groups by descending value or probability, count then
placement), which makes every run reproducible and lets the full-sweep
sampler match the Bayesian-network ancestral sampler draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np

from ._kernels import expand_active, masked_grid_select
from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig
from .errors import BadArgs, CapExceeded, GroupCapExceeded, Overflow
from .groups import grid_groups, theta_value_classes, unrank_grid_cell
from .kron import ci_rv_count, index_digits, kronecker_power
from .randvar import binomial_draw, choose_without_replacement
from .rng import check_seed, level_rng

# Dense per-cell draws take their uniforms this many at a time: the same
# stream, without a fresh grid-sized array (and its page faults) per run.
_DRAW_CHUNK = 1 << 20


def _below(stream: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """``stream.random(probs.size) < probs``, drawn in chunks."""
    out = np.empty(probs.size, dtype=bool)
    for lo in range(0, probs.size, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, probs.size)
        np.less(stream.random(hi - lo), probs[lo:hi], out=out[lo:hi])
    return out


def _grouped_draw(size: int, prob: float, stream: np.random.Generator) -> np.ndarray:
    """Ranks in [0, size) of the realized cells of one equal-probability group.

    A binomial count, then that many distinct ranks placed uniformly; every
    rank when ``prob`` is 1, since Floyd placement would still consume draws.
    """
    if prob == 0.0:
        # A zero group of the whole grid may hold more than 2**63 cells,
        # beyond what binomial_draw accepts.
        return np.empty(0, dtype=np.int64)
    count = binomial_draw(size, prob, stream)
    if prob == 1.0:
        return np.arange(size, dtype=np.int64)
    return np.asarray(choose_without_replacement(size, count, stream), dtype=np.int64)


class Strategy(str, Enum):
    """Sampling strategies exposed by the CLI and the verification harness."""

    NAIVE = "naive"
    CI = "ci"
    DCSD = "dcsd"
    GP = "gp"


@dataclass(frozen=True)
class LevelTrace:
    """Accounting for one sampling level."""

    level: int
    rvs_examined: int
    rvs_active: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise BadArgs(f"level must be >= 0, got {self.level}")
        if not (0 <= self.rvs_active <= self.rvs_examined):
            raise BadArgs(
                f"need 0 <= rvs_active <= rvs_examined, got "
                f"active={self.rvs_active} examined={self.rvs_examined}"
            )


@dataclass(frozen=True)
class SampleTrace:
    """Per-level RV accounting for one run."""

    seed: int
    strategy: Strategy
    per_level: tuple[LevelTrace, ...]

    def __post_init__(self) -> None:
        for pos, entry in enumerate(self.per_level):
            if entry.level != pos:
                raise BadArgs("per_level records must be consecutive from level 0")

    @property
    def total_examined(self) -> int:
        return sum(entry.rvs_examined for entry in self.per_level)

    @property
    def total_active(self) -> int:
        return sum(entry.rvs_active for entry in self.per_level)

    @property
    def final_active(self) -> int:
        return self.per_level[-1].rvs_active


@dataclass(frozen=True, eq=False)
class SampledNetwork:
    """A sampled network: node count plus sorted duplicate-free edge list."""

    n_nodes: int
    edges: np.ndarray
    directed: bool = True

    def __post_init__(self) -> None:
        edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise BadArgs(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.shape[0] > 1:
            r0, r1 = edges[:-1, 0], edges[1:, 0]
            c0, c1 = edges[:-1, 1], edges[1:, 1]
            if not bool(((r1 > r0) | ((r1 == r0) & (c1 > c0))).all()):
                raise BadArgs("edges must be strictly increasing in (row, col) order")
        if edges.size and (edges.min() < 0 or edges.max() >= self.n_nodes):
            raise BadArgs(f"edge endpoints outside [0, {self.n_nodes})")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])


def finalize_edges(cfg: ModelConfig, rows: np.ndarray, cols: np.ndarray) -> SampledNetwork:
    """Apply the edge-mode filter to final-level cells and build the network.

    Sampling itself always works on the full grid; undirected mode keeps only
    cells with row < col, and loop-free directed mode drops the diagonal.
    """
    if not cfg.directed:
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
    elif not cfg.self_loops:
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
    edges = (
        np.column_stack([rows, cols])
        if rows.size
        else np.empty((0, 2), dtype=np.int64)
    )
    return SampledNetwork(n_nodes=cfg.n_nodes, edges=edges, directed=cfg.directed)


class ModelSampler:
    """Reusable sampling engine for one configuration.

    Caches the level-0 probabilities (per level count, when they fit under
    ``dense_cap``), the seed-value classes, and on the first ``gp`` run the
    whole-grid probability groups, so repeated runs (verification,
    benchmarks) avoid redundant setup.
    """

    def __init__(self, cfg: ModelConfig, *, dense_cap: int = DEFAULT_DENSE_CAP) -> None:
        self.cfg = cfg
        if cfg.n_nodes > I64_MAX:
            raise Overflow(
                f"{cfg.n_nodes} nodes exceed signed 64-bit index arithmetic"
            )
        if dense_cap < 1:
            raise BadArgs("dense_cap must be positive")
        self.dense_cap = int(dense_cap)
        self.b = cfg.b
        self.side0 = cfg.b**cfg.untied_levels
        self.theta_flat = cfg.theta.flat
        self._classes = theta_value_classes(cfg.theta)
        self._class_pos = [
            np.asarray(cls.positions, dtype=np.int64) for cls in self._classes
        ]
        self._probs: dict[int, np.ndarray] = {}

    # -- the level-0 sweep shared by every strategy ------------------------

    def _sweep(self, seed: int, levels: int) -> np.ndarray:
        """Flat row-major indices of the realized cells of the ``levels``-fold grid.

        One uniform per cell, row-major, from ``level_rng(seed, 0)``.  Grids
        that fit under ``dense_cap`` keep their probabilities cached; larger
        ones are streamed row by row with the same draws and O(side) memory.
        """
        side = self.b**levels
        stream = level_rng(seed, 0)
        if side * side <= self.dense_cap:
            probs = self._probs.get(levels)
            if probs is None:
                probs = kronecker_power(
                    self.cfg.theta, levels, dense_cap=self.dense_cap
                ).flat
                self._probs[levels] = probs
            return np.flatnonzero(_below(stream, probs))
        ent = self.cfg.theta.entries
        hits = []
        for row in range(side):
            digits = index_digits(row, self.b, levels)
            probs = ent[digits[0]]
            for d in digits[1:]:
                probs = np.kron(probs, ent[d])
            hits.append(np.flatnonzero(stream.random(side) < probs) + row * side)
        return np.concatenate(hits)

    def _level0(self, seed: int, override: Iterable[int] | None) -> np.ndarray:
        """Flat indices of the realized untied-stage cells, or the override's."""
        if override is None:
            return self._sweep(seed, self.cfg.untied_levels)
        cells = self.side0 * self.side0
        idx = np.asarray(sorted({int(v) for v in override}), dtype=np.int64)
        if idx.size and (idx[0] < 0 or idx[-1] >= cells):
            raise BadArgs(f"override cell index outside [0, {cells})")
        return idx

    # -- strategies --------------------------------------------------------

    def _run_naive(self, seed: int):
        n = self.cfg.n_nodes
        cells = n * n
        if cells > self.dense_cap:
            raise CapExceeded(
                f"naive sampling needs {cells} dense cells, above the cap "
                f"{self.dense_cap}; use the dcsd or gp strategy instead"
            )
        idx = self._sweep(seed, self.cfg.levels)
        return idx // n, idx % n, [(0, cells, int(idx.size))]

    @cached_property
    def _ci_total(self) -> int:
        # Lazy: ci_rv_count overflows at level counts dcsd still samples.
        return ci_rv_count(self.cfg)

    def _run_ci(self, seed: int, override):
        if self._ci_total > self.dense_cap:
            raise CapExceeded(
                f"full sweep examines {self._ci_total} RVs, above the cap "
                f"{self.dense_cap}; use the dcsd or gp strategy instead"
            )
        side = self.side0
        idx = self._level0(seed, override)
        trace = [(0, side * side, int(idx.size))]
        if self.cfg.tied_levels:
            active = np.zeros(side * side, dtype=bool)
            active[idx] = True
            for lam in range(1, self.cfg.tied_levels + 1):
                parent_side = side
                side *= self.b
                uniforms = level_rng(seed, lam).random(side * side)
                active = masked_grid_select(
                    active, uniforms, self.theta_flat, self.b, parent_side
                )
                trace.append((lam, side * side, int(active.sum())))
            idx = np.flatnonzero(active)
        return idx // side, idx % side, trace

    def _run_dcsd(self, seed: int, override):
        idx = self._level0(seed, override)
        rows, cols = idx // self.side0, idx % self.side0
        trace = [(0, self.side0 * self.side0, int(idx.size))]
        bb = self.b * self.b
        for lam in range(1, self.cfg.tied_levels + 1):
            n_prev = int(rows.size)
            uniforms = level_rng(seed, lam).random(n_prev * bb)
            rows, cols = expand_active(rows, cols, uniforms, self.theta_flat, self.b)
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            trace.append((lam, n_prev * bb, int(rows.size)))
        return rows, cols, trace

    @cached_property
    def _grid_tables(self):
        """Whole-grid groups for ``gp``, or None to sweep level 0 instead.

        Only the plain model has whole-grid groups.  A grouping above the
        fixed cap of ``grid_groups`` falls back to the level-0 sweep, which
        draws the same per-cell marginals; the choice is made once per engine.
        """
        if self.cfg.tied_levels:
            return None
        try:
            return grid_groups(self.cfg)
        except GroupCapExceeded:
            return None

    def _run_gp(self, seed: int, override):
        if override is None and self._grid_tables is not None:
            return self._run_grid_gp(seed)
        idx = self._level0(seed, override)
        rows, cols = idx // self.side0, idx % self.side0
        trace = [(0, self.side0 * self.side0, int(idx.size))]
        b = self.b
        for lam in range(1, self.cfg.tied_levels + 1):
            stream = level_rng(seed, lam)
            n_prev = int(rows.size)
            # Empty classes are skipped (their array work is a sixth of a
            # sparse level); the empty first part keeps concatenate valid.
            parts_r = [rows[:0]]
            parts_c = [cols[:0]]
            for cls, positions in zip(self._classes, self._class_pos):
                m = positions.size
                ranks = _grouped_draw(n_prev * m, cls.value, stream)
                if not ranks.size:
                    continue
                parent_idx = ranks // m
                offsets = positions[ranks % m]
                parts_r.append(rows[parent_idx] * b + offsets // b)
                parts_c.append(cols[parent_idx] * b + offsets % b)
            rows = np.concatenate(parts_r)
            cols = np.concatenate(parts_c)
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            trace.append((lam, n_prev * b * b, int(rows.size)))
        return rows, cols, trace

    def _run_grid_gp(self, seed: int):
        cfg = self.cfg
        classes, groups = self._grid_tables
        stream = level_rng(seed, 0)
        cells = sorted(
            unrank_grid_cell(group, classes, cfg.levels, self.b, rank)
            for group in groups
            for rank in _grouped_draw(group.size, group.prob, stream).tolist()
        )
        edges = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        examined = (self.b * self.b) ** cfg.levels
        return edges[:, 0], edges[:, 1], [(0, examined, len(cells))]

    # -- entry point --------------------------------------------------------

    def run(
        self,
        strategy: Strategy | str,
        seed: int,
        *,
        level0_override: Iterable[int] | None = None,
    ) -> tuple[SampledNetwork, SampleTrace]:
        """Sample once; returns the network and its RV-accounting trace.

        ``level0_override`` is a test-only hook replacing the realized level-0
        cells (given as flat indices) while leaving deeper levels' streams
        untouched; it is rejected for the naive strategy, which has no levels,
        and makes ``gp`` sweep level 0 even on the plain model.
        """
        strategy = Strategy(strategy)
        seed = check_seed(seed)
        if strategy is Strategy.NAIVE:
            if level0_override is not None:
                raise BadArgs("level0_override does not apply to the naive strategy")
            rows, cols, trace = self._run_naive(seed)
        elif strategy is Strategy.CI:
            rows, cols, trace = self._run_ci(seed, level0_override)
        elif strategy is Strategy.DCSD:
            rows, cols, trace = self._run_dcsd(seed, level0_override)
        else:
            rows, cols, trace = self._run_gp(seed, level0_override)
        return finalize_edges(self.cfg, rows, cols), SampleTrace(
            seed=seed,
            strategy=strategy,
            per_level=tuple(LevelTrace(*entry) for entry in trace),
        )


def sample(
    cfg: ModelConfig,
    strategy: Strategy | str,
    seed: int,
    *,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> tuple[SampledNetwork, SampleTrace]:
    """Dispatch on strategy name; the entry point used by the CLI."""
    return ModelSampler(cfg, dense_cap=dense_cap).run(strategy, seed)
