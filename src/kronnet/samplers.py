"""Network samplers: dense per-cell, full sweep, pruned sweep, and grouped.

All strategies draw the same model:

* Level 0 realizes the grid of side**untied_levels cells whose probabilities
  come from the dense untied product matrix.
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
  level 0, unless the grouping exceeds ``group_cap``.

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
from typing import Iterable, Sequence

import numpy as np

from ._kernels import expand_active, masked_grid_select
from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig
from .errors import BadArgs, CapExceeded, GroupCapExceeded, Overflow
from .groups import (
    DEFAULT_GROUP_CAP,
    grid_groups,
    theta_value_classes,
    unrank_grid_cell,
)
from .kron import ci_rv_count, index_digits, kronecker_power
from .randvar import binomial_draw, choose_without_replacement
from .rng import check_seed, level_rng

# Dense level-0 grids are precomputed up to this many entries; larger untied
# stages are sampled row by row with identical draws and O(side) memory.
_LEVEL0_DENSE_MAX = 1 << 22

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


def _normalize_override(override: Iterable[int], side: int) -> np.ndarray:
    idx = sorted({int(v) for v in override})
    arr = np.asarray(idx, dtype=np.int64).reshape(-1)
    if arr.size and (arr[0] < 0 or arr[-1] >= side * side):
        raise BadArgs(f"override cell index outside [0, {side * side})")
    return arr


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

    Precomputes the dense untied-stage probabilities (when small enough),
    the seed-value classes, and on the first ``gp`` run the whole-grid
    probability groups, so repeated runs (verification, benchmarks) avoid
    redundant setup.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        *,
        dense_cap: int = DEFAULT_DENSE_CAP,
        group_cap: int = DEFAULT_GROUP_CAP,
    ) -> None:
        self.cfg = cfg
        if cfg.n_nodes > I64_MAX:
            raise Overflow(
                f"{cfg.n_nodes} nodes exceed signed 64-bit index arithmetic"
            )
        if dense_cap < 1 or group_cap < 1:
            raise BadArgs("caps must be positive")
        self.dense_cap = int(dense_cap)
        self.group_cap = int(group_cap)
        self.b = cfg.b
        self.side0 = cfg.b**cfg.untied_levels
        self.theta_flat = cfg.theta.flat
        self._classes = theta_value_classes(cfg.theta)
        self._class_pos = [
            np.asarray(cls.positions, dtype=np.int64) for cls in self._classes
        ]
        self._level0_probs: np.ndarray | None = None
        if self.side0 * self.side0 <= min(self.dense_cap, _LEVEL0_DENSE_MAX):
            self._level0_probs = kronecker_power(
                cfg.theta, cfg.untied_levels, dense_cap=self.dense_cap
            ).flat
        self._full_probs: np.ndarray | None = None

    # -- shared level-0 handling ------------------------------------------

    def _level0_dense(self) -> np.ndarray:
        """Dense untied-stage probabilities; respects the entry cap."""
        if self._level0_probs is None:
            self._level0_probs = kronecker_power(
                self.cfg.theta, self.cfg.untied_levels, dense_cap=self.dense_cap
            ).flat
        return self._level0_probs

    def _untied_row_probs(self, row: int) -> np.ndarray:
        ent = self.cfg.theta.entries
        digits = index_digits(row, self.b, self.cfg.untied_levels)
        probs = ent[digits[0], :]
        for d in digits[1:]:
            probs = np.kron(probs, ent[d, :])
        return probs

    def _level0_cells(
        self, seed: int, override: Iterable[int] | None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Realize level 0 sparsely; returns (rows, cols, examined)."""
        side0 = self.side0
        examined = side0 * side0
        if override is not None:
            idx = _normalize_override(override, side0)
            return idx // side0, idx % side0, examined
        stream = level_rng(seed, 0)
        if self._level0_probs is not None:
            idx = np.flatnonzero(_below(stream, self._level0_probs))
            return idx // side0, idx % side0, examined
        # Row-streamed path: identical draws, memory O(side0).
        rows_acc: list[np.ndarray] = []
        cols_acc: list[np.ndarray] = []
        for r in range(side0):
            hits = np.flatnonzero(stream.random(side0) < self._untied_row_probs(r))
            if hits.size:
                rows_acc.append(np.full(hits.size, r, dtype=np.int64))
                cols_acc.append(hits.astype(np.int64))
        if rows_acc:
            return np.concatenate(rows_acc), np.concatenate(cols_acc), examined
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), examined

    # -- strategies --------------------------------------------------------

    def _run_naive(self, seed: int):
        cfg = self.cfg
        n = cfg.n_nodes
        cells = n * n
        if cells > self.dense_cap:
            raise CapExceeded(
                f"naive sampling needs {cells} dense cells, above the cap "
                f"{self.dense_cap}; use the dcsd or gp strategy instead"
            )
        if self._full_probs is None:
            self._full_probs = kronecker_power(
                cfg.theta, cfg.levels, dense_cap=self.dense_cap
            ).flat
        idx = np.flatnonzero(_below(level_rng(seed, 0), self._full_probs))
        return idx // n, idx % n, [(0, cells, int(idx.size))]

    @cached_property
    def _ci_total(self) -> int:
        # Lazy: ci_rv_count overflows at level counts dcsd still samples.
        return ci_rv_count(self.cfg)

    def _run_ci(self, seed: int, override):
        cfg = self.cfg
        if self._ci_total > self.dense_cap:
            raise CapExceeded(
                f"full sweep examines {self._ci_total} RVs, above the cap "
                f"{self.dense_cap}; use the dcsd or gp strategy instead"
            )
        side = self.side0
        probs0 = self._level0_dense()
        if override is not None:
            active = np.zeros(side * side, dtype=bool)
            active[_normalize_override(override, side)] = True
        else:
            active = _below(level_rng(seed, 0), probs0)
        trace = [(0, side * side, int(active.sum()))]
        for lam in range(1, cfg.tied_levels + 1):
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
        cfg = self.cfg
        rows, cols, examined0 = self._level0_cells(seed, override)
        trace = [(0, examined0, int(rows.size))]
        bb = self.b * self.b
        for lam in range(1, cfg.tied_levels + 1):
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

        Only the plain model has whole-grid groups.  A grouping above
        ``group_cap`` falls back to the level-0 sweep, which draws the same
        per-cell marginals; the choice is made once per engine.
        """
        if self.cfg.tied_levels:
            return None
        try:
            return grid_groups(self.cfg, group_cap=self.group_cap)
        except GroupCapExceeded:
            return None

    def _run_gp(self, seed: int, override):
        if override is None and self._grid_tables is not None:
            return self._run_grid_gp(seed)
        cfg = self.cfg
        rows, cols, examined0 = self._level0_cells(seed, override)
        trace = [(0, examined0, int(rows.size))]
        b = self.b
        bb = b * b
        for lam in range(1, cfg.tied_levels + 1):
            stream = level_rng(seed, lam)
            n_prev = int(rows.size)
            parts_r: list[np.ndarray] = []
            parts_c: list[np.ndarray] = []
            for cls, positions in zip(self._classes, self._class_pos):
                m = positions.size
                total = n_prev * int(m)
                if total == 0 or cls.value == 0.0:
                    continue
                count = binomial_draw(total, cls.value, stream)
                if count == 0:
                    continue
                if cls.value == 1.0:
                    ranks = np.arange(total, dtype=np.int64)
                else:
                    ranks = np.asarray(
                        choose_without_replacement(total, count, stream),
                        dtype=np.int64,
                    )
                parent_idx = ranks // m
                offsets = positions[ranks % m]
                parts_r.append(rows[parent_idx] * b + offsets // b)
                parts_c.append(cols[parent_idx] * b + offsets % b)
            if parts_r:
                rows = np.concatenate(parts_r)
                cols = np.concatenate(parts_c)
                order = np.lexsort((cols, rows))
                rows, cols = rows[order], cols[order]
            else:
                rows = np.empty(0, dtype=np.int64)
                cols = np.empty(0, dtype=np.int64)
            trace.append((lam, n_prev * bb, int(rows.size)))
        return rows, cols, trace

    def _run_grid_gp(self, seed: int):
        cfg = self.cfg
        classes, groups = self._grid_tables
        stream = level_rng(seed, 0)
        cells: list[tuple[int, int]] = []
        for group in groups:
            if group.prob == 0.0 or group.size == 0:
                continue
            count = binomial_draw(group.size, group.prob, stream)
            if count == 0:
                continue
            if group.prob == 1.0:
                ranks: Sequence[int] = range(group.size)
            else:
                ranks = choose_without_replacement(group.size, count, stream)
            for rank in ranks:
                cells.append(
                    unrank_grid_cell(group, classes, cfg.levels, self.b, rank)
                )
        cells.sort()
        if cells:
            arr = np.asarray(cells, dtype=np.int64)
            rows, cols = arr[:, 0], arr[:, 1]
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        examined = (self.b * self.b) ** cfg.levels
        trace = [(0, examined, int(rows.size))]
        return rows, cols, trace

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
    group_cap: int = DEFAULT_GROUP_CAP,
) -> tuple[SampledNetwork, SampleTrace]:
    """Dispatch on strategy name; the entry point used by the CLI."""
    return ModelSampler(cfg, dense_cap=dense_cap, group_cap=group_cap).run(
        strategy, seed
    )
