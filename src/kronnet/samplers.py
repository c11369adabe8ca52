"""Network samplers: dense per-cell, full sweep, pruned sweep, and grouped.

All strategies draw the same model:

* Level 0 realizes the grid of side**untied_levels cells whose probabilities
  come from the dense untied product matrix.  Every strategy draws it with
  one sweep (``naive`` over all ``levels``): one uniform per cell, row-major,
  in row blocks of at most 2**20 cells.  Grids of at most 2**24 cells keep
  their blocks per engine; larger ones rebuild them on every sweep.  The
  draws are the same either way, and ``dense_cap`` plays no part.
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

from ._kernels import block_children, expand_active
from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig
from .errors import BadArgs, CapExceeded, GroupCapExceeded, Overflow
from .groups import GridUnranker, grid_groups, theta_value_classes
from .kron import ci_rv_count, fold, row_blocks
from .randvar import binomial_draw, choose_without_replacement
from .rng import check_seed, level_rng

# Per-cell draws take their probabilities in row blocks of at most this
# many cells, so a sweep holds O(block) memory beyond its hits.
_BLOCK_CELLS = 1 << 20
# Engines keep the level-0 blocks of grids up to this size (plain K = 12 at
# b = 2, exactly) and rebuild larger ones on every sweep.
_CACHE_CELLS = 1 << 24


def _hits(stream: np.random.Generator, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Flat row-major indices of the cells whose uniform falls below their probability.

    ``blocks`` are consecutive row blocks of one probability grid; each cell
    takes one uniform from ``stream``, in row-major order over the whole grid.
    """
    hits = []
    offset = 0
    for block in blocks:
        hits.append((stream.random(block.size) < block.ravel()).nonzero()[0] + offset)
        offset += block.size
    return np.concatenate(hits)


def _grouped_draw(size: int, prob: float, stream: np.random.Generator) -> np.ndarray:
    """Ranks in [0, size) of the realized cells of one equal-probability group.

    A binomial count, then that many distinct ranks placed uniformly by one
    C-level call (``choose_without_replacement``), returned sorted; every
    rank when ``prob`` is 1, since placement would still consume draws.
    """
    if prob == 0.0:
        # A zero group of the whole grid may hold more than 2**63 cells,
        # beyond what binomial_draw accepts.
        return np.empty(0, dtype=np.int64)
    count = binomial_draw(size, prob, stream)
    if count == 0:
        # Placing nothing draws nothing, but costs a numpy call.
        return np.empty(0, dtype=np.int64)
    if prob == 1.0:
        return np.arange(size, dtype=np.int64)
    return choose_without_replacement(size, count, stream)


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

    Caches the level-0 probability blocks (per level count, for grids of at
    most 2**24 cells), the seed-value classes, and on the first ``gp`` run
    the whole-grid probability groups, so repeated runs (verification,
    benchmarks) avoid redundant setup.  ``dense_cap`` only sets where
    ``naive`` and ``ci`` refuse; ``dcsd`` and ``gp`` never do.
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
        self._classes = theta_value_classes(cfg.theta)
        self._class_pos = [
            np.asarray(cls.positions, dtype=np.int64) for cls in self._classes
        ]
        self._cached_blocks: dict[int, list[np.ndarray]] = {}

    # -- the level-0 sweep shared by every strategy ------------------------

    def _sweep(self, seed: int, levels: int) -> np.ndarray:
        """Flat row-major indices of the realized cells of the ``levels``-fold grid.

        One uniform per cell, row-major, from ``level_rng(seed, 0)``, drawn
        row block by row block.  The blocks of small grids are kept; the
        draws do not depend on the block size or on whether they were kept.
        """
        blocks = self._cached_blocks.get(levels)
        if blocks is None:
            blocks = row_blocks(self.cfg.theta, levels, _BLOCK_CELLS)
            if self.b ** (2 * levels) <= _CACHE_CELLS:
                blocks = self._cached_blocks[levels] = list(blocks)
        return _hits(level_rng(seed, 0), blocks)

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
        bb = self.b * self.b
        for lam in range(1, self.cfg.tied_levels + 1):
            active = np.zeros((side, side), dtype=bool)
            active.flat[idx] = True
            # A dead parent's children get probability 0 but still take their
            # uniforms; bands of whole parent rows keep the row-major stream.
            step = max(1, _BLOCK_CELLS // (bb * side))
            bands = (
                fold(active[p : p + step], self.cfg.theta.entries, 1)
                for p in range(0, side, step)
            )
            idx = _hits(level_rng(seed, lam), bands)
            side *= self.b
            trace.append((lam, side * side, int(idx.size)))
        return idx // side, idx % side, trace

    def _run_tied(self, seed: int, override, children):
        """Level 0, then every tied level through ``children``.

        ``children(rows, cols, stream)`` realizes the children of the given
        row-major cells from the level's stream, parent-major.
        """
        idx = self._level0(seed, override)
        rows, cols = idx // self.side0, idx % self.side0
        trace = [(0, self.side0 * self.side0, int(idx.size))]
        bb = self.b * self.b
        for lam in range(1, self.cfg.tied_levels + 1):
            n_prev = int(rows.size)
            rows, cols = children(rows, cols, level_rng(seed, lam))
            # Children of row-major parents come parent-major; a stable sort
            # on the row alone puts them in (row, col) order.  A flat
            # row * side + col key would overflow once the side reaches 2**32.
            order = np.argsort(rows, kind="stable")
            rows, cols = rows[order], cols[order]
            trace.append((lam, n_prev * bb, int(rows.size)))
        return rows, cols, trace

    def _dcsd_children(self, rows, cols, stream):
        """One uniform per candidate child, parent-major."""
        uniforms = stream.random(rows.size * self.b * self.b)
        return expand_active(rows, cols, uniforms, self.cfg.theta.flat, self.b)

    @cached_property
    def _grid_tables(self):
        """Whole-grid groups for ``gp`` and their ``GridUnranker``, or None to
        sweep level 0 instead.

        Only the plain model has whole-grid groups.  A grouping above the
        fixed cap of ``grid_groups`` falls back to the level-0 sweep, which
        draws the same per-cell marginals; the choice is made once per engine.
        """
        if self.cfg.tied_levels:
            return None
        try:
            classes, groups = grid_groups(self.cfg)
        except GroupCapExceeded:
            return None
        return groups, GridUnranker(classes, groups, self.cfg.levels, self.b)

    def _run_gp(self, seed: int, override):
        """Grouped sampling: whole-grid groups, or level 0 then tied levels."""
        if override is None and self._grid_tables is not None:
            return self._run_grid_gp(seed)
        return self._run_tied(seed, override, self._gp_children)

    def _gp_children(self, rows, cols, stream):
        """Children of one tied level: by descending value, one binomial count
        per seed-value class over its ``parents * class size`` candidates,
        placed with one ``choose_without_replacement`` call.  The placed ranks
        become candidate indices ``parent * b*b + block position``; sorted,
        they give the children parent-major, as ``dcsd`` enumerates survivors.
        """
        b = self.b
        bb = b * b
        n_prev = int(rows.size)
        # Rank r of a class is parent r // m at the class's (r % m)-th
        # position.  Empty classes are skipped; the empty first part keeps
        # concatenate valid.
        parts = [rows[:0]]
        for cls, positions in zip(self._classes, self._class_pos):
            m = positions.size
            ranks = _grouped_draw(n_prev * m, cls.value, stream)
            if ranks.size:
                parts.append(ranks // m * bb + positions[ranks % m])
        candidates = np.concatenate(parts)
        candidates.sort()
        parent_idx, block_pos = np.divmod(candidates, bb)
        return block_children(rows, cols, parent_idx, block_pos, b)

    def _run_grid_gp(self, seed: int):
        """Whole-grid groups by descending probability, each a binomial count
        then a placement, all from the level-0 stream; the drawn ranks are
        then unranked to cells in one array pass and put in (row, col) order.
        """
        groups, unranker = self._grid_tables
        stream = level_rng(seed, 0)
        drawn = [
            (index, _grouped_draw(group.size, group.prob, stream))
            for index, group in enumerate(groups)
        ]
        rows, cols = unranker.cells(drawn)
        # A flat row * side + col key would overflow once the side reaches 2**32.
        order = np.lexsort((cols, rows))
        examined = (self.b * self.b) ** self.cfg.levels
        return rows[order], cols[order], [(0, examined, int(rows.size))]

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
            rows, cols, trace = self._run_tied(seed, level0_override, self._dcsd_children)
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
