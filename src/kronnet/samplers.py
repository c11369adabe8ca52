"""Network samplers: dense per-cell, full sweep, pruned sweep, and grouped.

The samplers follow the model's Bayesian-network form, level-0 roots and
then one child per candidate cell at each tied level, in one level loop,
``ModelSampler._cells``:

* ``naive`` refuses above ``dense_cap`` cells (n**2), and ``ci`` above
  ``dense_cap`` RVs (``ci_rv_count``); ``dcsd`` and ``gp`` have no dense cap
  (``check_dense_cap``, which the verification harness calls too).
* Level 0 sweeps the grid of side**untied_levels cells (all ``levels`` for
  ``naive``): one uniform per cell, row-major, in row blocks of at most
  2**20 cells, built from the dense untied product.  Engines keep the blocks
  of grids of at most 2**24 cells, with the same draws either way, and the
  sweep refuses rows wider than 2**24 cells before allocating them.  On the
  plain model ``gp`` draws one binomial count per whole-grid probability
  group instead, unless the grouping exceeds the fixed cap of ``grid_groups``.
* Each tied level replaces every realized cell with a side x side block of
  candidates; child (dr, dc) survives with probability ``theta[dr, dc]``,
  and children of unrealized cells never do.  The strategy's children
  function draws them, one stable sort on the rows puts them in (row, col)
  order, and the level adds one ``(level, examined, active)`` trace entry.

The strategies differ only in which of a level's RVs they touch: ``ci``
every candidate, dead parents included; ``dcsd`` only children of realized
cells; ``gp`` draws its tied levels exactly as ``dcsd`` and groups only on
the whole grid (placing a seed-value class on a tied level instead of
drawing it cost 1.04-1.39x the run at every value measured, 0.02-0.3 on
b = 2 and b = 4 seeds); ``naive`` has no tied levels.  The last level's
cells are the edges, filtered by the directed / self-loop mode, which never
alters sampling.

Each level draws from its own stream in a documented order (cells row-major;
pruned candidates parent-major with blocks row-major, for ``dcsd`` and
``gp`` alike; whole-grid groups by descending probability, count then
placement), so runs are reproducible, tied ``gp`` matches ``dcsd`` draw for
draw, and the full sweep matches the Bayesian-network ancestral sampler draw
for draw.
``_cells`` asks its stream source for a level's generator when it reaches
the level: ``run`` passes ``level_rng``, and the verification harness
passes streams derived in bulk for a block of replicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Iterable

import numpy as np

from ._kernels import expand_active
from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig, check_int
from .errors import BadArgs, CapExceeded, GroupCapExceeded, Overflow
from .groups import GridUnranker, grid_groups
from .kron import ci_rv_count, fold, row_blocks
from .randvar import binomial_draw, choose_without_replacement
from .rng import check_seed, level_rng

# Per-cell draws take their probabilities in row blocks of at most this
# many cells, so a sweep holds O(block) memory beyond its hits.
_BLOCK_CELLS = 1 << 20
# Engines keep the level-0 blocks of grids up to this size (plain K = 12 at
# b = 2, exactly) and rebuild larger ones on every sweep.
_CACHE_CELLS = 1 << 24
# The level-0 sweep refuses grids whose rows are wider than this many cells
# (plain K = 25 at b = 2 is the first): a block holds at least one row, so a
# wider row would be allocated whole before its first draw.
_MAX_ROW_CELLS = 1 << 24

# A run's stream source: level -> that level's generator, called once per
# level when the level is reached.
Streams = Callable[[int], np.random.Generator]


def _hits(stream: np.random.Generator, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Flat row-major indices of the cells whose uniform falls below their probability.

    ``blocks`` are consecutive row blocks of one probability grid; each cell
    takes one uniform from ``stream``, in row-major order over the whole grid.
    """
    hits = []
    offset = 0
    for block in blocks:
        hit = (stream.random(block.size) < block.ravel()).nonzero()[0]
        hits.append(hit + offset if offset else hit)
        offset += block.size
    # One block is the common case of small grids: skip the copy.
    return hits[0] if len(hits) == 1 else np.concatenate(hits)


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


def check_dense_cap(cfg: ModelConfig, strategy: Strategy, cap: int) -> None:
    """Refuse a run whose dense draws exceed ``cap``: ``naive`` draws n**2
    cells and ``ci`` every RV (``ci_rv_count``); ``dcsd`` and ``gp`` have no
    dense cap.

    Raises:
        CapExceeded: the strategy's dense draws exceed ``cap``.
    """
    if strategy is Strategy.NAIVE and cfg.n_nodes**2 > cap:
        raise CapExceeded(
            f"naive sampling needs {cfg.n_nodes**2} dense cells, above the "
            f"cap {cap}; use the dcsd or gp strategy instead"
        )
    # Only for ci: ci_rv_count overflows at level counts dcsd still samples.
    if strategy is Strategy.CI and (total := ci_rv_count(cfg)) > cap:
        raise CapExceeded(
            f"full sweep examines {total} RVs, above the cap "
            f"{cap}; use the dcsd or gp strategy instead"
        )


def mode_keep(cfg: ModelConfig, rows: np.ndarray, cols: np.ndarray):
    """Which of the cells ``(rows, cols)`` the edge mode keeps, or None for all.

    Undirected mode keeps only cells with row < col, and loop-free directed
    mode drops the diagonal.  ``rows`` and ``cols`` broadcast, so a column
    of rows against a row of columns gives the mode's mask of a whole grid.
    """
    if not cfg.directed:
        return rows < cols
    if not cfg.self_loops:
        return rows != cols
    return None


def mode_filter(cfg: ModelConfig, rows: np.ndarray, cols: np.ndarray):
    """The final-level cells the edge mode keeps, in their order.

    Sampling itself always works on the full grid; the mode only filters.
    """
    keep = mode_keep(cfg, rows, cols)
    if keep is None:
        return rows, cols
    return rows[keep], cols[keep]


def finalize_edges(cfg: ModelConfig, rows: np.ndarray, cols: np.ndarray) -> SampledNetwork:
    """Apply the edge-mode filter to final-level cells and build the network."""
    rows, cols = mode_filter(cfg, rows, cols)
    edges = np.column_stack([rows, cols])
    return SampledNetwork(n_nodes=cfg.n_nodes, edges=edges, directed=cfg.directed)


class ModelSampler:
    """Reusable sampling engine for one configuration.

    Caches the level-0 probability blocks (per level count, for grids of at
    most 2**24 cells) and, on the first ``gp`` run, the whole-grid
    probability groups, so repeated runs (verification, benchmarks) avoid
    redundant setup.  ``dense_cap`` only sets where ``naive`` and ``ci``
    refuse.
    """

    def __init__(self, cfg: ModelConfig, *, dense_cap: int = DEFAULT_DENSE_CAP) -> None:
        self.cfg = cfg
        if cfg.n_nodes > I64_MAX:
            raise Overflow(
                f"{cfg.n_nodes} nodes exceed signed 64-bit index arithmetic"
            )
        self.dense_cap = check_int(dense_cap, "dense_cap")
        if self.dense_cap < 1:
            raise BadArgs("dense_cap must be positive")
        self.b = cfg.b
        self._cached_blocks: dict[int, list[np.ndarray]] = {}

    # -- level 0 --------------------------------------------------------------

    def _sweep(self, stream: np.random.Generator, levels: int) -> np.ndarray:
        """Flat row-major indices of the realized cells of the ``levels``-fold grid.

        One uniform per cell, row-major, from the level-0 ``stream``, drawn
        row block by row block.  The blocks of small grids are kept; the
        draws do not depend on the block size or on whether they were kept.
        """
        width = self.b**levels
        if width > _MAX_ROW_CELLS:
            raise CapExceeded(
                f"the level-0 sweep would draw rows of {width} cells, above the "
                f"limit of {_MAX_ROW_CELLS}; tie more levels (lower ell), then "
                "use dcsd or gp"
            )
        blocks = self._cached_blocks.get(levels)
        if blocks is None:
            blocks = row_blocks(self.cfg.theta, levels, _BLOCK_CELLS)
            if width * width <= _CACHE_CELLS:
                blocks = self._cached_blocks[levels] = list(blocks)
        return _hits(stream, blocks)

    @cached_property
    def _grid_tables(self):
        """Whole-grid groups for ``gp`` and their ``GridUnranker``, or None to
        sweep level 0 instead: on a tied model, or when the grouping is above
        the fixed cap of ``grid_groups``.  Decided once per engine.
        """
        if self.cfg.tied_levels:
            return None
        try:
            classes, groups = grid_groups(self.cfg)
        except GroupCapExceeded:
            return None
        return groups, GridUnranker(classes, groups, self.cfg.levels, self.b)

    def _level0(self, strategy: Strategy, stream: np.random.Generator):
        """Level 0's realized cells in (row, col) order, and its level count.

        Whole-grid ``gp`` draws its groups by descending probability, each a
        count then a placement, and unranks all drawn ranks in one array
        pass; other runs sweep all ``levels`` (``naive``) or the untied ones.
        """
        if strategy is Strategy.GP and self._grid_tables is not None:
            groups, unranker = self._grid_tables
            drawn = [(i, _grouped_draw(g.size, g.prob, stream)) for i, g in enumerate(groups)]
            rows, cols = unranker.cells(drawn)
            # A flat row * side + col key would overflow once the side reaches 2**32.
            order = np.lexsort((cols, rows))
            return rows[order], cols[order], self.cfg.levels
        levels = self.cfg.levels if strategy is Strategy.NAIVE else self.cfg.untied_levels
        side = self.b**levels
        rows, cols = np.unravel_index(self._sweep(stream, levels), (side, side))
        return rows, cols, levels

    # -- tied-level children: each takes the previous level's realized cells
    # in (row, col) order, that level's grid side and the level's stream, and
    # returns the realized children and the number of RVs it examined.

    def _ci_children(self, rows, cols, side, stream):
        """One uniform per cell of the child grid, row-major, children of
        dead parents included (they get probability 0)."""
        active = np.zeros((side, side), dtype=bool)
        active[rows, cols] = True
        # Bands of whole parent rows keep the row-major stream.
        step = max(1, _BLOCK_CELLS // (self.b * self.b * side))
        bands = (
            fold(active[p : p + step], self.cfg.theta.entries, 1)
            for p in range(0, side, step)
        )
        side *= self.b
        return (*np.unravel_index(_hits(stream, bands), (side, side)), side * side)

    def _dcsd_children(self, rows, cols, side, stream):
        """One uniform per candidate child of a realized parent, parent-major."""
        examined = rows.size * self.b * self.b
        uniforms = stream.random(examined)
        return (*expand_active(rows, cols, uniforms, self.cfg.theta.flat, self.b), examined)

    # gp's tied levels are dcsd's: no placement measured beat drawing there.
    _CHILDREN = {
        Strategy.CI: _ci_children, Strategy.DCSD: _dcsd_children, Strategy.GP: _dcsd_children
    }

    # -- the level loop -----------------------------------------------------

    def _cells(self, strategy: Strategy, streams: Streams):
        """The level loop every run takes: realized final-level cells and trace.

        Returns row and column arrays of the realized cells of the full grid
        in (row, col) order, before the edge-mode filter, and one
        ``(level, rvs_examined, rvs_active)`` tuple per level.  ``streams``
        gives each level's generator; arguments are not checked here.
        """
        check_dense_cap(self.cfg, strategy, self.dense_cap)
        rows, cols, levels = self._level0(strategy, streams(0))
        side = self.b**levels
        trace = [(0, side * side, int(rows.size))]
        for lam in range(1, self.cfg.levels - levels + 1):
            rows, cols, examined = self._CHILDREN[strategy](self, rows, cols, side, streams(lam))
            # Children come parent-major (ci's row-major); a stable sort on
            # the row alone puts them in (row, col) order.  A flat
            # row * side + col key would overflow once the side reaches 2**32.
            order = rows.argsort(kind="stable")
            rows, cols = rows[order], cols[order]
            side *= self.b
            trace.append((lam, examined, int(rows.size)))
        return rows, cols, trace

    def run(self, strategy: Strategy | str, seed: int) -> tuple[SampledNetwork, SampleTrace]:
        """Sample once; returns the network and its RV-accounting trace.

        Level ``lam`` draws from ``level_rng(seed, lam)``.
        """
        strategy = Strategy(strategy)
        seed = check_seed(seed)
        rows, cols, trace = self._cells(strategy, partial(level_rng, seed))
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
    """Sample once on a fresh engine: a one-shot convenience.

    Repeated runs of one configuration should share a ``ModelSampler``,
    which keeps its per-engine tables.
    """
    return ModelSampler(cfg, dense_cap=dense_cap).run(strategy, seed)
