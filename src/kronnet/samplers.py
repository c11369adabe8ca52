"""Network samplers: dense per-cell, full sweep, pruned sweep, and grouped.

The samplers follow the model's Bayesian-network form, level-0 roots and
then one child per candidate cell at each tied level, in one level loop,
``ModelSampler._cells``, over a stack of replicates that share the network:
replicate r's cell (row, col) of a level of side s sits at stacked row
``r * s + row``, so each level runs once for the whole stack.  ``run`` is a
stack of one; the verification harness sends stacks of many.

* ``naive`` refuses above ``dense_cap`` cells (n**2), and ``ci`` above
  ``dense_cap`` RVs (``ci_rv_count``); ``dcsd`` and ``gp`` have no dense cap
  (``check_dense_cap``, which ``run`` and the verification harness call).
* Level 0 sweeps the grid of side**untied_levels cells (all ``levels`` for
  ``naive``): one uniform per cell, row-major, in row blocks of at most
  2**20 cells of the dense untied product, each against a (replicates,
  block) slab of uniforms.  Engines keep the blocks of grids of at most
  2**24 cells, with the same draws either way, and the sweep refuses rows
  wider than 2**24 cells before allocating them.  On an untied grid of at
  least ``_GROUP_CELLS`` = 2**21 cells ``gp`` draws each replicate's
  probability groups of that grid instead, one binomial count per group,
  unless the grouping exceeds the fixed cap of ``grid_groups``; the plain
  model is the case with no tied levels after it.
* Each tied level replaces every realized cell with a side x side block of
  candidates; child (dr, dc) survives with probability ``theta[dr, dc]``,
  and children of unrealized cells never do.  The level loop carries a
  level's cells as one ``(m, 2)`` array, each replicate's contiguous and in
  replicate order, and adds one ``(level, examined, active)`` record per
  replicate.  ``ci``'s children come in stacked (row, col) order; ``dcsd``
  and tied ``gp`` keep theirs parent-major, each block row-major, so each
  level's parents are the previous level's children in the order they were
  made, and the last level is sorted once.

The strategies differ only in which of a level's RVs they touch: ``ci``
every candidate, dead parents included; ``dcsd`` only children of realized
cells; ``gp`` draws its tied levels exactly as ``dcsd`` and groups only
level 0 (placing a seed-value class on a tied level instead of drawing it
cost 1.04-1.39x the run at every value measured, 0.02-0.3 on b = 2 and
b = 4 seeds); ``naive`` has no tied levels.  The last level's
cells are the edges, filtered by the directed / self-loop mode, which never
alters sampling.

Each level draws from its own stream in a documented order (cells row-major;
pruned candidates parent-major with blocks row-major, parents in the order
the previous level made them, for ``dcsd`` and ``gp`` alike; level-0
groups by descending probability, count then placement), so runs are
reproducible, ``gp`` matches ``dcsd`` draw for draw wherever it sweeps
level 0, and the full sweep matches the Bayesian-network ancestral sampler
draw for draw.
Replicate r's level ``lam`` is stream ``states[r, lam]``, read through
``rng.stream_uniforms`` whole or in pieces, so a stack draws what its
replicates draw alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, cached_property
from typing import Iterable

import numpy as np

from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig, check_int
from .errors import BadArgs, CapExceeded, GroupCapExceeded, Overflow
from .groups import GridUnranker, grid_groups
from .kron import ci_rv_count, fold, row_blocks
from .rng import check_seed, level_states, stream_from_state, stream_uniforms

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
# ``gp`` groups level 0 when its untied grid has at least this many cells
# and sweeps it below: grouping pays one binomial count per group and an
# unranking pass per run, which a small grid's sweep undercuts.  gp / dcsd
# time with every grid grouped, best of 5 runs of seed 0 on the worked seed
# [[0.9, 0.7], [0.5, 0.3]], plain K = ell (2 vCPUs, numpy 2.4): 8x at
# 2**12 cells, 1.4x at 2**18, 0.55-0.65x at 2**20, 0.22x at 2**22, 0.10x
# at 2**24.  Re-measure with this constant set to 0 and a plain config
# plain.json of that seed:
#   kronnet bench --config plain.json --k 6,9,10,11,12 --strategies dcsd,gp
_GROUP_CELLS = 1 << 21


def _hits(states: np.ndarray, blocks: Iterable[np.ndarray], cells: int) -> np.ndarray:
    """Ascending stacked indices ``r * cells + i`` of the cells i whose
    uniform falls below their probability, in each replicate r's grid.

    ``blocks`` are consecutive row blocks of a grid of ``cells`` cells, 2-D
    ones shared by every replicate or 3-D ones holding each replicate's.
    Replicate r draws one uniform per cell from stream ``states[r]``,
    row-major over its whole grid.
    """
    hits = []
    offset = 0
    for block in blocks:
        size = block.shape[-2] * block.shape[-1]
        # a (replicates, block) slab; a stack of one compares flat
        slab = (-1, size) if len(states) > 1 else (size,)
        # the draws die inside this line, so the next block's reuse their memory
        hit = (stream_uniforms(states, size, offset).reshape(slab) < block.reshape(slab)).ravel().nonzero()[0]
        if size != cells:
            # replicate r's hit j of this block: r * size + j -> r * cells + offset + j
            hit += offset + hit // size * (cells - size)
        hits.append(hit)
        offset += size
    # One block is the common case of small grids: skip the copy.
    if len(hits) == 1:
        return hits[0]
    hits = np.concatenate(hits)
    # a stack's blocks interleave its replicates
    return hits if len(states) == 1 else np.sort(hits)


def expand_active(cells, b, uniforms, theta_flat):
    """Realize the b*b child cells of each active parent cell.

    ``cells`` is an ``(m, 2)`` array of parent (row, col) cells.
    ``uniforms`` holds one draw per candidate child, parent-major with the
    block scanned row-major; child (dr, dc) of parent p survives when
    ``uniforms[p*b*b + dr*b + dc] < theta_flat[dr*b + dc]``.  Returns the
    surviving children as an ``(k, 2)`` array in that enumeration order.
    """
    bb = b * b
    # Measured on 35k parents (b = 2, 2 vCPUs): a (parents, b*b) broadcast
    # compare took 3.5x as long as the flat uniforms against theta tiled to
    # their length; gathering two columns took 1.4x as long as taking whole
    # (row, col) rows, and fancy indexing cells[parent] 3.8x.
    survivors = (uniforms < theta_flat[None].repeat(len(cells), axis=0).ravel()).nonzero()[0]
    parent = survivors // bb
    children = (cells * b).take(parent, axis=0)
    survivors -= parent * bb  # each child's place in its parent's block
    children += _child_offsets(b).take(survivors, axis=0)
    return children


@cache
def _child_offsets(b: int):
    """(dr, dc) offsets of a cell's b*b children, row-major (read-only)."""
    offsets = np.stack(np.divmod(np.arange(b * b), b), axis=1)
    offsets.flags.writeable = False
    return offsets


def _grid_cells(flat: np.ndarray, side: int) -> np.ndarray:
    """The ``(m, 2)`` (row, col) cells of flat indices into grids of ``side``
    columns."""
    cells = np.empty((flat.size, 2), dtype=np.int64)
    np.divmod(flat, side, out=(cells[:, 0], cells[:, 1]))
    return cells


def _sorted_cells(rows: np.ndarray, cols: np.ndarray, reps: int, side: int):
    """A stack's cells, stacked rows below ``reps * side`` and columns below
    ``side``, as rows and columns in ascending (row, col) order.

    One sort of the flat key ``row * side + col`` while ``reps * side**2``
    fits in int64, which the sizes alone decide, and a lexsort beyond.
    """
    if reps * side * side > 2**63:
        order = np.lexsort((cols, rows))
        return rows[order], cols[order]
    keys = rows * side
    keys += cols
    keys.sort()
    return np.divmod(keys, side)


def _grouped_draw(drawn, stream: np.random.Generator):
    """One replicate's realized level-0 group cells: the index and count of
    each group with any, and each one's ranks in [0, size), unsorted.

    ``drawn`` holds (index, size, prob) for every non-empty group of
    probability above 0, by descending probability, with sizes within the
    signed 64-bit range (``ModelSampler._grid_tables`` checks them once).
    Per group, the calls ``binomial_draw`` and ``choose_without_replacement``
    make, with the same arguments but not their checks or sort: a
    ``Generator.binomial`` count, then for a count above 0 that many
    distinct ranks placed by one ``Generator.choice``; every rank, with no
    draw, when ``prob`` is 1.  Placing nothing draws nothing, so zero counts
    skip the call.
    """
    binomial, choice = stream.binomial, stream.choice
    index, counts, ranks = [], [], []
    for i, size, prob in drawn:
        if prob == 1.0:
            count = size
            picks = np.arange(size)
        else:
            count = int(binomial(size, prob))
            if not count:
                continue
            picks = choice(size, count, replace=False, shuffle=False)
        index.append(i)
        counts.append(count)
        ranks.append(picks)
    return index, counts, ranks


class Strategy(str, Enum):
    """Sampling strategies exposed by the CLI and the verification harness."""

    NAIVE = "naive"
    CI = "ci"
    DCSD = "dcsd"
    GP = "gp"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(member.value for member in cls)
        raise BadArgs(f"unknown strategy {value!r}; choose from {names}")


@dataclass(frozen=True)
class LevelTrace:
    """Accounting for one sampling level."""

    level: int
    rvs_examined: int
    rvs_active: int

    def __post_init__(self) -> None:
        for name in ("level", "rvs_examined", "rvs_active"):
            check_int(getattr(self, name), name)
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
    """A sampled network: node count plus sorted duplicate-free edge list.

    Raises ``BadArgs`` unless ``n_nodes`` is an integer and the edges are
    integers of shape (m, 2), strictly increasing, within [0, n_nodes).
    """

    n_nodes: int
    edges: np.ndarray
    directed: bool = True

    def __post_init__(self) -> None:
        check_int(self.n_nodes, "n_nodes")
        edges = np.asarray(self.edges)
        if edges.size and edges.dtype.kind not in "iu":
            raise BadArgs(f"edges must be integers, got dtype {edges.dtype}")
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise BadArgs(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.shape[0] > 1:
            r0, r1 = edges[:-1, 0], edges[1:, 0]
            c0, c1 = edges[:-1, 1], edges[1:, 1]
            if not ((r1 > r0) | ((r1 == r0) & (c1 > c0))).all():
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


def stream_levels(cfg: ModelConfig, strategy: Strategy) -> int:
    """Level streams a run reads: level 0's alone for ``naive`` (and for
    any strategy on the plain model, which has no tied level), else one per
    tied level too."""
    return 1 if strategy is Strategy.NAIVE else cfg.tied_levels + 1


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


def finalize_edges(cfg: ModelConfig, rows: np.ndarray, cols: np.ndarray) -> SampledNetwork:
    """Build the network from the final-level cells the edge mode keeps.

    Sampling itself always works on the full grid; the mode only filters.
    """
    keep = mode_keep(cfg, rows, cols)
    if keep is not None:
        rows, cols = rows[keep], cols[keep]
    # two column writes cost half of np.column_stack on a small network
    edges = np.empty((rows.size, 2), dtype=np.int64)
    edges[:, 0] = rows
    edges[:, 1] = cols
    return SampledNetwork(n_nodes=cfg.n_nodes, edges=edges, directed=cfg.directed)


class ModelSampler:
    """Reusable sampling engine for one configuration.

    Caches the level-0 probability blocks (per level count, for grids of at
    most 2**24 cells) and, on the first ``gp`` run, the level-0
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

    def _sweep(self, states: np.ndarray, levels: int) -> np.ndarray:
        """``_hits`` of a stack of ``levels``-fold grids, replicate r's from
        level-0 stream ``states[r]``, drawn row block by row block.  The
        blocks of small grids are kept; the draws do not depend on the block
        size or on whether they were kept.
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
        return _hits(states, blocks, width * width)

    @cached_property
    def _grid_tables(self):
        """What grouped ``gp`` draws of the untied grid: (index, size,
        prob) of each group ``_grouped_draw`` draws, and their
        ``GridUnranker``; or None to sweep level 0 instead: below
        ``_GROUP_CELLS`` cells, or when the grouping is above the fixed cap
        of ``grid_groups``.  Decided once per engine, from the config alone.
        The draws' arguments are checked here, once: sizes are exact
        integers, and probabilities products of checked seed values, so in
        [0, 1]; groups of size or probability 0 draw nothing and are left
        out.

        Raises:
            Overflow: a group of probability above 0 holds more than
                ``2**63 - 1`` cells, too many to count or place.
        """
        untied = self.cfg.untied_levels
        if self.b ** (2 * untied) < _GROUP_CELLS:
            return None
        try:
            classes, groups = grid_groups(replace(self.cfg, levels=untied))
        except GroupCapExceeded:
            return None
        drawn = [(i, g.size, g.prob) for i, g in enumerate(groups) if g.size and g.prob > 0.0]
        for i, size, _ in drawn:
            if size > I64_MAX:
                raise Overflow(f"level-0 group {i} of {size} cells exceeds the signed 64-bit range")
        return drawn, GridUnranker(classes, groups, untied, self.b)

    def _level0(self, strategy: Strategy, states: np.ndarray):
        """Level 0's realized cells of a stack as an ``(m, 2)`` array in
        stacked (row, col) order, and its level count.  Grouped ``gp`` draws
        each replicate's groups of the untied grid by descending probability
        from its stream's generator, each a count then a placement, unranks
        the whole stack's ranks in one ``cells`` call and sorts them once;
        other runs sweep all ``levels`` (``naive``) or the untied ones.
        """
        levels = self.cfg.levels if strategy is Strategy.NAIVE else self.cfg.untied_levels
        side = self.b**levels
        if strategy is Strategy.GP and self._grid_tables is not None:
            drawn, unranker = self._grid_tables
            index, counts, ranks, offsets = [], [], [np.empty(0, dtype=np.int64)], []
            for r, state in enumerate(states):
                i, c, k = _grouped_draw(drawn, stream_from_state(state))
                index += i
                counts += c
                ranks += k
                offsets += [r * side] * len(i)
            rows, cols = unranker.cells(
                np.repeat(np.asarray(index, dtype=np.intp), counts), np.concatenate(ranks)
            )
            if len(states) > 1:
                rows += np.repeat(np.asarray(offsets, dtype=np.int64), counts)
            return np.stack(_sorted_cells(rows, cols, len(states), side), axis=1), levels
        return _grid_cells(self._sweep(states, levels), side), levels

    # -- tied-level children: each takes a stack's previous-level cells as an
    # (m, 2) array, replicates in order, that level's side, the level's
    # streams and each replicate's cell count, and returns the children, each
    # replicate's still contiguous and in order, and the RVs each replicate
    # examined.

    def _ci_children(self, cells, side, states, active):
        """One uniform per cell of each child grid, row-major, children of
        dead parents included (they get probability 0); returned in stacked
        (row, col) order."""
        reps = len(states)
        alive = np.zeros((reps * side, side), dtype=bool)
        alive[cells[:, 0], cells[:, 1]] = True
        alive = alive.reshape(reps, side, side)
        # Bands of whole parent rows of every replicate keep each row-major stream.
        step = max(1, _BLOCK_CELLS // (reps * self.b * self.b * side))
        child = side * self.b
        bands = (
            fold(alive[:, p : p + step].reshape(-1, side), self.cfg.theta.entries, 1).reshape(
                reps, -1, child
            )
            for p in range(0, side, step)
        )
        return _grid_cells(_hits(states, bands, child * child), child), child * child

    def _dcsd_children(self, cells, side, states, active):
        """One uniform per candidate child of a realized parent; the children
        come parent-major, each block row-major, and are not sorted."""
        examined = active * (self.b * self.b)
        uniforms = stream_uniforms(states, examined, 0)
        return expand_active(cells, self.b, uniforms, self.cfg.theta.flat), examined

    # gp's tied levels are dcsd's: no placement measured beat drawing there.
    _CHILDREN = {
        Strategy.CI: _ci_children, Strategy.DCSD: _dcsd_children, Strategy.GP: _dcsd_children
    }

    # -- the level loop -----------------------------------------------------

    def _cells(self, strategy: Strategy, states: np.ndarray):
        """The level loop every run takes, for a stack of replicates.

        ``states`` is a ``(replicates, stream_levels(...), 4)`` array:
        replicate r's level ``lam`` draws from stream ``states[r, lam]``, and
        its cells sit at stacked rows ``r * side + row``.  Returns each
        realized final-level cell's replicate, row and column, replicates in
        order and each one's cells in (row, col) order, before the edge-mode
        filter, and a ``(replicates, levels, 3)`` array of ``(level,
        rvs_examined, rvs_active)`` records.  ``dcsd`` and tied ``gp`` keep
        their tied levels parent-major and sort once, after the last.
        Callers check the arguments and the dense cap.
        """
        reps = len(states)
        cells, levels = self._level0(strategy, states[:, 0])
        side = self.b**levels
        examined = side * side
        last = self.cfg.levels - levels
        records = []
        for lam in range(last + 1):
            if lam:
                cells, examined = self._CHILDREN[strategy](
                    self, cells, side, states[:, lam], active
                )
                side *= self.b
            rows, cols = cells[:, 0], cells[:, 1]
            # parent-major children: each replicate's cells are contiguous
            # and in order, but their rows are not sorted until the last level
            shuffled = lam > 0 and strategy in (Strategy.DCSD, Strategy.GP)
            if shuffled and lam == last:
                rows, cols = _sorted_cells(rows, cols, reps, side)
                shuffled = False
            if reps == 1:
                active = rows.size
            elif shuffled:
                # the replicate index ascends though the rows do not
                active = np.diff((rows // side).searchsorted(np.arange(reps + 1)))
            else:
                # each replicate's stretch of the ascending stacked rows
                active = np.diff(rows.searchsorted(np.arange(reps + 1) * side))
            records.append((lam, examined, active))
        if reps == 1:
            # object records past 2**63 (a grouped level 0 may be larger)
            return np.zeros(rows.size, dtype=np.int64), rows, cols, np.array([records])
        trace = np.empty((reps, len(records), 3), dtype=np.int64)
        for lam, record in enumerate(records):
            trace[:, lam, 0], trace[:, lam, 1], trace[:, lam, 2] = record
        return (*np.divmod(rows, side), cols, trace)

    def run(self, strategy: Strategy | str, seed: int) -> tuple[SampledNetwork, SampleTrace]:
        """Sample once; returns the network and its RV-accounting trace.

        Level ``lam`` draws from the stream of ``level_rng(seed, lam)``.
        """
        strategy = Strategy(strategy)
        seed = check_seed(seed)
        check_dense_cap(self.cfg, strategy, self.dense_cap)
        states = level_states(seed, stream_levels(self.cfg, strategy))
        _, rows, cols, trace = self._cells(strategy, states)
        return finalize_edges(self.cfg, rows, cols), SampleTrace(
            seed=seed,
            strategy=strategy,
            per_level=tuple(LevelTrace(*entry) for entry in trace[0].tolist()),
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
