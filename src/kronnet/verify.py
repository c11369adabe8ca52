"""Statistical and structural verification of the samplers.

Replicated runs use sampler seeds derived from one master seed (see
:mod:`kronnet.rng`), so every report is a pure function of its arguments and
re-running with the same master seed reproduces it bit for bit, regardless
of the worker count.  Each replicate is the network ``ModelSampler.run``
returns for its seed: ``naive``, ``ci`` and ``dcsd`` replicates, and those
of tied ``gp`` (which draws exactly as ``dcsd``), are sampled a chunk at a
time in array passes, each from its own level streams, whose uniforms
``rng.stream_uniforms`` returns for the whole chunk; whole-grid ``gp``
replicates, like those of grids too large for a chunk to hold two, go one at
a time through the samplers' level loop and are checked and counted in
groups.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np
from scipy.stats import chi2

from ._kernels import expand_active
from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig, check_int
from .errors import BadArgs, CapExceeded, Overflow
from .kron import ci_rv_count, dcsd_ebound, expected_active, kronecker_power
from .rng import check_seed, level_states, replicate_seeds, stream_from_state, stream_uniforms
from .samplers import ModelSampler, SampledNetwork, Strategy, check_dense_cap, mode_keep

_STRATEGY_BLOCK = {
    Strategy.NAIVE: 1,
    Strategy.CI: 2,
    Strategy.DCSD: 3,
    Strategy.GP: 4,
}

# Adjacent histogram bins are pooled until each holds at least this many
# observations across both samples, keeping the chi-square calibrated.
_MIN_BIN_TOTAL = 10


def _mode_mask(cfg: ModelConfig) -> np.ndarray:
    """Boolean mask of grid cells retained by the edge mode."""
    n = cfg.n_nodes
    index = np.arange(n)
    keep = mode_keep(cfg, index[:, None], index[None, :])
    return np.ones((n, n), dtype=bool) if keep is None else keep


# Replicates whose seeds and level states are derived in one bulk call,
# whatever the grid size; it bounds the derivation's temporaries (about
# 1 KiB per replicate and level).
_CHUNK_REPLICATES = 4096
# The derived replicates are sampled and tallied in chunks of at most this
# many grid cells (replicates * n**2, at least one replicate), which bounds
# the uniforms and cells held at once.  naive, ci and dcsd chunks of two or
# more replicates are sampled in array passes, and so are those of tied gp,
# as dcsd.  Whole-grid gp, and grids of more than half this many cells, go
# replicate by replicate through ModelSampler._cells: a chunk of one
# replicate shares no pass, and there the array passes ran ci and dcsd
# 1.3-1.4x slower than _cells (K = 8, n**2 = 2**16, on a 2-vCPU host).
# Measured again with every chunk level's uniforms computed as uint64
# columns (same host, interleaved in one process; worked theta, ell = 4, 300
# replicates), as array-pass over per-replicate time for naive/ci/dcsd:
# K = 5 (chunks of 64) 0.82/0.77/0.35, K = 6 (16) 1.86/1.62/0.64, K = 7 (4)
# 4.28/3.77/1.64, against 0.29/0.30/0.20, 0.48/0.60/0.34 and 0.61/0.97/0.60
# with a generator per stream; so from K = 6 most array passes lose to _cells.
_CHUNK_CELLS = 1 << 16


def _chunk_cells(cfg: ModelConfig, strategy: Strategy, probs0: np.ndarray, states: np.ndarray):
    """Final-level cells of a chunk of ``naive``/``ci``/``dcsd`` replicates,
    sampled together in array passes.

    The chunk is one tall grid: cell (row, col) of replicate r sits at
    stacked row ``r * side + row``.  Row-major order over the stack is
    replicate order, then each replicate's (row, col) order, and a child's
    stacked row is its parent's times b plus dr, so every level runs as on
    one grid, each replicate taking its uniforms from its own level stream
    (``states[r, level]``) exactly as ``ModelSampler._cells`` does.
    ``probs0`` are the flat level-0 probabilities.  Returns each cell's
    replicate, row and column, and a ``(replicates, levels, 3)`` array of
    ``(level, rvs_examined, rvs_active)`` records.
    """
    b = cfg.b
    theta = cfg.theta
    reps = len(states)
    side = math.isqrt(probs0.size)
    examined = np.full(reps, probs0.size)
    hits = stream_uniforms(states[:, 0], examined).reshape(reps, -1) < probs0
    rows, cols = np.divmod(np.flatnonzero(hits), side)
    records = [(examined, np.bincount(rows // side, minlength=reps))]
    tied = 0 if strategy is Strategy.NAIVE else cfg.tied_levels
    for lam in range(1, tied + 1):
        if strategy is Strategy.CI:
            # One uniform per child-grid cell; children of dead parents see
            # probability 0, which no uniform in [0, 1) is below.
            alive = np.zeros((reps * side, side), dtype=bool)
            alive[rows, cols] = True
            examined = np.full(reps, side * side * b * b)
            uniforms = stream_uniforms(states[:, lam], examined)
            hits = uniforms.reshape(reps * side, b, side, b) < theta.entries[:, None, :]
            hits &= alive[:, None, :, None]
            side *= b
            rows, cols = np.divmod(np.flatnonzero(hits), side)
        else:
            examined = records[-1][1] * (b * b)
            uniforms = stream_uniforms(states[:, lam], examined)
            rows, cols = expand_active(rows, cols, uniforms, theta.flat, b)
            # parent-major children; a stable sort on the stacked row puts
            # each replicate's in (row, col) order, replicates in order
            order = rows.argsort(kind="stable")
            rows, cols = rows[order], cols[order]
            side *= b
        records.append((examined, np.bincount(rows // side, minlength=reps)))
    rep, rows = np.divmod(rows, side)
    trace = np.array([(np.full(reps, lam), *record) for lam, record in enumerate(records)])
    return rep, rows, cols, trace.transpose(2, 0, 1)


def _replicate_cells(engine: ModelSampler, strategy: Strategy, states: np.ndarray):
    """``_chunk_cells``' results for consecutive groups of replicates, each
    replicate sampled through ``ModelSampler._cells``.

    A group closes once it holds ``_CHUNK_CELLS // 4`` cells, so one
    ``_tally`` call (~55 us) checks and counts ~15 replicates at K = 8 on
    the worked example.  Larger groups raised the memory tests' peak: dense
    replicates of ~22k cells were grouped at up to 0.6 MB more than alone.
    """
    group = []
    held = 0
    for replicate in states:
        group.append(
            engine._cells(
                strategy, lambda lam, replicate=replicate: stream_from_state(replicate[lam])
            )
        )
        held += group[-1][0].size
        if held >= _CHUNK_CELLS // 4:
            held = 0
            yield _stack(group)
    if group:
        yield _stack(group)


def _stack(group: list):
    """A group's ``ModelSampler._cells`` results as ``_chunk_cells`` returns
    a chunk's; empties ``group``, so only the stacked copy stays alive."""
    rep = np.repeat(np.arange(len(group)), [rows.size for rows, _, _ in group])
    rows = np.concatenate([rows for rows, _, _ in group])
    cols = np.concatenate([cols for _, cols, _ in group])
    trace = np.array([trace for _, _, trace in group], dtype=np.int64)
    group.clear()
    return rep, rows, cols, trace


def _tally(cfg: ModelConfig, counts, rep, rows, cols, trace):
    """Check one chunk's final-level cells and level records, filter the
    cells by the edge mode and add them into ``counts`` (None: no counts).

    Returns the chunk's edge total per replicate, its examined total and its
    actives per level.
    """
    n = cfg.n_nodes
    cells = n * n
    keep = mode_keep(cfg, rows, cols)
    if keep is not None:
        rep, rows, cols = rep[keep], rows[keep], cols[keep]
    keys = rows * n + cols
    if keys.size:
        # Columns in [0, n) and keys in [0, n**2), strictly increasing within
        # each replicate, are exactly SampledNetwork's ordered, in-range,
        # duplicate-free edges.
        stacked = rep * cells + keys
        if not (
            0 <= cols.min()
            and cols.max() < n
            and 0 <= keys.min()
            and keys.max() < cells
            and bool((stacked[1:] > stacked[:-1]).all())
        ):
            raise BadArgs(
                f"cells must be strictly increasing keys in [0, {cells}) "
                f"with columns in [0, {n})"
            )
        if counts is not None:
            np.add.at(counts, keys, 1)
    level, examined, active = trace.transpose(2, 0, 1)
    bad = (level != np.arange(trace.shape[1])) | (active < 0) | (active > examined)
    if bad.any():
        r, lam = np.argwhere(bad)[0]
        raise BadArgs(f"bad level record {tuple(trace[r, lam].tolist())} at position {lam}")
    return np.bincount(rep, minlength=trace.shape[0]), int(examined.sum()), active.sum(axis=0)


def _run_block(
    cfg: ModelConfig,
    strategy: Strategy,
    master_seed: int,
    start: int,
    stop: int,
    dense_cap: int,
    want_counts: bool,
):
    """Run replicates [start, stop) of the strategy's seed block.

    Replicate ``i`` samples exactly what ``ModelSampler.run(strategy,
    replicate_seed(master_seed, block, i))`` does, from the same level
    streams, derived in bulk ``_CHUNK_REPLICATES`` at a time, with the same
    edge-mode filter; ``naive`` derives level 0's stream only, the one it
    reads.  The derived replicates are sampled in chunks of at most
    ``_CHUNK_CELLS`` grid cells: ``naive``, ``ci`` and ``dcsd`` chunks, and
    as ``dcsd`` those of tied ``gp``, in array passes (``_chunk_cells``)
    when a chunk holds two or more replicates; whole-grid ``gp``, whose
    binomial and placement draws have no bulk form, and grids where a chunk
    holds one replicate, replicate by replicate through
    ``ModelSampler._cells`` (``_replicate_cells``), then in groups.  The
    invariants that ``SampledNetwork`` and ``LevelTrace`` enforce are
    checked on each chunk's or group's cell keys, columns and level
    records.  Returns summable per-block statistics.
    """
    engine = ModelSampler(cfg, dense_cap=dense_cap)
    n = cfg.n_nodes
    cells = n * n
    if cells > I64_MAX:
        raise Overflow(f"{n}**2 cells exceed signed 64-bit cell keys")
    check_dense_cap(cfg, strategy, dense_cap)
    # a replicate holds at most n**2 cells
    chunk = max(1, _CHUNK_CELLS // cells)
    # tied gp makes exactly dcsd's draws; whole-grid gp places its groups
    drawn_as = Strategy.DCSD if strategy is Strategy.GP and cfg.tied_levels else strategy
    if drawn_as is not Strategy.GP and chunk > 1:
        levels0 = cfg.levels if strategy is Strategy.NAIVE else cfg.untied_levels
        probs0 = kronecker_power(cfg.theta, levels0).probs.ravel()

        def sample(states):
            for at in range(0, len(states), chunk):
                yield _chunk_cells(cfg, drawn_as, probs0, states[at : at + chunk])

    else:
        sample = partial(_replicate_cells, engine, strategy)
    block = _STRATEGY_BLOCK[strategy]
    # naive reads only level 0's stream
    levels = 1 if strategy is Strategy.NAIVE else cfg.tied_levels + 1
    counts = np.zeros(cells, dtype=np.int64) if want_counts else None
    edge_totals = []
    examined_total = 0
    level_active = []
    for lo in range(start, stop, _CHUNK_REPLICATES):
        seeds = replicate_seeds(master_seed, block, lo, min(stop, lo + _CHUNK_REPLICATES))
        states = level_states(seeds, levels)
        for part in sample(states):
            totals, examined, active = _tally(cfg, counts, *part)
            del part  # free these cells before the next part is sampled
            edge_totals.append(totals)
            examined_total += examined
            level_active.append(active)
    if counts is not None:
        counts = counts.reshape(n, n)
    return counts, np.concatenate(edge_totals), examined_total, np.sum(level_active, axis=0)


def _run_block_args(args):
    return _run_block(*args)


def _check_args(name: str, runs, master_seed, workers, dense_cap):
    """A report's replicate count, master seed, worker count and dense cap,
    each an integer in range, as Python ints."""
    runs = check_int(runs, name)
    if runs < 1:
        raise BadArgs(f"{name} must be >= 1, got {runs}")
    workers = check_int(workers, "workers")
    if workers < 1:
        raise BadArgs(f"workers must be >= 1, got {workers}")
    return runs, check_seed(master_seed), workers, check_int(dense_cap, "dense_cap")


def _collect(
    cfg: ModelConfig,
    strategy: Strategy,
    n_runs: int,
    master_seed: int,
    *,
    dense_cap: int,
    want_counts: bool,
    workers: int,
):
    """Statistics of replicates [0, n_runs) of the strategy's seed block."""
    if workers == 1 or n_runs < 2 * workers:
        return _run_block(cfg, strategy, master_seed, 0, n_runs, dense_cap, want_counts)
    size = -(-n_runs // workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(
            pool.map(
                _run_block_args,
                [
                    (cfg, strategy, master_seed, lo, min(n_runs, lo + size), dense_cap, want_counts)
                    for lo in range(0, n_runs, size)
                ],
            )
        )
    counts = None
    if want_counts:
        counts = np.zeros((cfg.n_nodes, cfg.n_nodes), dtype=np.int64)
        for part in parts:
            counts += part[0]
    edge_totals = np.concatenate([part[1] for part in parts])
    examined_total = sum(part[2] for part in parts)
    level_active = parts[0][3].copy()
    for part in parts[1:]:
        level_active += part[3]
    return counts, edge_totals, examined_total, level_active


def _check_real(value, name: str, low: float, high: float, *, with_low: bool = False) -> float:
    """A real, non-bool argument in (low, high), or [low, high) ``with_low``,
    as a float; NaN and infinities are never in range."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise BadArgs(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not ((low < value or (with_low and value == low)) and value < high):
        raise BadArgs(f"{name} must lie in {'[' if with_low else '('}{low}, {high}), got {value}")
    return value


@dataclass(frozen=True, eq=False)
class MarginalReport:
    """Per-cell empirical frequencies against exact cell probabilities."""

    strategy: Strategy
    n_samples: int
    master_seed: int
    z_threshold: float
    theoretical: np.ndarray
    empirical: np.ndarray
    z_scores: np.ndarray
    checked_cells: int
    flagged_cells: tuple[tuple[int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.flagged_cells

    def to_dict(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy.value,
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "z_threshold": self.z_threshold,
            "checked_cells": self.checked_cells,
            "flagged_cells": [list(cell) for cell in self.flagged_cells],
            "max_abs_z": float(np.max(np.abs(self.z_scores))) if self.z_scores.size else 0.0,
            "passed": self.passed,
        }


def marginal_test(
    cfg: ModelConfig,
    strategy: Strategy | str,
    n_samples: int,
    master_seed: int,
    *,
    z_threshold: float = 4.0,
    workers: int = 1,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> MarginalReport:
    """Compare per-cell edge frequencies with the exact cell probabilities.

    Every retained cell with probability strictly inside (0, 1) gets a
    normal-approximation z-score; cells with degenerate probability must
    match exactly.  Cells are flagged beyond ``z_threshold``.

    Raises:
        BadArgs: a count, seed or cap that is not an integer in range, or
            a ``z_threshold`` that is not a finite number above 0.
        CapExceeded: the dense probability grid exceeds ``dense_cap``.
    """
    strategy = Strategy(strategy)
    z_threshold = _check_real(z_threshold, "z_threshold", 0.0, math.inf)
    n_samples, master_seed, workers, dense_cap = _check_args(
        "n_samples", n_samples, master_seed, workers, dense_cap
    )
    theory = kronecker_power(cfg.theta, cfg.levels, dense_cap=dense_cap).probs
    counts, _, _, _ = _collect(
        cfg,
        strategy,
        n_samples,
        master_seed,
        dense_cap=dense_cap,
        want_counts=True,
        workers=workers,
    )
    mask = _mode_mask(cfg)
    empirical = counts / float(n_samples)
    z = np.zeros_like(theory)
    core = mask & (theory > 0.0) & (theory < 1.0)
    se = np.sqrt(theory[core] * (1.0 - theory[core]) / n_samples)
    z[core] = (empirical[core] - theory[core]) / se
    degenerate = mask & ~core
    exact_bad = degenerate & (empirical != theory)
    z[exact_bad] = np.inf
    flagged_mask = (np.abs(z) > z_threshold) & mask
    flagged = tuple(
        (int(r), int(c)) for r, c in np.argwhere(flagged_mask)
    )
    return MarginalReport(
        strategy=strategy,
        n_samples=n_samples,
        master_seed=master_seed,
        z_threshold=z_threshold,
        theoretical=theory,
        empirical=empirical,
        z_scores=z,
        checked_cells=int(mask.sum()),
        flagged_cells=flagged,
    )


def _merge_bins(a: np.ndarray, b: np.ndarray):
    """Pool adjacent count bins until each holds >= _MIN_BIN_TOTAL draws."""
    bins_a: list[int] = []
    bins_b: list[int] = []
    acc_a = acc_b = 0
    for va, vb in zip(a, b):
        acc_a += int(va)
        acc_b += int(vb)
        if acc_a + acc_b >= _MIN_BIN_TOTAL:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if bins_a:
            bins_a[-1] += acc_a
            bins_b[-1] += acc_b
        else:
            bins_a.append(acc_a)
            bins_b.append(acc_b)
    return np.asarray(bins_a, dtype=np.float64), np.asarray(bins_b, dtype=np.float64)


def _two_sample_chisquare(a_totals: np.ndarray, b_totals: np.ndarray):
    """Two-sample chi-square over pooled edge-count histograms."""
    lo = int(min(a_totals.min(), b_totals.min()))
    hi = int(max(a_totals.max(), b_totals.max()))
    hist_a = np.bincount(a_totals - lo, minlength=hi - lo + 1).astype(np.int64)
    hist_b = np.bincount(b_totals - lo, minlength=hi - lo + 1).astype(np.int64)
    merged_a, merged_b = _merge_bins(hist_a, hist_b)
    dof = merged_a.size - 1
    if dof < 1:
        return 0.0, 1.0
    denom = merged_a + merged_b
    stat = float(np.sum((merged_a - merged_b) ** 2 / denom))
    return stat, float(chi2.sf(stat, dof))


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Distributional comparison of two strategies on one configuration."""

    strategy_a: Strategy
    strategy_b: Strategy
    n_samples: int
    master_seed: int
    z_threshold: float
    p_threshold: float
    max_abs_z: float
    flagged_cells: tuple[tuple[int, int], ...]
    chi2_stat: float
    chi2_pvalue: float

    @property
    def passed(self) -> bool:
        return not self.flagged_cells and self.chi2_pvalue > self.p_threshold

    def to_dict(self) -> dict[str, Any]:
        return {
            "strategy_a": self.strategy_a.value,
            "strategy_b": self.strategy_b.value,
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "z_threshold": self.z_threshold,
            "p_threshold": self.p_threshold,
            "max_abs_z": self.max_abs_z,
            "flagged_cells": [list(cell) for cell in self.flagged_cells],
            "chi2_stat": self.chi2_stat,
            "chi2_pvalue": self.chi2_pvalue,
            "passed": self.passed,
        }


def equivalence_test(
    cfg: ModelConfig,
    strategy_a: Strategy | str,
    strategy_b: Strategy | str,
    n_samples: int,
    master_seed: int,
    *,
    z_threshold: float = 4.0,
    p_threshold: float = 0.001,
    workers: int = 1,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> EquivalenceReport:
    """Check two strategies draw from the same distribution.

    Runs ``n_samples`` independent replicates per strategy (per-strategy seed
    blocks, so comparing a strategy with itself reproduces identical runs),
    then compares per-cell marginals with pooled two-sample z-scores and the
    total-edge-count histograms with a two-sample chi-square.

    Raises:
        BadArgs: a count, seed or cap that is not an integer in range, a
            ``z_threshold`` that is not a finite number above 0, or a
            ``p_threshold`` outside (0, 1).
        CapExceeded: the per-cell comparison needs a dense grid over the cap.
    """
    strategy_a = Strategy(strategy_a)
    strategy_b = Strategy(strategy_b)
    z_threshold = _check_real(z_threshold, "z_threshold", 0.0, math.inf)
    p_threshold = _check_real(p_threshold, "p_threshold", 0.0, 1.0)
    n_samples, master_seed, workers, dense_cap = _check_args(
        "n_samples", n_samples, master_seed, workers, dense_cap
    )
    if cfg.n_nodes * cfg.n_nodes > dense_cap:
        raise CapExceeded(
            f"per-cell comparison needs {cfg.n_nodes}**2 dense cells, above the cap"
        )
    results = {}
    for strategy in (strategy_a, strategy_b):
        results[strategy] = _collect(
            cfg,
            strategy,
            n_samples,
            master_seed,
            dense_cap=dense_cap,
            want_counts=True,
            workers=workers,
        )
    counts_a, totals_a = results[strategy_a][0], results[strategy_a][1]
    counts_b, totals_b = results[strategy_b][0], results[strategy_b][1]

    mask = _mode_mask(cfg)
    pooled = (counts_a + counts_b) / (2.0 * n_samples)
    rate_a = counts_a / float(n_samples)
    rate_b = counts_b / float(n_samples)
    z = np.zeros_like(pooled)
    core = mask & (pooled > 0.0) & (pooled < 1.0)
    se = np.sqrt(pooled[core] * (1.0 - pooled[core]) * (2.0 / n_samples))
    z[core] = (rate_a[core] - rate_b[core]) / se
    flagged_mask = (np.abs(z) > z_threshold) & mask
    flagged = tuple((int(r), int(c)) for r, c in np.argwhere(flagged_mask))
    stat, pvalue = _two_sample_chisquare(totals_a, totals_b)
    return EquivalenceReport(
        strategy_a=strategy_a,
        strategy_b=strategy_b,
        n_samples=n_samples,
        master_seed=master_seed,
        z_threshold=z_threshold,
        p_threshold=p_threshold,
        max_abs_z=float(np.max(np.abs(z))) if z.size else 0.0,
        flagged_cells=flagged,
        chi2_stat=stat,
        chi2_pvalue=pvalue,
    )


@dataclass(frozen=True)
class StrategyCost:
    """Observed and predicted RV counts for one strategy."""

    mean_rvs_examined: float
    formula_value: float
    ebound: int | None
    within_bound: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "mean_rvs_examined": self.mean_rvs_examined,
            "formula_value": self.formula_value,
            "ebound": self.ebound,
            "within_bound": self.within_bound,
        }


@dataclass(frozen=True)
class ComplexityReport:
    """RV accounting audit over replicated runs."""

    n_runs: int
    master_seed: int
    tol: float
    strategies: dict[str, StrategyCost]
    mean_active_by_level: tuple[float, ...]
    expected_active_by_level: tuple[float, ...]
    active_within_tol: bool

    @property
    def passed(self) -> bool:
        return self.active_within_tol and all(
            cost.within_bound for cost in self.strategies.values()
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_runs": self.n_runs,
            "master_seed": self.master_seed,
            "tol": self.tol,
            "strategies": {
                name: cost.to_dict() for name, cost in self.strategies.items()
            },
            "mean_active_by_level": list(self.mean_active_by_level),
            "expected_active_by_level": list(self.expected_active_by_level),
            "active_within_tol": self.active_within_tol,
            "passed": self.passed,
        }


def complexity_audit(
    cfg: ModelConfig,
    n_runs: int,
    master_seed: int,
    *,
    tol: float = 0.05,
    workers: int = 1,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> ComplexityReport:
    """Audit examined-RV counts of the full and pruned sweeps.

    The full sweep must examine exactly its closed-form count on every run
    (hard assertion).  The pruned sweep's mean examined count is compared to
    its closed-form ceiling, and mean realized cells per level to their
    expectations within relative tolerance ``tol``.

    Raises:
        BadArgs: a count, seed or cap that is not an integer in range, or
            a ``tol`` that is not a finite number >= 0.
        AssertionError: a full-sweep run examined a different RV count.
    """
    tol = _check_real(tol, "tol", 0.0, math.inf, with_low=True)
    n_runs, master_seed, workers, dense_cap = _check_args(
        "n_runs", n_runs, master_seed, workers, dense_cap
    )
    expected_ci = ci_rv_count(cfg)

    _, _, examined_ci, _ = _collect(
        cfg,
        Strategy.CI,
        n_runs,
        master_seed,
        dense_cap=dense_cap,
        want_counts=False,
        workers=workers,
    )
    if examined_ci != expected_ci * n_runs:
        raise AssertionError(
            f"full sweep examined {examined_ci} RVs over {n_runs} runs, "
            f"expected exactly {expected_ci} per run"
        )

    _, _, examined_dcsd, level_active = _collect(
        cfg,
        Strategy.DCSD,
        n_runs,
        master_seed,
        dense_cap=dense_cap,
        want_counts=False,
        workers=workers,
    )
    mean_examined = examined_dcsd / n_runs
    ebound = dcsd_ebound(cfg)
    mass = cfg.theta.mass
    pruned_formula = float(
        sum(mass ** (cfg.untied_levels + lam) for lam in range(cfg.tied_levels + 1))
    )
    mean_active = tuple(float(v) / n_runs for v in level_active)
    expected = tuple(
        expected_active(cfg, lam) for lam in range(cfg.tied_levels + 1)
    )
    within = all(
        math.isclose(obs, exp, rel_tol=tol) for obs, exp in zip(mean_active, expected)
    )
    strategies = {
        Strategy.CI.value: StrategyCost(
            mean_rvs_examined=float(examined_ci / n_runs),
            formula_value=float(expected_ci),
            ebound=None,
            within_bound=True,
        ),
        Strategy.DCSD.value: StrategyCost(
            mean_rvs_examined=float(mean_examined),
            formula_value=pruned_formula,
            ebound=ebound,
            within_bound=bool(mean_examined <= ebound),
        ),
    }
    return ComplexityReport(
        n_runs=n_runs,
        master_seed=master_seed,
        tol=tol,
        strategies=strategies,
        mean_active_by_level=mean_active,
        expected_active_by_level=expected,
        active_within_tol=within,
    )


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary of one sampled network."""

    n_nodes: int
    edge_count: int
    max_degree: int
    histogram: dict[int, int]

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "edge_count": self.edge_count,
            "max_degree": self.max_degree,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def degree_stats(net: SampledNetwork) -> DegreeStats:
    """Degree histogram of a network; out-degrees when directed.

    Undirected networks store each edge once (row < col) and both endpoints
    count.  Nodes without edges contribute to the zero-degree bin, so the
    histogram always sums to ``n_nodes``.
    """
    if net.directed:
        endpoints = net.edges[:, 0]
    else:
        endpoints = net.edges.reshape(-1)
    nodes, counts = np.unique(endpoints, return_counts=True)
    histogram: dict[int, int] = {}
    degrees, multiplicity = np.unique(counts, return_counts=True)
    for degree, times in zip(degrees, multiplicity):
        histogram[int(degree)] = int(times)
    touched = int(nodes.size)
    if net.n_nodes > touched:
        histogram[0] = histogram.get(0, 0) + (net.n_nodes - touched)
    max_degree = int(degrees.max()) if degrees.size else 0
    return DegreeStats(
        n_nodes=net.n_nodes,
        edge_count=net.edge_count,
        max_degree=max_degree,
        histogram=histogram,
    )
