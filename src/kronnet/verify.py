"""Statistical and structural verification of the samplers.

Replicated runs use sampler seeds derived from one master seed (see
:mod:`kronnet.rng`), so every report is a pure function of its arguments and
re-running with the same master seed reproduces it bit for bit, regardless
of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.stats import chi2

from .config import DEFAULT_DENSE_CAP, I64_MAX, ModelConfig, check_int
from .errors import BadArgs, CapExceeded, Overflow
from .kron import ci_rv_count, dcsd_ebound, expected_active, kronecker_power
from .rng import check_seed, level_states, replicate_seeds, stream_from_state
from .samplers import ModelSampler, SampledNetwork, Strategy, mode_filter, mode_keep

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


# Replicates whose seeds and level states are derived in one bulk call; it
# bounds the derivation's temporaries (about 1 KiB per replicate and level).
# Cells go into the counts replicate by replicate, so memory does not grow
# with the chunk.
_CHUNK_REPLICATES = 4096


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
    replicate_seed(master_seed, block, i))`` does, through the same cells
    path and edge-mode filter, with its level streams derived in bulk.  The
    invariants that ``SampledNetwork`` and ``LevelTrace`` enforce are checked
    on flat cell keys and columns.  Returns summable per-block statistics.
    """
    engine = ModelSampler(cfg, dense_cap=dense_cap)
    n = cfg.n_nodes
    cells = n * n
    if cells > I64_MAX:
        raise Overflow(f"{n}**2 cells exceed signed 64-bit cell keys")
    block = _STRATEGY_BLOCK[strategy]
    levels = cfg.tied_levels + 1
    counts = np.zeros(cells, dtype=np.int64) if want_counts else None
    edge_totals = np.empty(stop - start, dtype=np.int64)
    examined_total = 0
    level_active: list[int] = []
    for lo in range(start, stop, _CHUNK_REPLICATES):
        hi = min(stop, lo + _CHUNK_REPLICATES)
        states = level_states(replicate_seeds(master_seed, block, lo, hi), levels)
        for pos, replicate in enumerate(states, lo - start):
            rows, cols, trace = engine._cells(
                strategy, lambda lam, replicate=replicate: stream_from_state(replicate[lam])
            )
            rows, cols = mode_filter(cfg, rows, cols)
            keys = rows * n + cols
            if keys.size:
                # Columns in [0, n) and keys strictly increasing in [0, n**2) are
                # exactly SampledNetwork's ordered, in-range, duplicate-free edges.
                if not (
                    0 <= cols.min()
                    and cols.max() < n
                    and 0 <= keys[0]
                    and keys[-1] < cells
                    and bool((keys[1:] > keys[:-1]).all())
                ):
                    raise BadArgs(
                        f"cells must be strictly increasing keys in [0, {cells}) "
                        f"with columns in [0, {n})"
                    )
                if counts is not None:
                    # the keys are unique, so fancy-index += counts each one once
                    counts[keys] += 1
            edge_totals[pos] = keys.size
            if not level_active:
                level_active = [0] * len(trace)
            for lam, (level, examined, active) in enumerate(trace):
                if level != lam or not 0 <= active <= examined:
                    raise BadArgs(
                        f"bad level record {(level, examined, active)} at position {lam}"
                    )
                examined_total += examined
                level_active[lam] += active
    if counts is not None:
        counts = counts.reshape(n, n)
    return counts, edge_totals, examined_total, np.asarray(level_active, dtype=np.int64)


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
        BadArgs: a count, seed or cap that is not an integer in range.
        CapExceeded: the dense probability grid exceeds ``dense_cap``.
    """
    strategy = Strategy(strategy)
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
        BadArgs: a count, seed or cap that is not an integer in range.
        CapExceeded: the per-cell comparison needs a dense grid over the cap.
    """
    strategy_a = Strategy(strategy_a)
    strategy_b = Strategy(strategy_b)
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
        BadArgs: a count, seed or cap that is not an integer in range.
        AssertionError: a full-sweep run examined a different RV count.
    """
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
