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

from .config import DEFAULT_DENSE_CAP, ModelConfig
from .errors import BadArgs
from .groups import DEFAULT_GROUP_CAP
from .kron import ci_rv_count, dcsd_ebound, expected_active, kronecker_power
from .rng import replicate_seed
from .samplers import ModelSampler, SampledNetwork, Strategy

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
    if not cfg.directed:
        return np.triu(np.ones((n, n), dtype=bool), k=1)
    if not cfg.self_loops:
        return ~np.eye(n, dtype=bool)
    return np.ones((n, n), dtype=bool)


def _block_seeds(master_seed: int, strategy: Strategy, n: int) -> list[int]:
    block = _STRATEGY_BLOCK[strategy]
    return [replicate_seed(master_seed, block, i) for i in range(n)]


def _run_block(
    cfg: ModelConfig,
    strategy: Strategy,
    seeds: list[int],
    dense_cap: int,
    group_cap: int,
    want_counts: bool,
):
    """Run one replicate block; returns summable per-block statistics."""
    engine = ModelSampler(cfg, dense_cap=dense_cap, group_cap=group_cap)
    n = cfg.n_nodes
    counts = np.zeros((n, n), dtype=np.int64) if want_counts else None
    edge_totals = np.empty(len(seeds), dtype=np.int64)
    examined_total = 0
    level_active: np.ndarray | None = None
    for pos, seed in enumerate(seeds):
        net, trace = engine.run(strategy, seed)
        if counts is not None and net.edge_count:
            counts[net.edges[:, 0], net.edges[:, 1]] += 1
        edge_totals[pos] = net.edge_count
        examined_total += trace.total_examined
        actives = np.fromiter(
            (entry.rvs_active for entry in trace.per_level), dtype=np.int64
        )
        if level_active is None:
            level_active = np.zeros(actives.size, dtype=np.int64)
        level_active += actives
    return counts, edge_totals, examined_total, level_active


def _run_block_args(args):
    return _run_block(*args)


def _collect(
    cfg: ModelConfig,
    strategy: Strategy,
    seeds: list[int],
    *,
    dense_cap: int,
    group_cap: int,
    want_counts: bool,
    workers: int,
):
    if workers < 1:
        raise BadArgs(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(seeds) < 2 * workers:
        return _run_block(cfg, strategy, seeds, dense_cap, group_cap, want_counts)
    # plain slicing: numpy would promote the u64-range seed ints to float64
    size = -(-len(seeds) // workers)
    chunks = [seeds[i : i + size] for i in range(0, len(seeds), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(
            pool.map(
                _run_block_args,
                [
                    (cfg, strategy, chunk, dense_cap, group_cap, want_counts)
                    for chunk in chunks
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
    group_cap: int = DEFAULT_GROUP_CAP,
) -> MarginalReport:
    """Compare per-cell edge frequencies with the exact cell probabilities.

    Every retained cell with probability strictly inside (0, 1) gets a
    normal-approximation z-score; cells with degenerate probability must
    match exactly.  Cells are flagged beyond ``z_threshold``.

    Raises:
        BadArgs: n_samples < 1.
        CapExceeded: the dense probability grid exceeds ``dense_cap``.
    """
    strategy = Strategy(strategy)
    if n_samples < 1:
        raise BadArgs(f"n_samples must be >= 1, got {n_samples}")
    theory = kronecker_power(cfg.theta, cfg.levels, dense_cap=dense_cap).probs
    seeds = _block_seeds(master_seed, strategy, n_samples)
    counts, _, _, _ = _collect(
        cfg,
        strategy,
        seeds,
        dense_cap=dense_cap,
        group_cap=group_cap,
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


def _merge_bins(values: np.ndarray, a: np.ndarray, b: np.ndarray):
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
    grid = np.arange(lo, hi + 1)
    hist_a = np.bincount(a_totals - lo, minlength=grid.size).astype(np.int64)
    hist_b = np.bincount(b_totals - lo, minlength=grid.size).astype(np.int64)
    merged_a, merged_b = _merge_bins(grid, hist_a, hist_b)
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
    group_cap: int = DEFAULT_GROUP_CAP,
) -> EquivalenceReport:
    """Check two strategies draw from the same distribution.

    Runs ``n_samples`` independent replicates per strategy (per-strategy seed
    blocks, so comparing a strategy with itself reproduces identical runs),
    then compares per-cell marginals with pooled two-sample z-scores and the
    total-edge-count histograms with a two-sample chi-square.

    Raises:
        BadArgs: n_samples < 1.
        CapExceeded: the per-cell comparison needs a dense grid over the cap.
    """
    strategy_a = Strategy(strategy_a)
    strategy_b = Strategy(strategy_b)
    if n_samples < 1:
        raise BadArgs(f"n_samples must be >= 1, got {n_samples}")
    if cfg.n_nodes * cfg.n_nodes > dense_cap:
        raise BadArgs(
            f"per-cell comparison needs {cfg.n_nodes}**2 dense cells, above the cap"
        )
    results = {}
    for strategy in (strategy_a, strategy_b):
        seeds = _block_seeds(master_seed, strategy, n_samples)
        results[strategy] = _collect(
            cfg,
            strategy,
            seeds,
            dense_cap=dense_cap,
            group_cap=group_cap,
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
    group_cap: int = DEFAULT_GROUP_CAP,
) -> ComplexityReport:
    """Audit examined-RV counts of the full and pruned sweeps.

    The full sweep must examine exactly its closed-form count on every run
    (hard assertion).  The pruned sweep's mean examined count is compared to
    its closed-form ceiling, and mean realized cells per level to their
    expectations within relative tolerance ``tol``.

    Raises:
        BadArgs: n_runs < 1.
        AssertionError: a full-sweep run examined a different RV count.
    """
    if n_runs < 1:
        raise BadArgs(f"n_runs must be >= 1, got {n_runs}")
    expected_ci = ci_rv_count(cfg)

    seeds_ci = _block_seeds(master_seed, Strategy.CI, n_runs)
    _, _, examined_ci, _ = _collect(
        cfg,
        Strategy.CI,
        seeds_ci,
        dense_cap=dense_cap,
        group_cap=group_cap,
        want_counts=False,
        workers=workers,
    )
    if examined_ci != expected_ci * n_runs:
        raise AssertionError(
            f"full sweep examined {examined_ci} RVs over {n_runs} runs, "
            f"expected exactly {expected_ci} per run"
        )

    seeds_dcsd = _block_seeds(master_seed, Strategy.DCSD, n_runs)
    _, _, examined_dcsd, level_active = _collect(
        cfg,
        Strategy.DCSD,
        seeds_dcsd,
        dense_cap=dense_cap,
        group_cap=group_cap,
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
