"""The benchmark's workloads, their output checks and the measurement loops.

Every workload uses the worked seed matrix theta = [[.9, .7], [.5, .3]]
(b = 2), directed with self-loops, and runs all four strategies, so each
end-to-end metric exists on each workload; the workloads differ in which
layers carry the load:

* ``tied-large``: tied model, ell = 4; ``dcsd``/``gp`` at K = 13 and
  ``naive``/``ci`` at K = 12, the largest size under the default dense cap.
  Load falls on ``randvar`` placement, ``_kernels``, the per-level sort in
  ``samplers`` and ``output``.
* ``plain-grid``: plain model, K = ell = 12, one reused ``ModelSampler``;
  ``gp`` is the whole-grid entry.  Load falls on ``kron`` (dense grid),
  ``groups`` (grid groups, unranking) and level-0 handling; no tied levels,
  so ``_kernels`` and the tied-level sort are bypassed.
* ``replicates-small``: the worked example (K = 3, ell = 2).  Sampling is
  measured through ``verify.marginal_test``, plus the CLI's equivalence
  pairs and the complexity audit, so the cost is per-replicate overhead.

Each sampled network is written as ``kronnet generate --out`` writes it: an
edge list plus its trace sidecar.  The program only receives configs (as
JSON files) and seeds, all derived from the workload seed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from kronnet import config as kconfig
from kronnet import kron, output, samplers, verify

import layers

THETA = [[0.9, 0.7], [0.5, 0.3]]
STRATEGIES = layers.STRATEGIES

# The statistical reports (per-cell z-tests at |z| > 4 and a chi-square at
# p < 0.001) raise a false alarm for a few percent of master seeds, so, like
# tests/test_acceptance.py, they run with a pinned master seed and fixed
# sample counts.  The audit's tolerance is tens of standard errors wide at
# the audit sample count below, so its master seed follows the workload seed.
VERIFY_MASTER_SEED = 20260814
EQUIVALENCE_PAIRS = (("ci", "dcsd"), ("dcsd", "gp"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"sample_rvs_per_s.{s}": "1/s" for s in STRATEGIES},
    "write_edges_per_s": "1/s",
}

# Seed-derivation keys.
_WARMUP, _ROUND, _AUDIT = 0, 1, 2


def derive_seed(*keys: int) -> int:
    """64-bit sampler seed from the workload seed and position keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Size:
    """Sizes of one workload; ``tiny`` variants serve the smoke test."""

    levels_large: int = 0
    levels_dense: int = 0
    untied: int = 0
    verify_samples: int = 0
    audit_runs: int = 0
    # Networks generated per call of a generate operation.
    batch: int = 1
    setup_repeats: int = 3


SIZES = {
    ("tied-large", False): Size(levels_large=13, levels_dense=12, untied=4),
    ("tied-large", True): Size(levels_large=7, levels_dense=6, untied=4, setup_repeats=2),
    ("plain-grid", False): Size(levels_dense=12),
    ("plain-grid", True): Size(levels_dense=5, setup_repeats=2),
    ("replicates-small", False): Size(
        levels_dense=3, untied=2, verify_samples=2000, audit_runs=2000,
        batch=25, setup_repeats=101,
    ),
    ("replicates-small", True): Size(
        levels_dense=3, untied=2, verify_samples=200, audit_runs=2000,
        batch=2, setup_repeats=2,
    ),
}
WORKLOADS = ("tied-large", "plain-grid", "replicates-small")


class Tally:
    """Operations attempted and failed, plus metric samples by name.

    A throughput is the first decile of its per-call rates: the rate that
    nine calls in ten reach, i.e. the 90th percentile of time per unit of
    work.  On a shared host the program's speed switches between a fast and a
    slow state for seconds to minutes at a time, and a run's share of fast
    time varies from run to run.  The run's mean rate follows that share; its
    first decile stays in the slow state as long as at least a tenth of the
    calls run in it.  Other metrics are the median of their samples.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.rates: set[str] = set()

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def rate(self, name: str, work: float, seconds: float) -> None:
        self.rates.add(name)
        self.add(name, work / seconds)

    def value(self, name: str) -> float:
        values = self.samples[name]
        if name not in self.rates:
            return statistics.median(values)
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=10, method="inclusive")[0]

    def op(self, label: str, fn: Callable[[], list[str]]) -> None:
        """Run one operation; an exception or a failed check counts as failed."""
        self.attempted += 1
        try:
            problems = fn()
        except Exception:  # a failing operation is counted, not fatal
            problems = [traceback.format_exc(limit=4)]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


@dataclass
class Job:
    """One strategy on one engine; ``sample(seed)`` is the user-level call."""

    strategy: str
    cfg: object
    sample: Callable
    entry: str
    ci_count: int = 0


@dataclass
class State:
    """What a workload's set-up builds."""

    jobs: list[Job]
    cfg_small: object = None
    expected_examined: dict[str, float] = field(default_factory=dict)


class Workload:
    """A named workload: its inputs, set-up and operation kinds."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.size = SIZES[(name, tiny)]
        self.workdir = workdir
        self.configs = self._write_configs()

    # -- inputs -----------------------------------------------------------

    def _write_configs(self) -> dict[str, Path]:
        size = self.size
        shapes = {
            "tied-large": {
                "large": (size.levels_large, size.untied),
                "dense": (size.levels_dense, size.untied),
            },
            "plain-grid": {"dense": (size.levels_dense, size.levels_dense)},
            "replicates-small": {"dense": (size.levels_dense, size.untied)},
        }[self.name]
        paths = {}
        for key, (levels, untied) in shapes.items():
            path = self.workdir / f"{self.name}-{key}.json"
            path.write_text(
                json.dumps(
                    {"b": 2, "theta": THETA, "K": levels, "ell": untied,
                     "directed": True, "self_loops": True}
                ),
                encoding="utf-8",
            )
            paths[key] = path
        return paths

    # -- set-up -----------------------------------------------------------

    def setup(self) -> State:
        """Load configs, build engines, and warm every strategy up once."""
        cfgs = {key: kconfig.load_config(path) for key, path in self.configs.items()}
        engines = {key: samplers.ModelSampler(cfg) for key, cfg in cfgs.items()}
        dense = engines["dense"]
        hier = engines.get("large", dense)
        # ci fills the engine's lazy dense level-0 grid, which would switch a
        # shared plain-grid engine's dcsd off its row-streamed level 0.
        full = samplers.ModelSampler(cfgs["dense"]) if self.name == "plain-grid" else dense
        jobs = [
            Job("naive", dense.cfg, partial(dense.run, "naive"), "run"),
            Job("ci", full.cfg, partial(full.run, "ci"), "run"),
            Job("dcsd", hier.cfg, partial(hier.run, "dcsd"), "run"),
        ]
        if self.name == "plain-grid" and hasattr(dense, "run_grid_gp"):
            jobs.append(Job("gp", dense.cfg, dense.run_grid_gp, "run_grid_gp"))
        else:
            jobs.append(Job("gp", hier.cfg, partial(hier.run, "gp"), 'run("gp")'))
        for pos, job in enumerate(jobs):
            job.sample(derive_seed(self.seed, _WARMUP, pos))
        state = State(jobs=jobs)
        if self.name == "replicates-small":
            state.cfg_small = dense.cfg
            state.expected_examined = _expected_examined(dense.cfg)
        return state

    @staticmethod
    def ready(state: State) -> State:
        """Add the facts the output checks need, outside any timing."""
        for job in state.jobs:
            job.ci_count = kron.ci_rv_count(job.cfg)
        return state

    # -- operations -------------------------------------------------------

    def operations(self, state: State) -> list[tuple[str, Callable[[int, Tally], None]]]:
        """The workload's operation kinds; each call runs one of them once.

        ``call`` numbers the calls of one kind, and with the job it keys the
        sampler seeds.
        """
        ops = []
        if self.name == "replicates-small":
            ops += self._verify_ops(state)
        for pos, job in enumerate(state.jobs):
            ops.append((f"generate {job.strategy}", partial(self._generate_batch, pos, job)))
        return ops

    def _generate_batch(self, pos: int, job: Job, call: int, tally: Tally) -> None:
        for rep in range(self.size.batch):
            seed = derive_seed(self.seed, _ROUND, pos, call, rep)
            tally.op(
                f"generate {job.strategy} seed={seed}",
                partial(self._generate, job, seed, tally),
            )

    def _generate(self, job: Job, seed: int, tally: Tally) -> list[str]:
        start = time.perf_counter()
        net, trace = job.sample(seed)
        elapsed = time.perf_counter() - start
        if self.name != "replicates-small":
            tally.rate(f"sample_rvs_per_s.{job.strategy}", trace.total_examined, elapsed)
        problems = check_trace(job, net, trace)
        # A fresh path per network, as separate generate calls would use;
        # rewriting one path makes the file system flush the old blocks.
        path = str(self.workdir / f"{job.strategy}-{seed}.tsv")
        start = time.perf_counter()
        output.save_edgelist(net, path)
        output.save_json(output.trace_to_dict(trace), path + ".trace.json")
        tally.rate("write_edges_per_s", net.edge_count, time.perf_counter() - start)
        problems += check_written(path, net, trace)
        os.remove(path)
        os.remove(path + ".trace.json")
        return problems

    def _verify_ops(self, state: State):
        ops = [
            (f"marginal {s}", partial(self._marginal, state, s)) for s in STRATEGIES
        ]
        ops += [
            (f"equivalence {a}~{b}", partial(self._equivalence, state, a, b))
            for a, b in EQUIVALENCE_PAIRS
        ]
        ops.append(("audit", partial(self._audit, state)))
        return ops

    def _marginal(self, state: State, strategy: str, call: int, tally: Tally) -> None:
        n = self.size.verify_samples

        def op():
            start = time.perf_counter()
            report = verify.marginal_test(state.cfg_small, strategy, n, VERIFY_MASTER_SEED)
            elapsed = time.perf_counter() - start
            tally.rate(
                f"sample_rvs_per_s.{strategy}",
                n * state.expected_examined[strategy],
                elapsed,
            )
            tally.rate("verify_runs_per_s", n, elapsed)
            return _report_problems(report)

        tally.op(f"marginal {strategy}", op)

    def _equivalence(self, state: State, a: str, b: str, call: int, tally: Tally) -> None:
        n = self.size.verify_samples

        def op():
            start = time.perf_counter()
            report = verify.equivalence_test(state.cfg_small, a, b, n, VERIFY_MASTER_SEED)
            tally.rate("verify_runs_per_s", 2 * n, time.perf_counter() - start)
            return _report_problems(report)

        tally.op(f"equivalence {a}~{b}", op)

    def _audit(self, state: State, call: int, tally: Tally) -> None:
        runs = self.size.audit_runs

        def op():
            start = time.perf_counter()
            report = verify.complexity_audit(
                state.cfg_small, runs, derive_seed(self.seed, _AUDIT, call)
            )
            tally.rate("audit_runs_per_s", 2 * runs, time.perf_counter() - start)
            return _report_problems(report)

        tally.op("audit", op)


def _expected_examined(cfg) -> dict[str, float]:
    """RVs one run examines: exact for naive and ci, expected for dcsd and gp."""
    b2 = cfg.b * cfg.b
    mass = float(np.sum(THETA))
    pruned = b2 ** cfg.untied_levels + b2 * sum(
        mass ** (cfg.untied_levels + lam) for lam in range(cfg.tied_levels)
    )
    return {
        "naive": float(cfg.n_nodes**2),
        "ci": float(kron.ci_rv_count(cfg)),
        "dcsd": float(pruned),
        "gp": float(pruned),
    }


def _report_problems(report) -> list[str]:
    if report.passed:
        return []
    return [f"report not passed: {json.dumps(report.to_dict(), default=str)[:300]}"]


# -- output checks ------------------------------------------------------------


def check_trace(job: Job, net, trace) -> list[str]:
    problems = []
    if trace.final_active != net.edge_count:
        problems.append(
            f"final_active {trace.final_active} != edge_count {net.edge_count}"
        )
    levels = trace.per_level
    if job.strategy in ("dcsd", "gp"):
        b2 = job.cfg.b * job.cfg.b
        for prev, cur in zip(levels, levels[1:]):
            if cur.rvs_examined != b2 * prev.rvs_active:
                problems.append(
                    f"level {cur.level}: examined {cur.rvs_examined} != "
                    f"{b2} * active {prev.rvs_active}"
                )
    if job.strategy == "ci" and trace.total_examined != job.ci_count:
        problems.append(f"ci examined {trace.total_examined} != {job.ci_count}")
    return problems


def check_written(path: str, net, trace) -> list[str]:
    problems = []
    text = Path(path).read_text(encoding="utf-8")
    back = np.fromstring(text, dtype=np.int64, sep=" ") if text else np.empty(0, np.int64)
    if back.size != net.edges.size or not np.array_equal(back.reshape(-1, 2), net.edges):
        problems.append("edge list read back differs from net.edges")
    with open(path + ".trace.json", encoding="utf-8") as handle:
        if json.load(handle) != json.loads(json.dumps(output.trace_to_dict(trace))):
            problems.append("trace sidecar read back differs from the trace")
    return problems


# -- measurement --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: Workload, seconds: float) -> tuple[Tally, dict]:
    """Untraced run: repeated set-up, then operations until ``seconds`` elapse.

    Each operation kind gets an equal share of the time: the next call goes
    to the kind with the least time spent so far, so kinds interleave and
    cheap ones are sampled more often.
    """
    tally = Tally()
    setups = []
    for _ in range(workload.size.setup_repeats):
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    workload.ready(state)
    tally.samples["setup_s"] = setups
    ops = workload.operations(state)
    spent = [0.0] * len(ops)
    calls = [0] * len(ops)
    deadline = time.perf_counter() + seconds
    while min(calls) == 0 or time.perf_counter() < deadline:
        pick = min(range(len(ops)), key=lambda k: (spent[k], k))
        start = time.perf_counter()
        ops[pick][1](calls[pick], tally)
        spent[pick] += time.perf_counter() - start
        calls[pick] += 1
    tally.add("peak_rss_mb", _peak_rss_mb())
    info = {
        "calls": {label: n for (label, _), n in zip(ops, calls)},
        "entries": {job.strategy: job.entry for job in state.jobs},
    }
    return tally, info


def traced(workload: Workload) -> tuple[Tally, dict, layers.Recorder]:
    """Fixed work (set-up plus one call of each operation kind), run
    untraced and traced in turn, twice each, then once under tracemalloc.

    Per-layer values are the mean of the two traced passes; the overhead is
    the traced minus the untraced wall time.  The counts of all three traced
    passes must be equal.
    """
    tally = Tally()

    def one_pass() -> float:
        start = time.perf_counter()
        state = workload.ready(workload.setup())
        for _, op in workload.operations(state):
            op(0, tally)
        return time.perf_counter() - start

    untraced_s, traced_s, recs = [], [], []
    for _ in range(2):
        untraced_s.append(one_pass())
        with layers.tracing() as rec:
            traced_s.append(one_pass())
        recs.append(rec)
    with layers.tracing(track_alloc=True) as rec_alloc:
        one_pass()
    first, second = (rec.metrics() for rec in recs)
    metrics = {name: (first[name] + second[name]) / 2 for name in first}
    alloc = rec_alloc.metrics()
    for strategy in STRATEGIES:
        name = f"samplers.run.peak_alloc_mb.{strategy}"
        metrics[name] = alloc[name]
    counts = [rec.counts() for rec in (*recs, rec_alloc)]
    mismatched = sorted(
        name for name in counts[0] if len({c[name] for c in counts}) > 1
    )
    tally.attempted += 1
    if mismatched:
        tally.failed += 1
        tally.problems.append(
            "counts differ between traced runs: "
            + ", ".join(f"{n} {[c[n] for c in counts]}" for n in mismatched)
        )
    overhead = sum(traced_s) / 2 - sum(untraced_s) / 2
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / (sum(untraced_s) / 2)
    metrics["trace.count_mismatches"] = float(len(mismatched))
    info = {"untraced_s": untraced_s, "traced_s": traced_s}
    return tally, {"metrics": metrics, **info}, recs[0]


def _peak_rss_mb() -> float:
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20
