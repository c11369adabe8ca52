"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side: the public functions of each
``kronnet`` module are wrapped where their callers look them up (the package
uses ``from .x import y``, so e.g. ``kronnet.samplers.choose_without_replacement``
is the name the samplers call, not ``kronnet.randvar.choose_without_replacement``).
Each span keeps its name, start, end and parent; spans stay in memory until the
run writes them out.  Targets missing from the program are skipped, so a later
refactor that removes a name reports zero calls instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

STRATEGIES = ("naive", "ci", "dcsd", "gp")

# Layer functions: span name -> lookup sites (module, attribute) to wrap.
# ``Class.method`` attributes are patched on the class, which covers every
# module that imported the class.
LAYER_FUNCS: dict[str, tuple[tuple[str, str], ...]] = {
    "config.load_config": (("kronnet.config", "load_config"),),
    "config.validate_config": tuple(
        (mod, "validate_config")
        for mod in (
            "kronnet.config",
            "kronnet.kron",
            "kronnet.groups",
            "kronnet.samplers",
            "kronnet.verify",
        )
    ),
    "kron.kronecker_power": (
        ("kronnet.samplers", "kronecker_power"),
        ("kronnet.verify", "kronecker_power"),
    ),
    "kron.ci_rv_count": (
        ("kronnet.samplers", "ci_rv_count"),
        ("kronnet.verify", "ci_rv_count"),
    ),
    "rng.level_rng": (("kronnet.samplers", "level_rng"),),
    "rng.replicate_seed": (("kronnet.verify", "replicate_seed"),),
    "randvar.binomial_draw": (("kronnet.samplers", "binomial_draw"),),
    "randvar.choose_without_replacement": (
        ("kronnet.samplers", "choose_without_replacement"),
    ),
    "groups.grid_groups": (("kronnet.samplers", "grid_groups"),),
    "groups.unrank_grid_cell": (("kronnet.samplers", "unrank_grid_cell"),),
    "kernels.expand_active": (("kronnet.samplers", "expand_active"),),
    "kernels.masked_grid_select": (("kronnet.samplers", "masked_grid_select"),),
    "samplers.run": (("kronnet.samplers", "ModelSampler.run"),),
    "samplers.run_grid_gp": (("kronnet.samplers", "ModelSampler.run_grid_gp"),),
    "samplers.finalize_edges": (("kronnet.samplers", "finalize_edges"),),
    "verify.marginal_test": (("kronnet.verify", "marginal_test"),),
    "verify.equivalence_test": (("kronnet.verify", "equivalence_test"),),
    "verify.complexity_audit": (("kronnet.verify", "complexity_audit"),),
    "output.save_edgelist": (("kronnet.output", "save_edgelist"),),
    "output.save_json": (("kronnet.output", "save_json"),),
}

_RUN_SPANS = ("samplers.run", "samplers.run_grid_gp")


def _count_choose(rec, args, kwargs, result):
    rec.add("randvar.choose_without_replacement.items", len(result))


def _count_expand(rec, args, kwargs, result):
    rec.add("kernels.expand_active.candidates", int(args[2].size))


def _count_masked(rec, args, kwargs, result):
    rec.add("kernels.masked_grid_select.cells", int(args[1].size))


def _count_kron(rec, args, kwargs, result):
    rec.add("kron.kronecker_power.entries", int(result.probs.size))


def _count_save_edgelist(rec, args, kwargs, result):
    rec.add("output.save_edgelist.bytes", os.path.getsize(args[1]))


def _count_run(rec, args, kwargs, result):
    trace = result[1]
    rec.add("samplers.rvs_examined", trace.total_examined)
    rec.add("samplers.rvs_active", trace.total_active)


_COUNTERS = {
    "randvar.choose_without_replacement": _count_choose,
    "kernels.expand_active": _count_expand,
    "kernels.masked_grid_select": _count_masked,
    "kron.kronecker_power": _count_kron,
    "output.save_edgelist": _count_save_edgelist,
    "samplers.run": _count_run,
    "samplers.run_grid_gp": _count_run,
}

# Every per-layer metric the traced run emits, with its unit.  Layers a
# workload does not touch report zero.
PER_LAYER_UNITS: dict[str, str] = {}
for _name in LAYER_FUNCS:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.s"] = "s"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS.update(
    {
        "randvar.choose_without_replacement.items": "count",
        "kernels.expand_active.candidates": "count",
        "kernels.masked_grid_select.cells": "count",
        "kron.kronecker_power.entries": "count",
        "output.save_edgelist.bytes": "B",
        "samplers.rvs_examined": "count",
        "samplers.rvs_active": "count",
        "samplers.active_per_examined": "ratio",
        **{f"samplers.run.peak_alloc_mb.{s}": "MB" for s in STRATEGIES},
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.count_mismatches": "count",
    }
)

# Names whose values must repeat exactly between two traced runs.
COUNT_NAMES = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit in ("count", "B") and not name.startswith("trace.")
)


class Recorder:
    """In-memory span store: (name, start, end, parent index) per span."""

    def __init__(self, track_alloc: bool = False) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_time: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.track_alloc = track_alloc
        self._stack: list[int] = []
        self._child: list[float] = []

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += int(amount)

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        is_run = name in _RUN_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self.self_time.append(0.0)
            self._stack.append(idx)
            self._child.append(0.0)
            if is_run and self.track_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                child = self._child.pop()
                self.spans[idx] = (name, start, end, parent)
                self.self_time[idx] = (end - start) - child
                if self._child:
                    self._child[-1] += end - start
            if is_run and self.track_alloc:
                strategy = "gp" if name == "samplers.run_grid_gp" else _strategy_of(args)
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_alloc[strategy] = max(self.peak_alloc[strategy], peak)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def counts(self) -> dict[str, int]:
        out = self.layer_totals()
        return {name: int(out.get(name, 0)) for name in COUNT_NAMES}

    def layer_totals(self) -> dict[str, float]:
        """Calls, inclusive and self time per span name, plus counters."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), self_s in zip(self.spans, self.self_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
        out.update(self.counters)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; the ``trace.*`` ones are filled by the caller."""
        totals = self.layer_totals()
        values = {name: float(totals.get(name, 0.0)) for name in PER_LAYER_UNITS}
        examined = values["samplers.rvs_examined"]
        values["samplers.active_per_examined"] = (
            values["samplers.rvs_active"] / examined if examined else 0.0
        )
        for strategy in STRATEGIES:
            values[f"samplers.run.peak_alloc_mb.{strategy}"] = (
                self.peak_alloc.get(strategy, 0) / 2**20
            )
        return values

    def dump(self) -> dict:
        """JSON-ready spans: parallel lists keep the file compact."""
        return {
            "fields": ["name", "start", "end", "parent", "self_s"],
            "spans": [
                [name, start, end, parent, self_s]
                for (name, start, end, parent), self_s in zip(self.spans, self.self_time)
            ],
        }


def _strategy_of(args) -> str:
    from kronnet.samplers import Strategy

    return Strategy(args[1]).value


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
    return owner, attr


@contextmanager
def tracing(track_alloc: bool = False):
    """Wrap every layer function for the duration of the block."""
    rec = Recorder(track_alloc=track_alloc)
    patched: list[tuple[object, str, object]] = []
    if track_alloc:
        tracemalloc.start()
    try:
        for name, sites in LAYER_FUNCS.items():
            for module_name, attr in sites:
                owner, attr = _resolve(module_name, attr)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                patched.append((owner, attr, original))
                setattr(owner, attr, rec.wrap(name, original))
        yield rec
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        if track_alloc:
            tracemalloc.stop()
