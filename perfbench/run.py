"""kronnet benchmark.

Run from the root of a kronnet checkout:

    python3 perfbench/run.py --workload tied-large --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed amount of work once untraced and twice traced and reports the
per-layer metrics, the tracing overhead and whether the counts repeat.  The
program is imported from ``src/`` of the current directory; without it the
benchmark exits with code 2 and prints no result.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and run facts
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import kronnet from ``root/src`` only; None when it is not there."""
    src = root / "src"
    if not (src / "kronnet" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import kronnet

    if Path(kronnet.__file__).resolve().parent != (src / "kronnet").resolve():
        return None
    return kronnet


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path, kronnet) -> dict:
    import numpy
    import scipy

    backend = getattr(kronnet, "active_backend", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kronnet_backend": backend() if backend else "absent",
        "has_numba": getattr(kronnet, "HAS_NUMBA", "absent"),
        "git_commit": git_commit(root),
    }


def summarize(tally, names) -> list[str]:
    from workloads import quartiles

    lines = []
    for name in names:
        values = tally.samples.get(name, [])
        if values:
            q1, med, q3 = quartiles(values)
            lines.append(
                f"  {name:26s} {tally.value(name):<12.6g} per call: median {med:.6g}"
                f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
            )
    return lines


def run_workload(load, trace: bool, seconds: float):
    """Measure one workload; returns the tally, run info and metric values."""
    import layers
    import workloads

    if trace:
        tally, info, rec = workloads.traced(load)
        values = info.pop("metrics")
        return tally, info, layers.PER_LAYER_UNITS, values, rec.dump()
    tally, info = workloads.measure(load, seconds)
    units = workloads.END_TO_END_UNITS
    return tally, info, units, {name: tally.value(name) for name in units}, None


def result_line(tally, units: dict, values: dict) -> dict:
    """The benchmark's final JSON object."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    kronnet = import_program(root)
    if kronnet is None:
        print(f"error: no kronnet package under {root / 'src'}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    facts = machine_facts(root, kronnet)
    try:
        load = workloads.Workload(args.workload, args.seed, workdir)
        tally, info, units, values, spans = run_workload(load, bool(args.trace), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"facts: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info)}")
    if not args.trace:
        print("metrics (throughputs are the first decile of per-call rates):")
        extra = sorted(set(tally.samples) - set(units))
        print("\n".join(summarize(tally, list(units) + extra)))
    print(f"failed_frac {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    line = result_line(tally, units, values)
    record = {"facts": facts, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "info": info, "problems": tally.problems,
              "samples": tally.samples, **line}
    if spans is not None:
        record["spans"] = spans
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
