"""Command-line interface.

Subcommands:
    generate  sample one network and write an edge list or trace
    verify    statistical checks of per-cell marginals and strategy agreement
    audit     RV accounting against the closed-form cost formulas
    bench     wall-time and examined-RV sweep over sizes and strategies

Exit codes: 0 success, 1 failed verification/audit, 2 bad arguments,
bad config, refused capacity, or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Any

from .config import DEFAULT_DENSE_CAP, config_to_dict, load_config
from .errors import BadArgs, KronnetError
from .output import (
    dump_json,
    format_table,
    save_edgelist,
    save_json,
    trace_to_dict,
    write_edgelist,
)
from .rng import check_seed
from .samplers import ModelSampler, Strategy
from .verify import complexity_audit, equivalence_test, marginal_test

_ENV_MASTER_SEED = "GNM_MASTER_SEED"

_EQUIVALENCE_PAIRS = (
    (Strategy.CI, Strategy.DCSD),
    (Strategy.DCSD, Strategy.GP),
)


def _strategy_arg(parser: argparse.ArgumentParser, *, required: bool) -> None:
    parser.add_argument(
        "--strategy",
        choices=[s.value for s in Strategy],
        required=required,
        help="sampling strategy",
    )


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="model config JSON path")
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_DENSE_CAP,
        help="dense-grid cap in entries: naive, ci and per-cell checks refuse "
        "above it; dcsd and gp do not read it, but every strategy refuses a "
        f"level-0 sweep with rows wider than 2**24 cells (default {DEFAULT_DENSE_CAP})",
    )
    parser.add_argument("--out", help="output path (default: stdout)")


def _seed_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="sampler seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronnet",
        description="Sample networks from Kronecker-product edge-probability "
        "models and verify the samplers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample one network")
    _common_args(gen)
    _strategy_arg(gen, required=True)
    _seed_arg(gen)
    gen.add_argument(
        "--format",
        choices=["edgelist", "trace-json"],
        default="edgelist",
        help="output format (default edgelist)",
    )

    ver = sub.add_parser("verify", help="statistical correctness checks")
    _common_args(ver)
    _strategy_arg(ver, required=False)
    _seed_arg(ver)
    ver.add_argument("--samples", type=int, default=10000, help="replicates per check")
    ver.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    ver.add_argument(
        "--format",
        choices=["report-json"],
        default="report-json",
        help="format of --out (text summary always prints)",
    )

    aud = sub.add_parser("audit", help="RV accounting audit")
    _common_args(aud)
    _seed_arg(aud)
    aud.add_argument("--samples", type=int, default=2000, help="replicates per strategy")
    aud.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    aud.add_argument(
        "--format",
        choices=["report-json"],
        default="report-json",
        help="format of --out (text summary always prints)",
    )

    ben = sub.add_parser("bench", help="size/strategy sweep")
    _common_args(ben)
    _seed_arg(ben)
    ben.add_argument(
        "--k",
        default=None,
        help="comma-separated total level counts to sweep (default: config K); "
        "a plain config (ell == K) stays plain, a tied one keeps its ell",
    )
    ben.add_argument(
        "--strategies",
        default="ci,dcsd",
        help="comma-separated strategies to sweep (default ci,dcsd)",
    )
    ben.add_argument("--samples", type=int, default=3, help="timed runs per point")
    return parser


def _master_seed(args: argparse.Namespace) -> int:
    """Seed from --seed, falling back to the GNM_MASTER_SEED env var."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(_ENV_MASTER_SEED)
    if raw is None:
        raise BadArgs(f"provide --seed or set {_ENV_MASTER_SEED}")
    try:
        return int(raw)
    except ValueError as exc:
        raise BadArgs(f"{_ENV_MASTER_SEED} must be an integer, got {raw!r}") from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is None:
        raise BadArgs("generate requires --seed")
    engine = ModelSampler(cfg, dense_cap=args.cap)
    net, trace = engine.run(Strategy(args.strategy), args.seed)
    if args.format == "trace-json":
        payload = trace_to_dict(trace)
        if args.out:
            save_json(payload, args.out)
        else:
            dump_json(payload, sys.stdout)
        return 0
    if args.out:
        save_edgelist(net, args.out)
        save_json(trace_to_dict(trace), args.out + ".trace.json")
    else:
        write_edgelist(net, sys.stdout)
    return 0


def _timing(runs: int, elapsed: float) -> dict[str, float]:
    """Wall time of a verify/audit command's checks and its replicate rate."""
    return {"elapsed_s": elapsed, "runs_per_s": runs / elapsed}


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(args)
    strategies = (
        [Strategy(args.strategy)] if args.strategy else list(Strategy)
    )
    rows: list[list[Any]] = []
    marginal_payload = []
    ok = True
    runs = 0
    start = time.perf_counter()
    for strategy in strategies:
        report = marginal_test(
            cfg,
            strategy,
            args.samples,
            seed,
            workers=args.workers,
            dense_cap=args.cap,
        )
        marginal_payload.append(report.to_dict())
        runs += args.samples
        ok = ok and report.passed
        rows.append(
            [
                "marginal",
                strategy.value,
                f"max|z|={report.to_dict()['max_abs_z']:.2f} "
                f"flagged={len(report.flagged_cells)}/{report.checked_cells}",
                "pass" if report.passed else "FAIL",
            ]
        )
    equivalence_payload = []
    if not args.strategy:
        for strat_a, strat_b in _EQUIVALENCE_PAIRS:
            report = equivalence_test(
                cfg,
                strat_a,
                strat_b,
                args.samples,
                seed,
                workers=args.workers,
                dense_cap=args.cap,
            )
            equivalence_payload.append(report.to_dict())
            runs += 2 * args.samples
            ok = ok and report.passed
            rows.append(
                [
                    "equivalence",
                    f"{strat_a.value}~{strat_b.value}",
                    f"max|z|={report.max_abs_z:.2f} chi2 p={report.chi2_pvalue:.3f}",
                    "pass" if report.passed else "FAIL",
                ]
            )
    elapsed = time.perf_counter() - start
    sys.stdout.write(format_table(["check", "strategy", "detail", "status"], rows))
    sys.stdout.write(f"verify: {'pass' if ok else 'FAIL'}\n")
    if args.out:
        save_json(
            {
                "config": config_to_dict(cfg),
                "n_samples": args.samples,
                "master_seed": seed,
                "marginal": marginal_payload,
                "equivalence": equivalence_payload,
                "passed": ok,
                **_timing(runs, elapsed),
            },
            args.out,
        )
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = _master_seed(args)
    start = time.perf_counter()
    try:
        report = complexity_audit(
            cfg,
            args.samples,
            seed,
            workers=args.workers,
            dense_cap=args.cap,
        )
    except AssertionError as exc:
        sys.stdout.write(f"audit: FAIL ({exc})\n")
        return 1
    elapsed = time.perf_counter() - start
    rows = []
    for name, cost in report.strategies.items():
        rows.append(
            [
                name,
                f"{cost.mean_rvs_examined:.2f}",
                f"{cost.formula_value:.2f}",
                "-" if cost.ebound is None else str(cost.ebound),
                "yes" if cost.within_bound else "NO",
            ]
        )
    sys.stdout.write(
        format_table(
            ["strategy", "mean_examined", "formula", "ebound", "within_bound"], rows
        )
    )
    level_rows = [
        [str(level), f"{obs:.3f}", f"{exp:.3f}"]
        for level, (obs, exp) in enumerate(
            zip(report.mean_active_by_level, report.expected_active_by_level)
        )
    ]
    sys.stdout.write(format_table(["tied_level", "mean_active", "expected"], level_rows))
    sys.stdout.write(f"audit: {'pass' if report.passed else 'FAIL'}\n")
    if args.out:
        # The audit runs ci and dcsd once per sample each.
        save_json({**report.to_dict(), **_timing(2 * args.samples, elapsed)}, args.out)
    return 0 if report.passed else 1


_BENCH_COLUMNS = ("k", "strategy", "status", "seconds", "rvs_examined", "edges")


def _bench_cell(point: dict[str, Any], column: str) -> Any:
    value = point.get(column, "-")
    return f"{value:.6f}" if isinstance(value, float) else value


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = check_seed(args.seed if args.seed is not None else 0)
    if args.k:
        try:
            levels_list = [int(part) for part in args.k.split(",") if part.strip()]
        except ValueError as exc:
            raise BadArgs(f"--k must be comma-separated integers, got {args.k!r}") from exc
    else:
        levels_list = [cfg.levels]
    strategies = [Strategy(part.strip()) for part in args.strategies.split(",") if part.strip()]
    if args.samples < 1:
        raise BadArgs(f"--samples must be >= 1, got {args.samples}")
    payload: list[dict[str, Any]] = []
    for levels in levels_list:
        for strategy in strategies:
            point: dict[str, Any] = {"k": levels, "strategy": strategy.value}
            try:
                untied = levels if cfg.tied_levels == 0 else cfg.untied_levels
                point_cfg = dataclasses.replace(cfg, levels=levels, untied_levels=untied)
                engine = ModelSampler(point_cfg, dense_cap=args.cap)
                engine.run(strategy, seed)  # warm-up
                best = float("inf")
                for _ in range(args.samples):
                    start = time.perf_counter()
                    net, trace = engine.run(strategy, seed)
                    best = min(best, time.perf_counter() - start)
            except KronnetError as exc:
                point["status"] = f"refused: {exc}"
            else:
                point.update(
                    status="ok",
                    seconds=best,
                    rvs_examined=trace.total_examined,
                    edges=net.edge_count,
                )
            payload.append(point)
    rows = [[_bench_cell(point, col) for col in _BENCH_COLUMNS] for point in payload]
    sys.stdout.write(format_table(list(_BENCH_COLUMNS), rows))
    if args.out:
        save_json(payload, args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "verify": _cmd_verify,
    "audit": _cmd_audit,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KronnetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
