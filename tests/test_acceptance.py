"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them on
success) and enforces its stated tolerance and wall-time budget.  The
checks are statistical but fully deterministic: every replicate seed
derives from the fixed master seeds below.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy.stats import binom, chi2

from kronnet import (
    CapExceeded,
    ModelSampler,
    Strategy,
    ancestral_sample,
    binomial_draw,
    build_bn,
    check_csi,
    check_dcsd,
    ci_rv_count,
    dcsd_ebound,
    grid_groups,
    kronecker_power,
    make_config,
    sample,
)
from kronnet.cli import main as cli_main
from kronnet.verify import complexity_audit, equivalence_test, marginal_test

MASTER_SEED = 20260814

WORKED_THETA = [[0.9, 0.7], [0.5, 0.3]]


def worked_cfg():
    return make_config(WORKED_THETA, 3, 2)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_full_sweep_exact_rv_count():
    cfg = worked_cfg()
    start = time.perf_counter()
    bb = cfg.b * cfg.b
    closed_form = (bb ** (cfg.levels + 1) - bb**cfg.untied_levels) // (bb - 1)
    counts = set()
    engine = ModelSampler(cfg)
    for run in range(100):
        _, trace = engine.run(Strategy.CI, MASTER_SEED + run)
        counts.add(trace.total_examined)
    elapsed = time.perf_counter() - start
    ok = (
        counts == {80}
        and closed_form == 80
        and ci_rv_count(cfg) == 80
        and elapsed < 1.0
    )
    _report(
        "1 full-sweep count",
        ok,
        f"100 runs each examined {sorted(counts)} RVs, closed form {closed_form}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_pruned_sweep_bound_and_actives():
    cfg = worked_cfg()
    start = time.perf_counter()
    report = complexity_audit(cfg, 10_000, MASTER_SEED)
    elapsed = time.perf_counter() - start
    dcsd = report.strategies["dcsd"]
    mean_final = report.mean_active_by_level[-1]
    ok = (
        dcsd.mean_rvs_examined <= 64
        and dcsd.ebound == 64
        and math.isclose(mean_final, 13.824, rel_tol=0.05)
        and elapsed < 30.0
    )
    _report(
        "2 pruned-sweep bound",
        ok,
        f"mean examined {dcsd.mean_rvs_examined:.2f} <= 64, mean final actives "
        f"{mean_final:.3f} vs 13.824, {elapsed:.1f}s",
    )


def test_criterion_3_marginals_all_strategies():
    cfg = worked_cfg()
    theory = kronecker_power(cfg.theta, 3).probs
    assert theory[0, 0] == np.float64(0.9) ** 3
    details = []
    ok = True
    for strategy in Strategy:
        start = time.perf_counter()
        report = marginal_test(cfg, strategy, 100_000, MASTER_SEED)
        elapsed = time.perf_counter() - start
        flagged = len(report.flagged_cells)
        ok = ok and flagged <= 2 and report.checked_cells == 64 and elapsed < 600.0
        details.append(f"{strategy.value}: {flagged}/64 cells beyond 4 sigma, {elapsed:.0f}s")
        np.testing.assert_array_equal(report.theoretical, theory)
    _report("3 per-cell marginals", ok, "; ".join(details))


def test_criterion_4_strategy_equivalence():
    cfg = worked_cfg()
    start = time.perf_counter()
    details = []
    ok = True
    for pair in ((Strategy.CI, Strategy.DCSD), (Strategy.DCSD, Strategy.GP)):
        report = equivalence_test(cfg, pair[0], pair[1], 100_000, MASTER_SEED)
        ok = ok and not report.flagged_cells and report.chi2_pvalue > 0.001
        details.append(
            f"{pair[0].value}~{pair[1].value}: max|z|={report.max_abs_z:.2f}, "
            f"chi2 p={report.chi2_pvalue:.3f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1200.0
    _report("4 strategy equivalence", ok, "; ".join(details) + f", {elapsed:.0f}s")


def _brute_force_joint(bn, assignment):
    """Joint probability by full enumeration of every involved tree."""
    roots = sorted({bn.root_of(nid) for nid in assignment})
    nodes = [nid for root in roots for nid in bn.tree_ids(root)]
    table = {nid: bn.node(nid) for nid in nodes}
    total = 0.0
    for values in itertools.product((0, 1), repeat=len(nodes)):
        state = dict(zip(nodes, values))
        if any(state[nid] != val for nid, val in assignment.items()):
            continue
        prob = 1.0
        for nid, value in state.items():
            node = table[nid]
            if node.is_root:
                p_one = node.prior
            elif state[node.parent_id] == 1:
                p_one = node.p_given_parent_one
            else:
                p_one = node.p_given_parent_zero
            prob *= p_one if value == 1 else 1.0 - p_one
            if prob == 0.0:
                break
        total += prob
    return total


def _sum_product_joint(bn, assignment):
    """Joint probability by recursive elimination; scales to deep trees."""

    def rec(node_id, parent_value):
        node = bn.node(node_id)
        if node.is_root:
            p_one = node.prior
        elif parent_value == 1:
            p_one = node.p_given_parent_one
        else:
            p_one = node.p_given_parent_zero
        wanted = assignment.get(node_id)
        level, row, col = node_id
        b = bn.cfg.b
        has_children = level < bn.cfg.tied_levels
        total = 0.0
        for value in (0, 1) if wanted is None else (wanted,):
            weight = p_one if value == 1 else 1.0 - p_one
            if weight == 0.0:
                continue
            if has_children:
                for i in range(b):
                    for j in range(b):
                        weight *= rec((level + 1, row * b + i, col * b + j), value)
                        if weight == 0.0:
                            break
                    if weight == 0.0:
                        break
            total += weight
        return total

    prob = 1.0
    for root in sorted({bn.root_of(nid) for nid in assignment}):
        prob *= rec(root, None)
    return prob


def _csi_from_joint(joint, bn, x, y, context, tol=1e-9):
    context = dict(context or {})
    p_ctx = joint(bn, context) if context else 1.0
    if p_ctx == 0.0:
        return True
    p_x = [joint(bn, {**context, x: xv}) for xv in (0, 1)]
    p_y = [joint(bn, {**context, y: yv}) for yv in (0, 1)]
    for xv in (0, 1):
        for yv in (0, 1):
            p_xy = joint(bn, {**context, x: xv, y: yv})
            if abs(p_xy * p_ctx - p_x[xv] * p_y[yv]) > tol:
                return False
    return True


def test_criterion_5_bn_oracle():
    start = time.perf_counter()
    count_checks = 0
    for base in (2, 3):
        rows = [[0.5] * base for _ in range(base)]
        for levels in range(1, 6):
            for untied in range(1, levels + 1):
                cfg = make_config(rows, levels, untied)
                assert build_bn(cfg).node_count == ci_rv_count(cfg)
                count_checks += 1

    cfg = worked_cfg()
    bn = build_bn(cfg)
    for seed in (MASTER_SEED, MASTER_SEED + 1, MASTER_SEED + 2):
        net_bn, trace_bn = ancestral_sample(bn, seed)
        net_ci, trace_ci = sample(cfg, Strategy.CI, seed)
        np.testing.assert_array_equal(net_bn.edges, net_ci.edges)
        assert trace_bn == trace_ci
    assert check_dcsd(bn)

    # forests whose trees have at most 21 nodes: sizes 5 (b=2), 10 (b=3), 21 (b=2)
    probes = 0
    small_theta3 = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
    for cfg_probe, joint in (
        (make_config(WORKED_THETA, 3, 2), _brute_force_joint),
        (make_config(small_theta3, 2, 1), _brute_force_joint),
        (make_config(WORKED_THETA, 3, 1), _sum_product_joint),
    ):
        bn_probe = build_bn(cfg_probe)
        assert bn_probe.tree_size() <= 21
        deepest = cfg_probe.tied_levels
        cases = [
            ((deepest, 0, 0), (deepest, 0, 1), None),
            ((deepest, 0, 0), (deepest, 0, 1), {(deepest - 1, 0, 0): 1}),
            ((deepest, 0, 0), (deepest, 0, 1), {(deepest - 1, 0, 0): 0}),
            ((0, 0, 0), (deepest, 0, 0), None),
        ]
        if deepest == 2:
            cases += [
                ((2, 0, 0), (2, 0, 2), {(0, 0, 0): 1}),
                ((2, 0, 0), (2, 0, 2), None),
                ((2, 0, 0), (2, 0, 2), {(1, 0, 0): 1, (1, 0, 1): 1}),
            ]
        for x, y, ctx in cases:
            got = check_csi(bn_probe, x, y, ctx)
            expected = _csi_from_joint(joint, bn_probe, x, y, ctx)
            assert got == expected, (cfg_probe.b, x, y, ctx, got, expected)
            probes += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(
        "5 bn oracle",
        ok,
        f"{count_checks} node-count checks, ancestral==full-sweep on 3 seeds, "
        f"{probes} csi probes vs independent enumeration, {elapsed:.1f}s",
    )


def test_criterion_6_group_combinatorics():
    start = time.perf_counter()
    cfg = make_config(WORKED_THETA, 2, 1)
    classes, groups = grid_groups(cfg)
    sizes_by_prob = {round(g.prob, 12): g.size for g in groups}
    dense = kronecker_power(cfg.theta, 2).probs
    exhaustive = {}
    for i in range(4):
        for j in range(4):
            key = round(float(dense[i, j]), 12)
            exhaustive[key] = exhaustive.get(key, 0) + 1
    groups_ok = (
        len(groups) == 10
        and sum(g.size for g in groups) == 16
        and sizes_by_prob == exhaustive
    )

    rng = np.random.default_rng(MASTER_SEED)
    draws = np.array([binomial_draw(20, 0.3, rng) for _ in range(100_000)])
    pmf = binom.pmf(np.arange(21), 20, 0.3) * draws.size
    observed = np.bincount(draws, minlength=21).astype(float)
    keep = pmf >= 5.0
    tail_exp = pmf[~keep].sum()
    tail_obs = observed[~keep].sum()
    exp_bins = np.append(pmf[keep], tail_exp)
    obs_bins = np.append(observed[keep], tail_obs)
    stat = float(((obs_bins - exp_bins) ** 2 / exp_bins).sum())
    pvalue = float(chi2.sf(stat, len(exp_bins) - 1))
    elapsed = time.perf_counter() - start
    ok = groups_ok and pvalue > 0.001 and elapsed < 60.0
    _report(
        "6 group combinatorics",
        ok,
        f"10 groups, sum T=16, matches exhaustive enumeration; binomial chi2 "
        f"p={pvalue:.3f} over 100k draws, {elapsed:.1f}s",
    )


def test_criterion_7_scaling_demonstration(tmp_path):
    theta = [[0.9, 0.5], [0.5, 0.1]]
    cfg = make_config(theta, 14, 2)
    assert cfg.n_nodes == 16_384
    ebound = dcsd_ebound(cfg)
    start = time.perf_counter()
    net, trace = sample(cfg, Strategy.DCSD, MASTER_SEED)
    elapsed = time.perf_counter() - start

    refused = False
    try:
        sample(cfg, Strategy.CI, MASTER_SEED)
    except CapExceeded:
        refused = True

    cfg_path = tmp_path / "scaling.json"
    cfg_path.write_text(json.dumps({"b": 2, "theta": theta, "K": 14, "ell": 2}))
    report_path = tmp_path / "bench.json"
    code = cli_main(
        [
            "bench",
            "--config",
            str(cfg_path),
            "--seed",
            str(MASTER_SEED),
            "--k",
            "14",
            "--strategies",
            "ci,dcsd",
            "--samples",
            "1",
            "--out",
            str(report_path),
        ]
    )
    rows = json.loads(report_path.read_text())
    by_strategy = {r["strategy"]: r for r in rows}
    bench_ok = (
        code == 0
        and by_strategy["dcsd"]["status"] == "ok"
        and by_strategy["dcsd"]["seconds"] < 60.0
        and by_strategy["ci"]["status"].startswith("refused")
    )
    ok = (
        trace.total_examined < ebound
        and elapsed < 60.0
        and refused
        and bench_ok
        and net.n_nodes == 16_384
    )
    _report(
        "7 scaling",
        ok,
        f"pruned sweep on 16384 nodes in {elapsed:.2f}s examined "
        f"{trace.total_examined} < ebound {ebound}, {net.edge_count} edges; "
        f"full sweep refused by cap; bench report wall "
        f"{by_strategy['dcsd'].get('seconds', float('nan')):.2f}s",
    )
