import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronnet.samplers as samplers_mod
import kronnet.verify as verify_mod
from kronnet import (
    BadArgs,
    CapExceeded,
    LevelTrace,
    SampledNetwork,
    Strategy,
    binomial_draw,
    choose_without_replacement,
    ci_rv_count,
    complexity_audit,
    degree_stats,
    edge_prob,
    equivalence_test,
    expected_active,
    kronecker_power,
    level_rng,
    make_config,
    marginal_test,
    replicate_seed,
    sample,
)
from kronnet.samplers import ModelSampler, finalize_edges
from kronnet.verify import _merge_bins, _two_sample_chisquare


def small_cfg():
    return make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)


# -- marginal test -------------------------------------------------------------


def test_marginal_test_passes_for_correct_sampler():
    cfg = small_cfg()
    report = marginal_test(cfg, Strategy.DCSD, 4000, master_seed=11)
    assert report.passed
    assert report.flagged_cells == ()
    assert report.checked_cells == 16
    expected = kronecker_power(cfg.theta, 2).probs
    np.testing.assert_array_equal(report.theoretical, expected)
    assert np.max(np.abs(report.empirical - expected)) < 0.05


def test_marginal_test_all_strategies_pass():
    cfg = small_cfg()
    for strategy in Strategy:
        report = marginal_test(cfg, strategy, 3000, master_seed=5)
        assert report.passed, (strategy, report.flagged_cells)


def test_marginal_test_deterministic():
    cfg = small_cfg()
    rep_a = marginal_test(cfg, "dcsd", 1500, master_seed=3)
    rep_b = marginal_test(cfg, "dcsd", 1500, master_seed=3)
    np.testing.assert_array_equal(rep_a.empirical, rep_b.empirical)
    np.testing.assert_array_equal(rep_a.z_scores, rep_b.z_scores)


def test_marginal_test_worker_count_invariant():
    cfg = small_cfg()
    serial = marginal_test(cfg, "gp", 900, master_seed=21, workers=1)
    parallel = marginal_test(cfg, "gp", 900, master_seed=21, workers=3)
    np.testing.assert_array_equal(serial.empirical, parallel.empirical)


def test_marginal_test_tiny_threshold_flags_cells():
    cfg = small_cfg()
    report = marginal_test(cfg, "dcsd", 500, master_seed=7, z_threshold=0.01)
    assert not report.passed
    assert len(report.flagged_cells) > 0


def test_marginal_test_handles_degenerate_cells():
    cfg = make_config([[1.0, 0.0], [0.5, 1.0]], 2, 1)
    report = marginal_test(cfg, "ci", 400, master_seed=9)
    assert report.passed
    # the all-ones corner cell realizes every run, the zero block never
    assert report.empirical[0, 0] == 1.0
    assert report.empirical[0, 3] == 0.0


def test_marginal_test_mode_masks():
    cfg = small_cfg()
    undirected = dataclasses.replace(cfg, directed=False)
    loopless = dataclasses.replace(cfg, self_loops=False)
    n = cfg.n_nodes
    rep_u = marginal_test(undirected, "dcsd", 200, master_seed=1)
    assert rep_u.checked_cells == n * (n - 1) // 2
    rep_l = marginal_test(loopless, "dcsd", 200, master_seed=1)
    assert rep_l.checked_cells == n * n - n


@pytest.mark.parametrize(
    "directed,self_loops", [(True, True), (False, True), (True, False)]
)
def test_mode_mask_matches_mode_filter(directed, self_loops):
    # the grid mask the reports use keeps exactly the cells the sampler keeps
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 2, directed=directed, self_loops=self_loops)
    n = cfg.n_nodes
    rows, cols = np.divmod(np.arange(n * n), n)
    edges = finalize_edges(cfg, rows, cols).edges
    expected = np.zeros((n, n), dtype=bool)
    expected[edges[:, 0], edges[:, 1]] = True
    np.testing.assert_array_equal(verify_mod._mode_mask(cfg), expected)


def test_marginal_test_validation():
    with pytest.raises(BadArgs):
        marginal_test(small_cfg(), "dcsd", 0, master_seed=1)
    with pytest.raises(BadArgs):
        marginal_test(small_cfg(), "dcsd", 10, master_seed=1, workers=0)


def test_marginal_report_json_ready():
    report = marginal_test(small_cfg(), "naive", 300, master_seed=2)
    blob = json.dumps(report.to_dict())
    assert "max_abs_z" in blob


# -- equivalence test -----------------------------------------------------------


def test_equivalence_same_strategy_is_identical():
    report = equivalence_test(small_cfg(), "dcsd", "dcsd", 500, master_seed=4)
    assert report.max_abs_z == 0.0
    assert report.chi2_stat == 0.0
    assert report.chi2_pvalue == 1.0
    assert report.passed


@pytest.mark.parametrize("pair", [("ci", "dcsd"), ("dcsd", "gp"), ("ci", "gp")])
def test_equivalence_across_hierarchical_strategies(pair):
    report = equivalence_test(small_cfg(), pair[0], pair[1], 3000, master_seed=31)
    assert report.passed, report.to_dict()


def test_equivalence_detects_per_cell_vs_hierarchical_joint_law():
    # with a tied level, the per-cell scan shares marginals with the
    # hierarchical sweeps but not the joint law: total edge counts spread
    # much wider under tying, and the histogram test must catch that
    report = equivalence_test(small_cfg(), "naive", "ci", 3000, master_seed=31)
    assert report.flagged_cells == ()  # marginals agree
    assert report.chi2_pvalue < 1e-6  # joint law does not
    assert not report.passed


@pytest.mark.usefixtures("group_every_grid")
def test_equivalence_naive_matches_when_every_level_untied():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 2)
    for other in ("ci", "dcsd", "gp"):
        report = equivalence_test(cfg, "naive", other, 2500, master_seed=6)
        assert report.passed, (other, report.to_dict())


@pytest.mark.usefixtures("group_every_grid")
def test_whole_grid_gp_passes_verify():
    # K = ell = 3: gp samples by whole-grid groups, not a level-0 sweep
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 3)
    marginal = marginal_test(cfg, "gp", 3000, master_seed=12)
    assert marginal.passed, marginal.flagged_cells
    report = equivalence_test(cfg, "naive", "gp", 3000, master_seed=12)
    assert report.passed, report.to_dict()


@pytest.mark.usefixtures("group_every_grid")
def test_grouped_level0_with_tied_levels_passes_verify(worked_cfg):
    # gp groups the untied 4x4 grid, then draws the tied level as dcsd
    assert ModelSampler(worked_cfg)._grid_tables is not None
    marginal = marginal_test(worked_cfg, "gp", 3000, master_seed=14)
    assert marginal.passed, marginal.flagged_cells
    report = equivalence_test(worked_cfg, "dcsd", "gp", 3000, master_seed=14)
    assert report.passed, report.to_dict()


def test_equivalence_deterministic_and_worker_invariant():
    cfg = small_cfg()
    rep_a = equivalence_test(cfg, "ci", "gp", 600, master_seed=8, workers=1)
    rep_b = equivalence_test(cfg, "ci", "gp", 600, master_seed=8, workers=2)
    assert rep_a.chi2_stat == rep_b.chi2_stat
    assert rep_a.max_abs_z == rep_b.max_abs_z


def test_equivalence_validation():
    with pytest.raises(BadArgs):
        equivalence_test(small_cfg(), "ci", "dcsd", 0, master_seed=1)


def test_per_cell_reports_over_cap_raise_cap_exceeded(worked_cfg):
    # the worked example has 8**2 = 64 cells
    with pytest.raises(CapExceeded):
        equivalence_test(worked_cfg, "ci", "dcsd", 10, master_seed=1, dense_cap=63)
    with pytest.raises(CapExceeded):
        marginal_test(worked_cfg, "dcsd", 10, master_seed=1, dense_cap=63)


# -- chi-square helpers ----------------------------------------------------------


def test_merge_bins_pools_sparse_tails():
    a = np.array([1, 2, 30, 30, 2, 1])
    b = np.array([0, 3, 28, 31, 1, 2])
    merged_a, merged_b = _merge_bins(a, b)
    assert merged_a.sum() == a.sum()
    assert merged_b.sum() == b.sum()
    assert np.all(merged_a + merged_b >= 10)


def test_two_sample_chisquare_detects_shift():
    rng = np.random.default_rng(0)
    a = rng.binomial(40, 0.3, size=4000)
    b = rng.binomial(40, 0.36, size=4000)
    _, pvalue = _two_sample_chisquare(a, b)
    assert pvalue < 1e-6


def test_two_sample_chisquare_accepts_same_law():
    rng = np.random.default_rng(1)
    a = rng.binomial(40, 0.3, size=4000)
    b = rng.binomial(40, 0.3, size=4000)
    _, pvalue = _two_sample_chisquare(a, b)
    assert pvalue > 1e-3


def test_two_sample_chisquare_degenerate_single_bin():
    a = np.full(50, 7)
    stat, pvalue = _two_sample_chisquare(a, a.copy())
    assert stat == 0.0
    assert pvalue == 1.0


# -- complexity audit -------------------------------------------------------------


def test_complexity_audit_worked_example(worked_cfg):
    report = complexity_audit(worked_cfg, 800, master_seed=13)
    assert report.passed
    ci = report.strategies["ci"]
    assert ci.mean_rvs_examined == 80.0
    assert ci.formula_value == 80.0
    assert ci.within_bound
    dcsd = report.strategies["dcsd"]
    assert dcsd.ebound == 64
    assert dcsd.mean_rvs_examined <= 64
    assert dcsd.formula_value == pytest.approx(2.4**2 + 2.4**3, rel=1e-12)
    assert dcsd.formula_value < ci.formula_value
    assert report.expected_active_by_level == pytest.approx((5.76, 13.824))
    for obs, exp in zip(report.mean_active_by_level, report.expected_active_by_level):
        assert obs == pytest.approx(exp, rel=0.05)


def test_complexity_audit_deterministic(worked_cfg):
    rep_a = complexity_audit(worked_cfg, 150, master_seed=2)
    rep_b = complexity_audit(worked_cfg, 150, master_seed=2)
    assert rep_a == rep_b


def test_complexity_audit_hard_assertion_fires(worked_cfg, monkeypatch):
    monkeypatch.setattr(verify_mod, "ci_rv_count", lambda cfg: 81)
    with pytest.raises(AssertionError):
        complexity_audit(worked_cfg, 5, master_seed=1)


def test_complexity_audit_validation(worked_cfg):
    with pytest.raises(BadArgs):
        complexity_audit(worked_cfg, 0, master_seed=1)


def test_complexity_audit_json_ready(worked_cfg):
    report = complexity_audit(worked_cfg, 50, master_seed=3)
    payload = json.loads(json.dumps(report.to_dict()))
    assert set(payload["strategies"]) == {"ci", "dcsd"}


# -- degree stats ------------------------------------------------------------------


def _net(n, pairs, directed=True):
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return SampledNetwork(n_nodes=n, edges=edges, directed=directed)


def test_degree_stats_complete_directed_graph():
    n = 4
    pairs = [(i, j) for i in range(n) for j in range(n)]
    stats = degree_stats(_net(n, pairs))
    assert stats.max_degree == 4
    assert stats.histogram == {4: 4}
    assert stats.edge_count == 16


def test_degree_stats_empty_graph():
    stats = degree_stats(_net(5, []))
    assert stats.histogram == {0: 5}
    assert stats.max_degree == 0


def test_degree_stats_directed_counts_out_degrees():
    stats = degree_stats(_net(4, [(0, 1), (0, 2), (1, 2)]))
    assert stats.histogram == {0: 2, 1: 1, 2: 1}
    assert stats.max_degree == 2


def test_degree_stats_undirected_counts_both_endpoints():
    stats = degree_stats(_net(4, [(0, 1), (0, 2), (1, 2)], directed=False))
    # a triangle on nodes 0,1,2 plus the isolated node 3
    assert stats.histogram == {0: 1, 2: 3}
    assert stats.max_degree == 2


def test_degree_stats_histogram_sums_to_nodes(worked_cfg):
    from kronnet import sample

    for strategy in Strategy:
        net, _ = sample(worked_cfg, strategy, 23)
        stats = degree_stats(net)
        assert sum(stats.histogram.values()) == net.n_nodes
        assert stats.edge_count == net.edge_count


def test_degree_stats_edge_count_equals_trace_final_actives(worked_cfg):
    from kronnet import sample

    net, trace = sample(worked_cfg, Strategy.DCSD, 91)
    stats = degree_stats(net)
    assert stats.edge_count == trace.per_level[-1].rvs_active


def test_marginal_test_saturated_seed_matrix_all_cells_certain():
    cfg = make_config([[1.0, 1.0], [1.0, 1.0]], 2, 1)
    report = marginal_test(cfg, "dcsd", 50, master_seed=2)
    assert report.passed
    assert report.flagged_cells == ()
    assert np.all(report.empirical == 1.0)
    assert np.all(report.theoretical == 1.0)


def test_complexity_audit_saturated_seed_matrix_no_pruning():
    # every parent realizes, so the pruned sweep examines the full cascade
    cfg = make_config([[1.0, 1.0], [1.0, 1.0]], 3, 1)
    report = complexity_audit(cfg, 20, master_seed=4)
    full = float(ci_rv_count(cfg))
    assert report.strategies["ci"].mean_rvs_examined == full
    assert report.strategies["dcsd"].mean_rvs_examined == full


# -- the replicate block path ---------------------------------------------------


def _run_block_oracle(cfg, strategy, seeds, dense_cap, want_counts):
    """Replicate statistics through ``ModelSampler.run`` and its objects."""
    engine = ModelSampler(cfg, dense_cap=dense_cap)
    n = cfg.n_nodes
    counts = np.zeros((n, n), dtype=np.int64) if want_counts else None
    edge_totals = np.empty(len(seeds), dtype=np.int64)
    examined_total = 0
    level_active = None
    for pos, seed in enumerate(seeds):
        net, trace = engine.run(strategy, seed)
        if counts is not None and net.edge_count:
            counts[net.edges[:, 0], net.edges[:, 1]] += 1
        edge_totals[pos] = net.edge_count
        examined_total += trace.total_examined
        actives = np.fromiter((entry.rvs_active for entry in trace.per_level), dtype=np.int64)
        if level_active is None:
            level_active = np.zeros(actives.size, dtype=np.int64)
        level_active += actives
    return counts, edge_totals, examined_total, level_active


# Chunk bounds under which replicate statistics must not move: the defaults;
# stacks of one replicate through ModelSampler._cells, as run samples;
# derivation chunks of 7 replicates, which divide none of the replicate
# ranges; and those chunks sampled in stacks of 3 + 3 + 1 replicates on the
# worked example's 64-cell grid (larger grids go one replicate per stack).
ROUTES = {
    "default": {},
    "per-replicate": {"_CHUNK_CELLS": 1},
    "chunks-of-7": {"_CHUNK_REPLICATES": 7},
    "chunks-of-7-in-3s": {"_CHUNK_REPLICATES": 7, "_CHUNK_CELLS": 3 * 64},
}


def _take_route(monkeypatch, route):
    for name, value in ROUTES[route].items():
        monkeypatch.setattr(verify_mod, name, value)


BLOCK_CONFIGS = {
    "worked": ([[0.9, 0.7], [0.5, 0.3]], 3, 2),
    "b3-tied": ([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 3, 1),
    "plain-grid": ([[0.9, 0.7], [0.5, 0.3]], 3, 3),
}
EDGE_MODES = {
    "directed": {},
    "undirected": {"directed": False},
    "loop-free": {"self_loops": False},
}


def _assert_block_equal(got, expected):
    for a, b in zip(got, expected):
        if a is None:
            assert b is None
        else:
            np.testing.assert_array_equal(a, b)
    assert type(got[2]) is int and got[2] == expected[2]


@pytest.mark.parametrize("mode", sorted(EDGE_MODES))
@pytest.mark.parametrize("config", sorted(BLOCK_CONFIGS))
def test_run_block_equals_run_oracle(config, mode):
    rows, levels, untied = BLOCK_CONFIGS[config]
    cfg = make_config(rows, levels, untied, **EDGE_MODES[mode])
    for strategy in Strategy:
        block = verify_mod._STRATEGY_BLOCK[strategy]
        seeds = [replicate_seed(77, block, i) for i in range(150)]
        expected = _run_block_oracle(cfg, strategy, seeds, 1 << 26, True)
        got = verify_mod._run_block(cfg, strategy, 77, 0, 150, 1 << 26, True)
        _assert_block_equal(got, expected)
        no_counts = verify_mod._run_block(cfg, strategy, 77, 0, 150, 1 << 26, False)
        _assert_block_equal(no_counts, (None, *expected[1:]))


def test_run_block_chunks_and_ranges_match_oracle(monkeypatch, worked_cfg):
    # Bulk derivation in chunks that do not divide the range, from an offset.
    monkeypatch.setattr(verify_mod, "_CHUNK_REPLICATES", 7)
    seeds = [replicate_seed(5, 3, i) for i in range(40, 100)]
    expected = _run_block_oracle(worked_cfg, Strategy.DCSD, seeds, 1 << 26, True)
    got = verify_mod._run_block(worked_cfg, Strategy.DCSD, 5, 40, 100, 1 << 26, True)
    _assert_block_equal(got, expected)


@pytest.mark.parametrize("block_cells", [1, 20])
def test_run_block_stacks_in_row_blocks_match_oracle(monkeypatch, worked_cfg, block_cells):
    # level-0 row blocks and ci bands smaller than one replicate's grid: each
    # block reads one piece of every stacked replicate's level stream
    expected = {}
    for strategy in Strategy:
        block = verify_mod._STRATEGY_BLOCK[strategy]
        seeds = [replicate_seed(5, block, i) for i in range(40)]
        expected[strategy] = _run_block_oracle(worked_cfg, strategy, seeds, 1 << 26, True)
    monkeypatch.setattr(samplers_mod, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(samplers_mod, "_CACHE_CELLS", 0)
    for strategy in Strategy:
        got = verify_mod._run_block(worked_cfg, strategy, 5, 0, 40, 1 << 26, True)
        _assert_block_equal(got, expected[strategy])


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("strategy", [Strategy.DCSD, Strategy.GP])
def test_run_block_stacks_at_three_tied_levels_match_oracle(monkeypatch, strategy, route):
    # K = 5, ell = 2: stacks of up to 64 replicates of 1,024 cells whose
    # second and third tied levels take parent-major parents, so a stack
    # must keep each replicate's cells contiguous and in order
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 5, 2)
    block = verify_mod._STRATEGY_BLOCK[strategy]
    seeds = [replicate_seed(9, block, i) for i in range(150)]
    expected = _run_block_oracle(cfg, strategy, seeds, 1 << 26, True)
    _take_route(monkeypatch, route)
    got = verify_mod._run_block(cfg, strategy, 9, 0, 150, 1 << 26, True)
    _assert_block_equal(got, expected)


def test_run_block_rejects_duplicate_cells(monkeypatch, worked_cfg):
    # stacks of one replicate, as run samples; larger stacks have their own tests
    monkeypatch.setattr(verify_mod, "_CHUNK_CELLS", 1)
    original = ModelSampler._cells

    def duplicate_last(self, *args, **kwargs):
        rep, rows, cols, trace = original(self, *args, **kwargs)
        rep, rows, cols = (np.append(part, part[-1:]) for part in (rep, rows, cols))
        return rep, rows, cols, trace

    monkeypatch.setattr(ModelSampler, "_cells", duplicate_last)
    with pytest.raises(BadArgs):
        verify_mod._run_block(worked_cfg, Strategy.DCSD, 5, 0, 50, 1 << 26, True)
    with pytest.raises(BadArgs):
        ModelSampler(worked_cfg).run(Strategy.DCSD, replicate_seed(5, 3, 0))


@pytest.mark.parametrize("want_counts", [True, False])
@pytest.mark.parametrize("shift", [-1, 1])
def test_run_block_rejects_out_of_range_columns(monkeypatch, worked_cfg, shift, want_counts):
    # (r, c) -> (r + 1, c - n) or (r - 1, c + n) keeps every key strictly
    # increasing and inside [0, n**2); only the column check catches it
    monkeypatch.setattr(verify_mod, "_CHUNK_CELLS", 1)
    original = ModelSampler._cells
    n = worked_cfg.n_nodes

    def shift_last(self, *args, **kwargs):
        rep, rows, cols, trace = original(self, *args, **kwargs)
        rows, cols = rows.copy(), cols.copy()
        if rows.size and 0 <= rows[-1] + shift < n:
            rows[-1] += shift
            cols[-1] -= shift * n
        return rep, rows, cols, trace

    monkeypatch.setattr(ModelSampler, "_cells", shift_last)
    with pytest.raises(BadArgs, match="columns"):
        verify_mod._run_block(worked_cfg, Strategy.DCSD, 5, 0, 50, 1 << 26, want_counts)


def test_run_block_rejects_bad_level_records(monkeypatch, worked_cfg):
    monkeypatch.setattr(verify_mod, "_CHUNK_CELLS", 1)
    original = ModelSampler._cells

    def overcount(self, *args, **kwargs):
        rep, rows, cols, trace = original(self, *args, **kwargs)
        trace = trace.copy()
        trace[0, -1, 2] = trace[0, -1, 1] + 1
        return rep, rows, cols, trace

    monkeypatch.setattr(ModelSampler, "_cells", overcount)
    with pytest.raises(BadArgs):
        verify_mod._run_block(worked_cfg, Strategy.CI, 5, 0, 10, 1 << 26, False)


def _stack_sizes(monkeypatch, cfg, strategy, runs=5):
    """Replicates per ``ModelSampler._cells`` call of one ``_run_block``."""
    calls = []
    original = ModelSampler._cells

    def counted(self, strategy, states):
        calls.append(len(states))
        return original(self, strategy, states)

    monkeypatch.setattr(ModelSampler, "_cells", counted)
    verify_mod._run_block(cfg, Strategy(strategy), 5, 0, runs, 1 << 26, False)
    return calls


@pytest.mark.parametrize(
    "chunk_cells,strategy,chunked",
    [(128, "dcsd", True), (127, "dcsd", False), (1 << 16, "gp", True)],
)
def test_run_block_route(monkeypatch, worked_cfg, chunk_cells, strategy, chunked):
    # stacks of _CHUNK_CELLS // n**2 replicates of the worked example's
    # 64-cell grid, at least one
    monkeypatch.setattr(verify_mod, "_CHUNK_CELLS", chunk_cells)
    calls = _stack_sizes(monkeypatch, worked_cfg, strategy)
    per_stack = max(1, chunk_cells // 64)
    assert calls == [min(per_stack, 5 - at) for at in range(0, 5, per_stack)]
    assert (max(calls) > 1) == chunked


@pytest.mark.parametrize("levels,stack", [(3, 1024), (7, 4), (8, 1), (9, 1)])
def test_replicates_per_cells_call_follow_chunk_cells(monkeypatch, levels, stack):
    # _CHUNK_CELLS // n**2 replicates per stack (one at least), and no more
    # than the block's range holds
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], levels, 2)
    assert stack == max(1, verify_mod._CHUNK_CELLS // cfg.n_nodes**2)
    runs = min(2 * stack + 1, 7)
    assert _stack_sizes(monkeypatch, cfg, "dcsd", runs) == [
        min(stack, runs - at) for at in range(0, runs, stack)
    ]


@pytest.mark.parametrize(
    "rows,levels,untied,gp_calls,grouped",
    [
        pytest.param([[0.6, 0.4], [0.3, 0.05]], 3, 2, [5], False, id="tied-sparse"),
        pytest.param([[0.9, 0.7], [0.5, 0.3]], 3, 3, [5], True, id="whole-grid"),
    ],
)
def test_run_block_gp_route(request, monkeypatch, rows, levels, untied, gp_calls, grouped):
    # swept gp and grouped gp are stacked like dcsd; grouped gp draws its
    # groups replicate by replicate inside the stack
    if grouped:
        request.getfixturevalue("group_every_grid")
    cfg = make_config(rows, levels, untied)
    assert _stack_sizes(monkeypatch, cfg, "gp") == gp_calls
    assert _stack_sizes(monkeypatch, cfg, "dcsd") == [5]
    assert (ModelSampler(cfg)._grid_tables is not None) == grouped


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("strategy,cap", [("naive", 64), ("ci", 80)])
def test_run_block_dense_caps_on_both_routes(monkeypatch, worked_cfg, route, strategy, cap):
    # naive draws n**2 = 64 cells per run and ci ci_rv_count = 80 RVs
    _take_route(monkeypatch, route)
    verify_mod._run_block(worked_cfg, Strategy(strategy), 5, 0, 3, cap, False)
    with pytest.raises(CapExceeded):
        verify_mod._run_block(worked_cfg, Strategy(strategy), 5, 0, 3, cap - 1, False)


def _patch_chunk_cells(monkeypatch, fault):
    """Apply ``fault`` to a copy of every stack ``ModelSampler._cells`` returns."""
    original = ModelSampler._cells

    def faulty(self, *args):
        return fault(*(part.copy() for part in original(self, *args)))

    monkeypatch.setattr(ModelSampler, "_cells", faulty)


@pytest.mark.parametrize("strategy", ["naive", "ci", "dcsd"])
def test_chunk_block_rejects_duplicate_cells(monkeypatch, worked_cfg, strategy):
    def duplicate_last(rep, rows, cols, trace):
        rep, rows, cols = (np.append(part, part[-1:]) for part in (rep, rows, cols))
        return rep, rows, cols, trace

    _patch_chunk_cells(monkeypatch, duplicate_last)
    with pytest.raises(BadArgs, match="strictly increasing"):
        verify_mod._run_block(worked_cfg, Strategy(strategy), 5, 0, 50, 1 << 26, True)


@pytest.mark.parametrize("fault", ["swap replicates", "row past the grid", "column shift"])
def test_chunk_block_rejects_misplaced_cells(monkeypatch, worked_cfg, fault):
    n = worked_cfg.n_nodes

    def misplace(rep, rows, cols, trace):
        if fault == "swap replicates":
            # the last cell moves to replicate 0, behind later replicates' cells
            rep[-1] = 0
        elif fault == "row past the grid":
            rows[-1] = n
        else:
            # (r, c) -> (r - 1, c + n) keeps the key; only the column check sees it
            rows[-1] -= 1
            cols[-1] += n
        return rep, rows, cols, trace

    _patch_chunk_cells(monkeypatch, misplace)
    with pytest.raises(BadArgs, match="columns"):
        verify_mod._run_block(worked_cfg, Strategy.DCSD, 5, 0, 50, 1 << 26, False)


@pytest.mark.parametrize("field,value", [(0, 0), (1, -1), (2, -1), (2, 10**6)])
def test_chunk_block_rejects_bad_level_records(monkeypatch, worked_cfg, field, value):
    def corrupt(rep, rows, cols, trace):
        trace[-1, -1, field] = value
        return rep, rows, cols, trace

    _patch_chunk_cells(monkeypatch, corrupt)
    with pytest.raises(BadArgs, match="bad level record"):
        verify_mod._run_block(worked_cfg, Strategy.CI, 5, 0, 10, 1 << 26, False)


@pytest.mark.parametrize("want_counts", [True, False])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_run_block_memory_does_not_grow_with_replicates(strategy, want_counts):
    # a dense model: ~22k cells (~180 KB of keys) per replicate on a 2**16 grid
    cfg = make_config([[1.0, 1.0], [1.0, 0.5]], 8, 2)

    def peak(runs):
        tracemalloc.start()
        try:
            verify_mod._run_block(cfg, strategy, 3, 0, runs, 1 << 26, want_counts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # warm caches outside the traced runs
    few, many = peak(3), peak(48)
    # 45 more replicates' keys alone would add ~8 MB
    assert many < few + cfg.n_nodes**2 * 8, (few, many)


# -- integer arguments -------------------------------------------------------------

INT_ARGS = {
    "sample seed": lambda cfg, v: sample(cfg, "dcsd", v),
    "engine dense_cap": lambda cfg, v: ModelSampler(cfg, dense_cap=v),
    "level_rng seed": lambda cfg, v: level_rng(v, 0),
    "replicate_seed master": lambda cfg, v: replicate_seed(v, 0, 0),
    "marginal n_samples": lambda cfg, v: marginal_test(cfg, "dcsd", v, 1),
    "marginal master_seed": lambda cfg, v: marginal_test(cfg, "dcsd", 10, v),
    "marginal workers": lambda cfg, v: marginal_test(cfg, "dcsd", 10, 1, workers=v),
    "marginal dense_cap": lambda cfg, v: marginal_test(cfg, "dcsd", 10, 1, dense_cap=v),
    "equivalence n_samples": lambda cfg, v: equivalence_test(cfg, "ci", "dcsd", v, 1),
    "equivalence master_seed": lambda cfg, v: equivalence_test(cfg, "ci", "dcsd", 10, v),
    "audit n_runs": lambda cfg, v: complexity_audit(cfg, v, 1),
    "audit workers": lambda cfg, v: complexity_audit(cfg, 10, 1, workers=v),
    "kronecker_power dense_cap": lambda cfg, v: kronecker_power(cfg.theta, 2, dense_cap=v),
    "kronecker_power power": lambda cfg, v: kronecker_power(cfg.theta, v),
    "edge_prob row": lambda cfg, v: edge_prob(cfg, v, 0),
    "edge_prob col": lambda cfg, v: edge_prob(cfg, 0, v),
    "expected_active tied_level": lambda cfg, v: expected_active(cfg, v),
    "binomial_draw trials": lambda cfg, v: binomial_draw(v, 0.5, np.random.default_rng(0)),
    "choose total": lambda cfg, v: choose_without_replacement(v, 1, np.random.default_rng(0)),
    "choose count": lambda cfg, v: choose_without_replacement(10, v, np.random.default_rng(0)),
    "network n_nodes": lambda cfg, v: SampledNetwork(v, np.empty((0, 2), dtype=np.int64)),
    "trace level": lambda cfg, v: LevelTrace(v, 3, 1),
    "trace rvs_examined": lambda cfg, v: LevelTrace(0, v, 1),
    "trace rvs_active": lambda cfg, v: LevelTrace(0, 3, v),
}


@pytest.mark.parametrize("value", [1.9, 2.0, "7", True, None], ids=repr)
@pytest.mark.parametrize("call", sorted(INT_ARGS))
def test_integer_arguments_reject_bool_float_and_str(call, value):
    with pytest.raises(BadArgs, match="must be an integer"):
        INT_ARGS[call](small_cfg(), value)


def test_numpy_integer_arguments_match_python_ints():
    cfg = small_cfg()
    net, trace = sample(cfg, "dcsd", np.uint64(7), dense_cap=np.int64(1 << 26))
    want_net, want_trace = sample(cfg, "dcsd", 7)
    np.testing.assert_array_equal(net.edges, want_net.edges)
    assert trace == want_trace and type(trace.seed) is int
    report = marginal_test(cfg, "gp", np.int32(200), np.uint64(7), workers=np.int8(1))
    assert report.to_dict() == marginal_test(cfg, "gp", 200, 7).to_dict()
    assert type(report.master_seed) is int and type(report.n_samples) is int


# -- pinned report bytes -----------------------------------------------------------

# sha256 of the sorted-key JSON of each report's to_dict(): the worked example,
# 300 replicates, master seed 11.  The equivalence pairs are the ones the CLI's
# verify runs; the worked example's gp draws PCG64 uniforms only, as dcsd.
PINNED_REPORT_DIGESTS = {
    ("marginal", "naive"): "ed5ee36ab40b1b51208745593071b4c454b253e6fb72a9335b561f8fde66585b",
    ("marginal", "ci"): "3204fda4c5a8bdf0f5bf4cf0c72a0f76341bc58bb51df2b868a10a6b0791d49c",
    ("marginal", "dcsd"): "85e5d5df501dd92ae04585b81860f7de8782b825c0fbd007b6827ff8e082e3a2",
    ("marginal", "gp"): "956effe4e660f0d44d4d115410dd10e217e4142e347d4442486227c257535068",
    ("equivalence", "ci~dcsd"): "fdfef7c14aa3e1b60b5a74c1b4da89b9bc103dc45157984a1d8a569a0edeaa75",
    ("equivalence", "dcsd~gp"): "ff096aa0cdf72a6da090c28bc3ff63e9eac1a93e32a786824f7a3d4b29302e89",
    ("audit", "ci,dcsd"): "750d0ebf46dd557ff4b15022bb997e978562503708b00026e01f97326244b855",
}


def _report(kind, strategies, cfg):
    if kind == "marginal":
        return marginal_test(cfg, strategies, 300, 11)
    if kind == "equivalence":
        return equivalence_test(cfg, *strategies.split("~"), 300, 11)
    return complexity_audit(cfg, 300, 11)


@pytest.mark.parametrize("kind,strategies", sorted(PINNED_REPORT_DIGESTS))
def test_report_bytes_pinned_seed_for_seed(kind, strategies, worked_cfg):
    report = _report(kind, strategies, worked_cfg)
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == PINNED_REPORT_DIGESTS[kind, strategies]


@pytest.mark.parametrize("kind,strategies", sorted(PINNED_REPORT_DIGESTS))
@pytest.mark.parametrize("route", sorted(set(ROUTES) - {"default"}))
def test_report_bytes_pinned_on_every_route(monkeypatch, route, kind, strategies, worked_cfg):
    _take_route(monkeypatch, route)
    test_report_bytes_pinned_seed_for_seed(kind, strategies, worked_cfg)


# -- pinned replicate statistics ---------------------------------------------------

# sha256 of _collect's four outputs (counts, edge totals, examined total,
# per-level actives) as int64 bytes: 300 replicates at master seed 2026
# (301 on two workers), all four strategies.  Reports keep only flagged
# cells and extremes of the counts; these digests pin the counts themselves.
WORKED = [[0.9, 0.7], [0.5, 0.3]]
THETA3 = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
COLLECT_CASES = {
    "worked": (WORKED, 3, 2, {}, 300, 1),
    "worked-K4-ell1": (WORKED, 4, 1, {}, 300, 1),
    "theta3-K3-ell1": (THETA3, 3, 1, {}, 300, 1),
    "worked-undirected": (WORKED, 3, 2, {"directed": False}, 300, 1),
    "worked-loop-free": (WORKED, 3, 2, {"self_loops": False}, 300, 1),
    "worked-workers2": (WORKED, 3, 2, {}, 301, 2),
}
PINNED_COLLECT_DIGESTS = {
    ("worked", "naive"): "fbe385cc4042bcc310f3386f788a80f4ed50c520bbcc5ea7b73ccb11f2f23939",
    ("worked", "ci"): "ed8571705152ae7fea16445f0acdcb084696834cca1b81612a39702ccac9814a",
    ("worked", "dcsd"): "95a61d39ec58929087ab0e78d4bec03e2825ff0034178cb26201adb7efc0865e",
    ("worked", "gp"): "b5ba5713c8597e214a1886b1dcfed49af40deba6de6e661906318e25e6b99419",
    ("worked-K4-ell1", "naive"): "5e476d01ef5db1f787a592540eea69338892f44cff380b508f5729ff810f6d9e",
    ("worked-K4-ell1", "ci"): "388b9a8fe0d75a49da6bac1b29d4256a8c7df7b2488527e0c1373ebff09daf12",
    ("worked-K4-ell1", "dcsd"): "6e6f33178d54578945764d3d6a4fa7989dcab3b06557107bcce6247e36183f0e",
    ("worked-K4-ell1", "gp"): "bf86e6df42210c09a0a69bc79060a5a775a6219918f446127863625d5f58b221",
    ("theta3-K3-ell1", "naive"): "5f9386acdc942949ee2d82abd08dac9207f9ca01ee8585b0891bda9979118803",
    ("theta3-K3-ell1", "ci"): "ce784514127a5715f59c5020bc5bdbe283b3c71bb0e2fa18f50ecf15d588c03b",
    ("theta3-K3-ell1", "dcsd"): "41f73df6b5c5ee31073632c8529c7f63e539f57b0a4d600c93cf68b46112c29a",
    ("theta3-K3-ell1", "gp"): "56f050c35c17a49fbc84fdf7191671724db4b3fe2c18ac0500155a880cf517ef",
    ("worked-undirected", "naive"): "fca5ca375475fdc5b8273c3894361b3c16f5da55772a23b833c27cc8433b6d02",
    ("worked-undirected", "ci"): "5fb9937dacd9fb3e66fb37c00843a419d35ff1a817d8af8a303e04b8d9368136",
    ("worked-undirected", "dcsd"): "5b308b26f0c048eb016342b66fb59eb8f3ba03f809a7c2d0ca35aa9df6109bdf",
    ("worked-undirected", "gp"): "6c61025959aa32be1b65dc680d0ee57ad34665b9bdb45210234e0abf55684c87",
    ("worked-loop-free", "naive"): "9b90e7235ddc00dc60cf1fcd732c632b2bcbd66e4c7ffb4171769b4f6451a51e",
    ("worked-loop-free", "ci"): "bfd4d6246e98a6d5e0fdabfcbc923a6c3467b8822264ce93d2e8150aa54561ba",
    ("worked-loop-free", "dcsd"): "23c88d8c567876d32d46756228b184d05c3d09d46efe810efc31cf2a48f965f8",
    ("worked-loop-free", "gp"): "71885d2b9b4d1681bb75605151bc437db23b568bb307173cb2d4b6000f04ebce",
    ("worked-workers2", "naive"): "e8420523237baa452028e6cac48b7a10e8766855a723faf0010c54be6c910e0d",
    ("worked-workers2", "ci"): "3fc18eb80188d50910feaf3f016caa45e53836fe8b387ab754dc27144ac8acad",
    ("worked-workers2", "dcsd"): "6d3bd2a2b4ab2593a12cdfee1267fbb80cbae3231a7a70b3422325e3f1d0394b",
    ("worked-workers2", "gp"): "d9a8d2ae860293bad3c607590589a07a3dc87af0e36e80ec644166433a92bde1",
}


def _collect_digest(case, strategy):
    rows, levels, untied, mode, runs, workers = COLLECT_CASES[case]
    cfg = make_config(rows, levels, untied, **mode)
    result = verify_mod._collect(
        cfg, Strategy(strategy), runs, 2026, dense_cap=1 << 26, want_counts=True, workers=workers
    )
    digest = hashlib.sha256()
    for part in (result[0], result[1], np.int64(result[2]), result[3]):
        digest.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case,strategy", sorted(PINNED_COLLECT_DIGESTS))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_collect_bytes_pinned_seed_for_seed(monkeypatch, route, case, strategy):
    _take_route(monkeypatch, route)
    assert _collect_digest(case, strategy) == PINNED_COLLECT_DIGESTS[case, strategy]


@settings(max_examples=30, deadline=None)
@given(
    b=st.sampled_from([2, 3]),
    shape=st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
    entries=st.lists(st.sampled_from([0.0, 0.1, 0.35, 0.5, 0.8, 1.0]), min_size=9, max_size=9),
    mode=st.sampled_from(sorted(EDGE_MODES)),
    master=st.integers(0, 2**64 - 1),
    runs=st.integers(1, 40),
)
def test_run_block_equals_run_replicate_by_replicate(b, shape, entries, mode, master, runs):
    levels, untied = shape
    rows = np.reshape(entries[: b * b], (b, b)).tolist()
    cfg = make_config(rows, levels, untied, **EDGE_MODES[mode])
    for strategy in Strategy:
        block = verify_mod._STRATEGY_BLOCK[strategy]
        seeds = [replicate_seed(master, block, i) for i in range(runs)]
        expected = _run_block_oracle(cfg, strategy, seeds, 1 << 26, True)
        got = verify_mod._run_block(cfg, strategy, master, 0, runs, 1 << 26, True)
        _assert_block_equal(got, expected)


@pytest.mark.parametrize("levels", [7, 8])
def test_chunked_marginal_memory_is_bounded(levels):
    # naive at K = ell = 8: 2**16 cells per replicate, one replicate at a time;
    # at K = ell = 7, chunks of four replicates in array passes.  200 replicates.
    # The report holds a few n**2 grids (~3 MiB at K = 8); a chunk adds ~9 bytes
    # per cell of its _CHUNK_CELLS (uniforms and their hits), however many
    # replicates run.
    cfg = make_config([[1.0, 1.0], [1.0, 0.5]], levels, levels)
    marginal_test(cfg, "naive", 2, 1)
    tracemalloc.start()
    try:
        marginal_test(cfg, "naive", 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


# -- real-valued thresholds ----------------------------------------------------------

THRESHOLDS = {
    "marginal z_threshold": lambda cfg, v: marginal_test(cfg, "dcsd", 10, 1, z_threshold=v),
    "equivalence z_threshold": lambda cfg, v: equivalence_test(
        cfg, "ci", "dcsd", 10, 1, z_threshold=v
    ),
    "equivalence p_threshold": lambda cfg, v: equivalence_test(
        cfg, "ci", "dcsd", 10, 1, p_threshold=v
    ),
    "audit tol": lambda cfg, v: complexity_audit(cfg, 10, 1, tol=v),
}
BAD_THRESHOLDS = {
    "marginal z_threshold": [0.0, -1.0, float("nan"), float("inf")],
    "equivalence z_threshold": [0, -4.0, float("nan"), float("inf")],
    "equivalence p_threshold": [0.0, 1.0, 2.0, -0.5, float("nan")],
    "audit tol": [-1.0, -1e-12, float("nan"), float("inf")],
}


@pytest.mark.parametrize(
    "call,value",
    [(call, v) for call in sorted(BAD_THRESHOLDS) for v in BAD_THRESHOLDS[call]],
    ids=repr,
)
def test_thresholds_out_of_range_raise_bad_args(call, value):
    with pytest.raises(BadArgs, match="must lie in"):
        THRESHOLDS[call](small_cfg(), value)


@pytest.mark.parametrize("value", ["4", True, None, [4.0]], ids=repr)
@pytest.mark.parametrize("call", sorted(THRESHOLDS))
def test_thresholds_reject_non_numbers(call, value):
    with pytest.raises(BadArgs, match="must be a real number"):
        THRESHOLDS[call](small_cfg(), value)


def test_thresholds_accept_ints_and_numpy_reals():
    cfg = small_cfg()
    report = marginal_test(cfg, "dcsd", 50, 1, z_threshold=np.float32(4.0))
    assert report.z_threshold == 4.0 and type(report.z_threshold) is float
    assert marginal_test(cfg, "dcsd", 50, 1, z_threshold=4).to_dict() == report.to_dict()
    pair = equivalence_test(cfg, "ci", "dcsd", 50, 1, p_threshold=np.float64(0.01))
    assert type(pair.p_threshold) is float
    assert complexity_audit(cfg, 20, 1, tol=0).tol == 0.0
