import dataclasses
import json

import numpy as np
import pytest

import kronnet.verify as verify_mod
from kronnet import (
    BadArgs,
    SampledNetwork,
    Strategy,
    ci_rv_count,
    complexity_audit,
    degree_stats,
    equivalence_test,
    kronecker_power,
    make_config,
    marginal_test,
)
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


def test_equivalence_naive_matches_when_every_level_untied():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 2)
    for other in ("ci", "dcsd", "gp"):
        report = equivalence_test(cfg, "naive", other, 2500, master_seed=6)
        assert report.passed, (other, report.to_dict())


def test_whole_grid_gp_passes_verify():
    # K = ell = 3: gp samples by whole-grid groups, not a level-0 sweep
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 3)
    marginal = marginal_test(cfg, "gp", 3000, master_seed=12)
    assert marginal.passed, marginal.flagged_cells
    report = equivalence_test(cfg, "naive", "gp", 3000, master_seed=12)
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


# -- chi-square helpers ----------------------------------------------------------


def test_merge_bins_pools_sparse_tails():
    grid = np.arange(6)
    a = np.array([1, 2, 30, 30, 2, 1])
    b = np.array([0, 3, 28, 31, 1, 2])
    merged_a, merged_b = _merge_bins(grid, a, b)
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
