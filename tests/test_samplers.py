import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom, chi2

import kronnet.samplers as samplers_mod
from kronnet import (
    DEFAULT_GROUP_CAP,
    BadArgs,
    CapExceeded,
    GroupCapExceeded,
    ModelSampler,
    Overflow,
    SampledNetwork,
    Strategy,
    ci_rv_count,
    grid_groups,
    kronecker_power,
    make_config,
    sample,
)

ALL_STRATEGIES = list(Strategy)


def edges_set(net: SampledNetwork):
    return {(int(r), int(c)) for r, c in net.edges}


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_same_seed_same_output(worked_cfg, strategy):
    engine = ModelSampler(worked_cfg)
    net_a, trace_a = engine.run(strategy, 12345)
    net_b, trace_b = engine.run(strategy, 12345)
    np.testing.assert_array_equal(net_a.edges, net_b.edges)
    assert trace_a == trace_b


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_fresh_engine_same_output(worked_cfg, strategy):
    net_a, _ = sample(worked_cfg, strategy, 777)
    net_b, _ = sample(worked_cfg, strategy, 777)
    np.testing.assert_array_equal(net_a.edges, net_b.edges)


def test_different_seeds_differ(worked_cfg):
    # 50 seeds of an 8x8 grid; a collision across all strategies is absurd
    for strategy in ALL_STRATEGIES:
        nets = {frozenset(edges_set(sample(worked_cfg, strategy, s)[0])) for s in range(50)}
        assert len(nets) > 40


def test_edges_sorted_unique_in_range(worked_cfg):
    for strategy in ALL_STRATEGIES:
        net, _ = sample(worked_cfg, strategy, 99)
        rows, cols = net.edges[:, 0], net.edges[:, 1]
        assert np.all((rows >= 0) & (rows < net.n_nodes))
        assert np.all((cols >= 0) & (cols < net.n_nodes))
        pairs = list(zip(rows.tolist(), cols.tolist()))
        assert pairs == sorted(set(pairs))


def test_trace_levels_and_examined_counts(worked_cfg):
    engine = ModelSampler(worked_cfg)
    b = worked_cfg.b

    _, trace = engine.run(Strategy.NAIVE, 5)
    assert [e.level for e in trace.per_level] == [0]
    assert trace.per_level[0].rvs_examined == worked_cfg.n_nodes**2

    _, trace = engine.run(Strategy.CI, 5)
    assert [e.level for e in trace.per_level] == [0, 1]
    for entry in trace.per_level:
        side = b ** (worked_cfg.untied_levels + entry.level)
        assert entry.rvs_examined == side * side
    assert trace.total_examined == ci_rv_count(worked_cfg)

    for strategy in (Strategy.DCSD, Strategy.GP):
        _, trace = engine.run(strategy, 5)
        entries = trace.per_level
        assert entries[0].rvs_examined == (b**worked_cfg.untied_levels) ** 2
        for prev, cur in zip(entries, entries[1:]):
            assert cur.rvs_examined == b * b * prev.rvs_active


def test_trace_final_active_matches_unfiltered_cells(worked_cfg):
    # default mode keeps everything, so edge count equals final actives
    for strategy in ALL_STRATEGIES:
        net, trace = sample(worked_cfg, strategy, 31)
        assert trace.final_active == net.edge_count


def test_ci_always_examines_every_rv(worked_cfg):
    engine = ModelSampler(worked_cfg)
    expected = ci_rv_count(worked_cfg)
    for seed in range(20):
        _, trace = engine.run(Strategy.CI, seed)
        assert trace.total_examined == expected


def test_dcsd_examines_no_more_than_ci(worked_cfg):
    engine = ModelSampler(worked_cfg)
    full = ci_rv_count(worked_cfg)
    for seed in range(20):
        _, trace = engine.run(Strategy.DCSD, seed)
        assert trace.total_examined <= full


def test_all_strategies_agree_when_every_level_is_untied():
    # untied_levels == levels leaves nothing tied: ci and dcsd reduce to the
    # same single-level draw, and the naive scan consumes the identical
    # uniform stream over the identical dense grid; gp groups the whole grid
    # and draws differently
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 3)
    reference = None
    for strategy in (Strategy.NAIVE, Strategy.CI, Strategy.DCSD):
        net, trace = sample(cfg, strategy, 2024)
        assert len(trace.per_level) == 1
        if reference is None:
            reference = edges_set(net)
        else:
            assert edges_set(net) == reference


def test_saturated_matrix_gives_complete_graph():
    ones = [[1.0, 1.0], [1.0, 1.0]]
    cfg = make_config(ones, 2, 1)
    n = cfg.n_nodes
    everything = {(i, j) for i in range(n) for j in range(n)}
    for strategy in ALL_STRATEGIES:
        net, trace = sample(cfg, strategy, 3)
        assert edges_set(net) == everything
        assert trace.final_active == n * n
    # plain model: gp samples by whole-grid groups
    net, _ = sample(make_config(ones, 2, 2), Strategy.GP, 3)
    assert edges_set(net) == everything


def test_zero_matrix_gives_empty_graph():
    cfg = make_config([[0.0, 0.0], [0.0, 0.0]], 2, 1)
    for strategy in ALL_STRATEGIES:
        net, trace = sample(cfg, strategy, 3)
        assert net.edge_count == 0
        assert trace.final_active == 0
    # pruned sweep stops examining once nothing is active
    _, trace = sample(cfg, Strategy.DCSD, 3)
    assert trace.per_level[1].rvs_examined == 0


def test_undirected_mode_is_a_pure_filter(worked_cfg):
    undirected = dataclasses.replace(worked_cfg, directed=False)
    for strategy in ALL_STRATEGIES:
        full, trace_full = sample(worked_cfg, strategy, 44)
        filt, trace_filt = sample(undirected, strategy, 44)
        assert edges_set(filt) == {(r, c) for r, c in edges_set(full) if r < c}
        # the RV-space trace ignores the filter
        assert trace_full == trace_filt
        assert not filt.directed


def test_no_self_loops_mode_is_a_pure_filter(worked_cfg):
    loopless = dataclasses.replace(worked_cfg, self_loops=False)
    for strategy in ALL_STRATEGIES:
        full, _ = sample(worked_cfg, strategy, 45)
        filt, _ = sample(loopless, strategy, 45)
        assert edges_set(filt) == {(r, c) for r, c in edges_set(full) if r != c}


def test_naive_cap_refusal(worked_cfg):
    with pytest.raises(CapExceeded):
        sample(worked_cfg, Strategy.NAIVE, 0, dense_cap=63)


def test_ci_cap_refusal(worked_cfg):
    with pytest.raises(CapExceeded) as err:
        sample(worked_cfg, Strategy.CI, 0, dense_cap=79)
    assert "dcsd" in str(err.value) or "gp" in str(err.value)


def test_dcsd_and_gp_ignore_dense_cap(worked_cfg):
    engine = ModelSampler(worked_cfg, dense_cap=1)
    net, _ = engine.run(Strategy.DCSD, 0)
    assert net.n_nodes == 8
    net, _ = engine.run(Strategy.GP, 0)
    assert net.n_nodes == 8


def test_sampler_rejects_grids_beyond_signed_range():
    cfg = make_config([[0.5, 0.5], [0.5, 0.5]], 63, 1)
    with pytest.raises(Overflow):
        ModelSampler(cfg)


def test_huge_sparse_grid_samples_fine():
    # 2**40 nodes; pruned sweep touches only realized cells
    rows = [[0.3, 0.1], [0.1, 0.05]]
    cfg = make_config(rows, 40, 2)
    net, trace = sample(cfg, Strategy.DCSD, 8)
    assert net.n_nodes == 2**40
    assert trace.per_level[0].rvs_examined == 16
    if net.edge_count:
        assert int(net.edges.max()) < 2**40


def test_grid_gp_skips_zero_groups_beyond_int64():
    # the zero-probability group holds 4**40 - 2**40 cells, past 2**63
    cfg = make_config([[0.5, 0.0], [0.0, 0.5]], 40, 40)
    net, trace = sample(cfg, Strategy.GP, 3)
    assert trace.per_level[0].rvs_examined == 4**40
    assert all(r == c for r, c in net.edges.tolist())  # a diagonal seed


def test_bad_seed_rejected(worked_cfg):
    engine = ModelSampler(worked_cfg)
    with pytest.raises(BadArgs):
        engine.run(Strategy.DCSD, -1)
    with pytest.raises(BadArgs):
        engine.run(Strategy.DCSD, 2**64)


def test_unknown_strategy_rejected(worked_cfg):
    with pytest.raises(ValueError):
        sample(worked_cfg, "bogus", 1)


def test_override_rejected_for_naive(worked_cfg):
    engine = ModelSampler(worked_cfg)
    with pytest.raises(BadArgs):
        engine.run(Strategy.NAIVE, 1, level0_override=[0])


def test_override_empty_level0_dcsd(worked_cfg):
    engine = ModelSampler(worked_cfg)
    net, trace = engine.run(Strategy.DCSD, 17, level0_override=[])
    assert net.edge_count == 0
    assert trace.per_level[0].rvs_examined == 16
    assert trace.per_level[0].rvs_active == 0
    # nothing active means nothing examined deeper
    assert trace.per_level[1].rvs_examined == 0
    assert trace.per_level[1].rvs_active == 0


def test_override_empty_level0_ci_still_examines_everything(worked_cfg):
    engine = ModelSampler(worked_cfg)
    net, trace = engine.run(Strategy.CI, 17, level0_override=[])
    assert net.edge_count == 0
    assert trace.per_level[0].rvs_examined == 16
    assert trace.per_level[1].rvs_examined == 64
    assert trace.per_level[1].rvs_active == 0


def test_override_with_natural_cells_reproduces_run(worked_cfg):
    engine = ModelSampler(worked_cfg)
    net, trace = engine.run(Strategy.DCSD, 123)
    # Level 0 of K=3, ell=2 is the whole network of K=ell=2: same dense
    # probabilities, same level-0 stream.
    untied = dataclasses.replace(worked_cfg, levels=worked_cfg.untied_levels)
    level0, _ = ModelSampler(untied).run(Strategy.DCSD, 123)
    assert level0.edge_count == trace.per_level[0].rvs_active
    flat = (level0.edges[:, 0] * untied.n_nodes + level0.edges[:, 1]).tolist()
    net_b, trace_b = engine.run(Strategy.DCSD, 123, level0_override=flat)
    np.testing.assert_array_equal(net.edges, net_b.edges)
    assert trace == trace_b


def test_override_full_level0_saturates_level0(worked_cfg):
    side0 = worked_cfg.b**worked_cfg.untied_levels
    engine = ModelSampler(worked_cfg)
    net, trace = engine.run(Strategy.DCSD, 3, level0_override=range(side0 * side0))
    assert trace.per_level[0].rvs_active == side0 * side0
    assert trace.per_level[1].rvs_examined == 4 * side0 * side0


def test_override_validates_indices(worked_cfg):
    engine = ModelSampler(worked_cfg)
    with pytest.raises(BadArgs):
        engine.run(Strategy.DCSD, 3, level0_override=[16])
    with pytest.raises(BadArgs):
        engine.run(Strategy.DCSD, 3, level0_override=[-1])


def test_children_stay_inside_realized_parents(worked_cfg):
    # Pin level 0; every final edge must descend from a pinned cell through
    # the tied levels (directed with self-loops keeps every final cell).
    side0 = worked_cfg.b**worked_cfg.untied_levels
    pinned = [1, 5, 6, 10, 15]
    available = {(cell // side0, cell % side0) for cell in pinned}
    for levels in (3, 4):  # one and two tied levels
        cfg = dataclasses.replace(worked_cfg, levels=levels)
        scale = cfg.b**cfg.tied_levels
        engine = ModelSampler(cfg)
        for strategy in (Strategy.CI, Strategy.DCSD, Strategy.GP):
            for seed in range(20):
                net, trace = engine.run(strategy, seed, level0_override=pinned)
                assert trace.per_level[0].rvs_active == len(pinned)
                assert len(trace.per_level) == cfg.tied_levels + 1
                assert trace.final_active == net.edge_count
                ancestors = {(r // scale, c // scale) for r, c in net.edges.tolist()}
                assert ancestors <= available


def test_streamed_level0_matches_dense(worked_cfg, theta3_cfg):
    # dense_cap=1 holds no level-0 grid, so the sweep streams row by row
    plain = make_config([[0.9, 0.7], [0.5, 0.3]], 4, 4)
    for cfg in (worked_cfg, dataclasses.replace(theta3_cfg, levels=4), plain):
        dense = ModelSampler(cfg)
        streamed = ModelSampler(cfg, dense_cap=1)
        for strategy in (Strategy.DCSD, Strategy.GP):
            for seed in (0, 9, 12345):
                want, want_trace = dense.run(strategy, seed)
                got, got_trace = streamed.run(strategy, seed)
                np.testing.assert_array_equal(got.edges, want.edges)
                assert got_trace == want_trace
        assert dense._probs and not streamed._probs


def test_chunked_dense_draws_match_one_shot(monkeypatch, worked_cfg):
    engine = ModelSampler(worked_cfg)
    strategies = (Strategy.NAIVE, Strategy.CI, Strategy.DCSD)
    expected = {s: engine.run(s, 9)[0] for s in strategies}
    # 64 and 16 cells in chunks of 5: several chunks and a partial last one
    monkeypatch.setattr(samplers_mod, "_DRAW_CHUNK", 5)
    for strategy, net in expected.items():
        got, _ = engine.run(strategy, 9)
        np.testing.assert_array_equal(got.edges, net.edges)


def test_gp_matches_binomial_thinning_oracle():
    """One tied level, parents pinned: per-value child counts are Binomial."""
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    parents = [0, 3]  # level-0 cells (0,0) and (1,1) of the 2x2 grid
    reps = 4000
    values = [0.9, 0.7, 0.5, 0.3]
    hists = {}
    for strategy in (Strategy.DCSD, Strategy.GP):
        engine = ModelSampler(cfg)
        counts = {v: Counter() for v in values}
        for rep in range(reps):
            # one tied level, directed with self-loops: the edges are the
            # level-1 cells
            net, _ = engine.run(strategy, rep, level0_override=parents)
            per_value = Counter()
            for r, c in net.edges.tolist():
                per_value[cfg.theta.entries[r % 2, c % 2]] += 1
            for v in values:
                counts[v][per_value[v]] += 1
        hists[strategy] = counts
    for strategy in (Strategy.DCSD, Strategy.GP):
        for v in values:
            # 2 active parents, each spawning one candidate of this value
            pmf = binom.pmf([0, 1, 2], 2, v) * reps
            observed = [hists[strategy][v][k] for k in (0, 1, 2)]
            stat = sum((o - e) ** 2 / e for o, e in zip(observed, pmf))
            assert chi2.sf(stat, 2) > 1e-4, (strategy, v, observed)


def test_gp_placement_uniform_across_parents():
    # given exactly one realized child of a value, either parent equally likely
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    engine = ModelSampler(cfg)
    chosen = Counter()
    reps = 6000
    for rep in range(reps):
        # one tied level, directed with self-loops: the edges are the level-1 cells
        net, _ = engine.run(Strategy.GP, rep, level0_override=[0, 3])
        hits = [
            (r // 2, c // 2)
            for r, c in net.edges.tolist()
            if cfg.theta.entries[r % 2, c % 2] == 0.5
        ]
        if len(hits) == 1:
            chosen[hits[0]] += 1
    total = chosen[(0, 0)] + chosen[(1, 1)]
    assert total == sum(chosen.values())
    z = (chosen[(0, 0)] - total / 2) / math.sqrt(total / 4)
    assert abs(z) < 5.0


def test_grid_gp_examined_and_mean_edges():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 2)
    expected_mass = float(kronecker_power(cfg.theta, 2).probs.sum())
    engine = ModelSampler(cfg)
    assert engine._grid_tables is not None
    total_edges = 0
    reps = 3000
    for rep in range(reps):
        net, trace = engine.run(Strategy.GP, rep)
        assert trace.per_level[0].rvs_examined == 16
        total_edges += net.edge_count
    mean = total_edges / reps
    # binomial-sum sd is below sqrt(mass), so 5 sigma of the mean is tight
    assert abs(mean - expected_mass) < 5 * math.sqrt(expected_mass / reps)


def test_grid_gp_deterministic():
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 3, 3)
    net_a, trace_a = sample(cfg, Strategy.GP, 4242)
    net_b, trace_b = ModelSampler(cfg).run(Strategy.GP, 4242)
    np.testing.assert_array_equal(net_a.edges, net_b.edges)
    assert trace_a == trace_b


def test_grid_gp_over_group_cap_sweeps_level0():
    # 25 distinct values over 5 levels give comb(29, 24) = 118755 exponent
    # multisets, above the group cap, so gp sweeps level 0 like dcsd
    rows = [[(5 * r + c + 1) / 100 for c in range(5)] for r in range(5)]
    cfg = make_config(rows, 5, 5)
    assert math.comb(29, 24) > DEFAULT_GROUP_CAP
    with pytest.raises(GroupCapExceeded):
        grid_groups(cfg)
    engine = ModelSampler(cfg)
    for seed in (0, 7):
        net_gp, trace_gp = engine.run(Strategy.GP, seed)
        net_dcsd, trace_dcsd = engine.run(Strategy.DCSD, seed)
        np.testing.assert_array_equal(net_gp.edges, net_dcsd.edges)
        assert trace_gp.per_level == trace_dcsd.per_level


def test_sample_matches_engine(worked_cfg):
    engine = ModelSampler(worked_cfg)
    for strategy in ALL_STRATEGIES:
        net_a, trace_a = sample(worked_cfg, strategy, 55)
        net_b, trace_b = engine.run(strategy, 55)
        np.testing.assert_array_equal(net_a.edges, net_b.edges)
        assert trace_a == trace_b
        assert trace_a.strategy == strategy


def test_network_validation_rejects_unsorted():
    edges = np.array([[1, 0], [0, 0]], dtype=np.int64)
    with pytest.raises(BadArgs):
        SampledNetwork(n_nodes=2, edges=edges)


def test_network_validation_rejects_out_of_range():
    edges = np.array([[0, 5]], dtype=np.int64)
    with pytest.raises(BadArgs):
        SampledNetwork(n_nodes=2, edges=edges)
