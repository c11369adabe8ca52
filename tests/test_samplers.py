import dataclasses
import hashlib
import io
import math
import tracemalloc
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
    LevelTrace,
    ModelSampler,
    Overflow,
    SampledNetwork,
    Strategy,
    ci_rv_count,
    grid_groups,
    kronecker_power,
    make_config,
    replicate_seed,
    sample,
)
from kronnet.output import dump_json, trace_to_dict, write_edgelist
from kronnet.rng import level_states
from kronnet.samplers import expand_active, stream_levels

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


# sha256 of the edge list bytes then the trace JSON of seeds 0 and 7, in
# that order.  naive, ci and dcsd draw only PCG64 uniforms, and so does gp
# on tied levels; gp's whole-grid digests (plain6, loopfree) also depend on
# numpy's Generator.binomial and Generator.choice (README "Determinism"), so
# a numpy release that changes those may move them.
PINNED_DIGESTS = {
    ("worked", "naive"): "d69cd5f26fed0a555ea5f8ead9a61c68cf405baf20e3ca897f9139662c072e47",
    ("worked", "ci"): "c04b8f6a3e58feb238912f8ff4ead6f295a0899397186952bb458e4c1be43c3a",
    ("worked", "dcsd"): "62ebd12b1c225afc7b1d03cbc103a352728a56222c9682b3a70fe09ae4d0711b",
    ("worked", "gp"): "3f4400c52e91323572265c84db32fb6012231ed663fb2b74937ce22ceb95d1a2",
    ("plain6", "naive"): "74adb52d4a894ebd39f4162c3f8b9e2ef3ccd0cf141cc627dc35c7fff99f1a0f",
    ("plain6", "ci"): "3e20e5442695538d2fc6c44480b51b88fb6ac3ca10c6fc425523568f8447dae7",
    ("plain6", "dcsd"): "98a47ff46e39ea39eaafa10f5ca1ea6fa75187f09ea33e599bd022ac2456cd3b",
    ("plain6", "gp"): "3ab115a614521212c4e615a633c03f161d22ffff0efcc47bce11ccab3e982f21",
    ("theta3", "naive"): "ce927a5506544db732a189ac97d6a3256fd756805276ea2abd713597ab6c74cd",
    ("theta3", "ci"): "8a4732d2a2157ebfdf9a7bcd87ad6e305ddbfb5acde40a543d3a0241d55efc98",
    ("theta3", "dcsd"): "54fcb5f9322054c24924a21f5283103f49fa8317db71efd544ccd3e58905497c",
    ("theta3", "gp"): "44c7081ca2b7e2435fbf198e468c74c9234b932e26a9c7d82eea2b58d647eabf",
    ("tied9", "naive"): "4414f10e040cb709abbf08626a34e5c74c64d3d7209888311eb63efebe4db03f",
    ("tied9", "ci"): "8ab7b57c29ab216e25319e0486fee7cbbcd1b630e75160fed7544daddf38bbd6",
    ("tied9", "dcsd"): "9322c01a19600a67d86f3a19d67a7f28f8e6893524a497218132506f6a88ff5b",
    ("tied9", "gp"): "89aa17c77011046a6af290a145a67cc4674c337070327812fa5df11ceeb2cb7a",
    ("undirected", "naive"): "f53981fb84a9f76f0001058a2a81fee26522269361ef5f62580e1ca26be5725f",
    ("undirected", "ci"): "529d95d4d43d5dc1d82a3331373391ca0697a955571bbd88be8b516c2f402c41",
    ("undirected", "dcsd"): "55950ba40637f4e18654d2466a71946d3bbe1c0d84b686a6686447e6718c4d79",
    ("undirected", "gp"): "c2908ccea82033df2a4695f7862bd1ffb6d85cb13cb50895322d8ff765cf84fd",
    ("loopfree", "naive"): "86b3e76a02dbdb4a1ec197ce0de62e7eab1f64950663f9371fda4a9996bfd184",
    ("loopfree", "ci"): "be9916f2c898e0b128cefd7449e1bf072b579ae69f9686907b2af54f75b4862e",
    ("loopfree", "dcsd"): "2903058c0d1d97384f2b5870acca8bbee4a2fdfee4a2c4a18a7dabc8c2965527",
    ("loopfree", "gp"): "7d6a83c02884877ded9be4ad7ba78007086cf7752691e8e07237e683086d5bc4",
}

_WORKED_THETA = [[0.9, 0.7], [0.5, 0.3]]

PINNED_CONFIGS = {
    "worked": make_config(_WORKED_THETA, 3, 2),
    "plain6": make_config(_WORKED_THETA, 6, 6),  # whole-grid gp
    "theta3": make_config([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 4, 2),
    "tied9": make_config(_WORKED_THETA, 9, 3),  # six tied levels
    "undirected": make_config(_WORKED_THETA, 4, 2, directed=False),
    "loopfree": make_config(_WORKED_THETA, 5, 5, self_loops=False),  # whole-grid gp
}


@pytest.mark.parametrize("name,strategy", sorted(PINNED_DIGESTS))
def test_output_bytes_pinned_seed_for_seed(name, strategy):
    cfg = PINNED_CONFIGS[name]
    buf = io.StringIO()
    for seed in (0, 7):
        net, trace = sample(cfg, strategy, seed)
        write_edgelist(net, buf)
        dump_json(trace_to_dict(trace), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name, strategy]


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


@pytest.mark.parametrize("strategy", [Strategy.DCSD, Strategy.GP])
def test_tied_levels_sorted_beyond_2_32_nodes(strategy):
    # 2**40 nodes, so a flat row * side + col sort key would overflow int64;
    # SampledNetwork rejects edges out of strict (row, col) order
    cfg = make_config([[0.55, 0.3], [0.3, 0.0]], 40, 4)
    engine = ModelSampler(cfg)
    sizes = []
    for seed in range(20):
        net, trace = engine.run(strategy, seed)
        assert trace.final_active == net.edge_count
        sizes.append(net.edge_count)
    assert max(sizes) > 100


@pytest.mark.parametrize(
    "strategy,levels,untied,reps",
    [
        pytest.param(Strategy.DCSD, 16, 4, 2000, id="dcsd"),
        pytest.param(Strategy.GP, 16, 4, 2000, id="gp"),
        pytest.param(Strategy.GP, 14, 14, 400, id="gp-plain"),
    ],
)
def test_edge_count_mean_and_variance_match_branching_process(
    strategy, levels, untied, reps
):
    """Edge counts of a 2**16-node tied model, or a 2**14-node plain model
    (whole-grid ``gp``), against closed-form moments.

    Level 0 is a sum of independent Bernoulli cells (mean m0, variance v0);
    each tied level is one Galton-Watson generation whose offspring count
    has mean mu = mass and variance sigma2 = sum theta (1 - theta).
    """
    theta = np.array([[0.6, 0.4], [0.3, 0.2]])
    cfg = make_config(theta.tolist(), levels, untied)
    ell, tied = cfg.untied_levels, cfg.tied_levels
    mu = float(theta.sum())
    sigma2 = float((theta * (1 - theta)).sum())
    m0 = mu**ell
    v0 = mu**ell - float((theta**2).sum()) ** ell
    mean = m0 * mu**tied
    var = v0 * mu ** (2 * tied) + m0 * sigma2 * mu ** (tied - 1) * (mu**tied - 1) / (mu - 1)
    engine = ModelSampler(cfg)
    counts = np.array(
        [engine.run(strategy, replicate_seed(20261018, 0, i))[0].edge_count for i in range(reps)],
        dtype=float,
    )
    z_mean = (counts.mean() - mean) / math.sqrt(var / reps)
    s2 = counts.var(ddof=1)
    m4 = float(((counts - counts.mean()) ** 4).mean())
    # standard error of the sample variance from the sample fourth moment
    z_var = (s2 - var) / math.sqrt((m4 - s2**2 * (reps - 3) / (reps - 1)) / reps)
    assert abs(z_mean) < 4, (z_mean, counts.mean(), mean)
    assert abs(z_var) < 4, (z_var, s2, var)


@pytest.mark.parametrize(
    "strategy,levels,untied,reps",
    [
        pytest.param(Strategy.DCSD, 16, 4, 1000, id="dcsd"),
        pytest.param(Strategy.GP, 16, 4, 1000, id="gp"),
        pytest.param(Strategy.GP, 14, 14, 300, id="gp-plain"),
    ],
)
def test_out_degree_by_digit_count_matches_row_sums(strategy, levels, untied, reps):
    """Mean out-degree of 2**16-node tied-model (or 2**14-node plain-model)
    nodes, binned by 1-digits.

    Node i's expected out-degree is the product of the seed's row sums over
    its base-2 digits, so every node with k one-digits expects
    r0**(levels-k) * r1**k.  Each replicate's bin means are iid samples of
    that value.  The check reads rows only, so it catches children placed
    in the wrong row of their block even where the edge count keeps its law.
    """
    theta = np.array([[0.6, 0.4], [0.3, 0.2]])
    cfg = make_config(theta.tolist(), levels, untied)
    r0, r1 = theta.sum(axis=1)
    ones = np.array([bin(i).count("1") for i in range(cfg.n_nodes)])
    bin_size = np.bincount(ones, minlength=levels + 1)
    expected = r0 ** (levels - np.arange(levels + 1)) * r1 ** np.arange(levels + 1)
    engine = ModelSampler(cfg)
    means = np.array(
        [
            np.bincount(
                ones[engine.run(strategy, replicate_seed(20261018, 1, i))[0].edges[:, 0]],
                minlength=levels + 1,
            )
            / bin_size
            for i in range(reps)
        ]
    )
    # bins expecting at least 200 edges over all replicates, where the
    # normal approximation holds (k <= 13 at 2**16 nodes, k <= 10 at 2**14)
    tested = expected * bin_size * reps >= 200
    assert tested.sum() >= 10
    means, expected = means[:, tested], expected[tested]
    z = (means.mean(axis=0) - expected) / (means.std(axis=0, ddof=1) / math.sqrt(reps))
    assert np.all(np.abs(z) < 4), z


def test_grid_gp_skips_zero_groups_beyond_int64():
    # the zero-probability group holds 4**40 - 2**40 cells, past 2**63
    cfg = make_config([[0.5, 0.0], [0.0, 0.5]], 40, 40)
    net, trace = sample(cfg, Strategy.GP, 3)
    assert trace.per_level[0].rvs_examined == 4**40
    assert all(r == c for r, c in net.edges.tolist())  # a diagonal seed


def test_level0_sweep_refuses_rows_past_the_limit():
    # A 2**40-wide row would be built whole, by repeated folds, before its
    # first draw; the sweep refuses it up front.
    with pytest.raises(CapExceeded, match="level-0 sweep"):
        sample(make_config([[0.5, 0.0], [0.0, 0.5]], 40, 40), Strategy.DCSD, 0)
    # Over the group cap gp sweeps level 0 too: 5**11 cells a row.
    rows = [[(5 * r + c + 1) / 100 for c in range(5)] for r in range(5)]
    cfg = make_config(rows, 11, 11)
    with pytest.raises(GroupCapExceeded):
        grid_groups(cfg)
    with pytest.raises(CapExceeded, match="level-0 sweep"):
        sample(cfg, Strategy.GP, 0)


def test_level0_row_limit_is_inclusive(monkeypatch, worked_cfg):
    monkeypatch.setattr(samplers_mod, "_MAX_ROW_CELLS", 8)
    engine = ModelSampler(worked_cfg)  # 8 nodes; level 0 of the tied levels is 4 wide
    for strategy in ALL_STRATEGIES:
        engine.run(strategy, 0)
    deeper = ModelSampler(make_config(worked_cfg.theta.entries.tolist(), 5, 4))
    for strategy in ALL_STRATEGIES:
        with pytest.raises(CapExceeded):
            deeper.run(strategy, 0)


def test_bad_seed_rejected(worked_cfg):
    engine = ModelSampler(worked_cfg)
    with pytest.raises(BadArgs):
        engine.run(Strategy.DCSD, -1)
    with pytest.raises(BadArgs):
        engine.run(Strategy.DCSD, 2**64)


def test_unknown_strategy_rejected(worked_cfg):
    with pytest.raises(ValueError):
        sample(worked_cfg, "bogus", 1)


def _cells_with_level0(monkeypatch, engine, strategy, u, seed):
    """``engine._cells`` for one replicate of ``seed`` with every level-0
    uniform pinned to ``u`` (1.0 realizes no cell, 0.0 every cell of positive
    probability) and the tied levels drawn from ``seed``'s streams as a run
    would."""
    states = level_states(seed, stream_levels(engine.cfg, strategy))
    drawn = samplers_mod.stream_uniforms

    def constant_level0(level_states_, sizes, starts):
        if np.array_equal(level_states_, states[:, 0]):
            return np.full(int(np.sum(np.broadcast_to(sizes, len(level_states_)))), u)
        return drawn(level_states_, sizes, starts)

    monkeypatch.setattr(samplers_mod, "stream_uniforms", constant_level0)
    _, rows, cols, trace = engine._cells(strategy, states)
    return rows, cols, [LevelTrace(*entry) for entry in trace[0].tolist()]


def test_override_empty_level0_dcsd(monkeypatch, worked_cfg):
    engine = ModelSampler(worked_cfg)
    rows, _, trace = _cells_with_level0(monkeypatch, engine, Strategy.DCSD, 1.0, 17)
    assert rows.size == 0
    assert trace[0].rvs_examined == 16
    assert trace[0].rvs_active == 0
    # nothing active means nothing examined deeper
    assert trace[1].rvs_examined == 0
    assert trace[1].rvs_active == 0


def test_override_empty_level0_ci_still_examines_everything(monkeypatch, worked_cfg):
    engine = ModelSampler(worked_cfg)
    rows, _, trace = _cells_with_level0(monkeypatch, engine, Strategy.CI, 1.0, 17)
    assert rows.size == 0
    assert trace[0].rvs_examined == 16
    assert trace[1].rvs_examined == 64
    assert trace[1].rvs_active == 0


def test_override_with_natural_cells_reproduces_run(worked_cfg):
    engine = ModelSampler(worked_cfg)
    net, trace = engine.run(Strategy.DCSD, 123)
    # Level 0 of K=3, ell=2 is the whole network of K=ell=2: same dense
    # probabilities, same level-0 stream.
    untied = dataclasses.replace(worked_cfg, levels=worked_cfg.untied_levels)
    level0, _ = ModelSampler(untied).run(Strategy.DCSD, 123)
    assert level0.edge_count == trace.per_level[0].rvs_active
    # Its children from level 1's stream, in (row, col) order, are the run.
    rows, cols, examined = engine._dcsd_children(
        level0.edges[:, 0],
        level0.edges[:, 1],
        level0.n_nodes,
        level_states(123, 2)[:, 1],
        level0.edge_count,
    )
    order = np.argsort(rows, kind="stable")
    np.testing.assert_array_equal(net.edges, np.column_stack([rows, cols])[order])
    assert trace.per_level[1].rvs_examined == examined == 4 * level0.edge_count
    assert trace.per_level[1].rvs_active == net.edge_count


def test_override_full_level0_saturates_level0(monkeypatch, worked_cfg):
    side0 = worked_cfg.b**worked_cfg.untied_levels
    engine = ModelSampler(worked_cfg)
    _, _, trace = _cells_with_level0(monkeypatch, engine, Strategy.DCSD, 0.0, 3)
    assert trace[0].rvs_active == side0 * side0
    assert trace[1].rvs_examined == 4 * side0 * side0


def test_children_stay_inside_realized_parents(worked_cfg):
    # Level 0 of a tied config is the whole network of its ell == K config:
    # same dense probabilities, same level-0 stream.  Every final edge must
    # descend from one of its cells through the tied levels (directed with
    # self-loops keeps every final cell).
    untied = dataclasses.replace(worked_cfg, levels=worked_cfg.untied_levels)
    level0 = ModelSampler(untied)
    for levels in (3, 4):  # one and two tied levels
        cfg = dataclasses.replace(worked_cfg, levels=levels)
        scale = cfg.b**cfg.tied_levels
        engine = ModelSampler(cfg)
        for seed in range(20):
            parents, _ = level0.run(Strategy.DCSD, seed)
            available = edges_set(parents)
            for strategy in (Strategy.CI, Strategy.DCSD, Strategy.GP):
                net, trace = engine.run(strategy, seed)
                assert trace.per_level[0].rvs_active == parents.edge_count
                assert len(trace.per_level) == cfg.tied_levels + 1
                assert trace.final_active == net.edge_count
                ancestors = {(r // scale, c // scale) for r, c in net.edges.tolist()}
                assert ancestors <= available


def _block_configs(worked_cfg, theta3_cfg):
    """b=2 and b=3 configs whose level 0 spans several rows, tied and plain."""
    plain = make_config([[0.9, 0.7], [0.5, 0.3]], 4, 4)
    tied3 = make_config(theta3_cfg.theta.entries.tolist(), 4, 2)
    plain3 = make_config(theta3_cfg.theta.entries.tolist(), 3, 3, directed=False)
    return (worked_cfg, tied3, plain, plain3)


def test_streamed_level0_matches_dense(monkeypatch, worked_cfg, theta3_cfg):
    # A cache budget of 0 streams every level-0 grid; block sizes from the
    # whole grid down to one row (1 cell is narrower than any row) must give
    # the cached engine's networks and traces byte for byte.
    cfgs = _block_configs(worked_cfg, theta3_cfg)
    cached = [ModelSampler(cfg) for cfg in cfgs]
    expected = {
        (i, strategy, seed): engine.run(strategy, seed)
        for i, engine in enumerate(cached)
        for strategy in ALL_STRATEGIES
        for seed in (0, 9, 12345)
    }
    assert all(engine._cached_blocks for engine in cached)
    monkeypatch.setattr(samplers_mod, "_CACHE_CELLS", 0)
    for block_cells in (1 << 20, 20, 1):
        monkeypatch.setattr(samplers_mod, "_BLOCK_CELLS", block_cells)
        streamed = [ModelSampler(cfg) for cfg in cfgs]
        for (i, strategy, seed), (want, want_trace) in expected.items():
            got, got_trace = streamed[i].run(strategy, seed)
            assert got.edges.tobytes() == want.edges.tobytes(), (block_cells, i, strategy, seed)
            assert got_trace == want_trace
        assert not any(engine._cached_blocks for engine in streamed)


def test_chunked_dense_draws_match_one_shot(monkeypatch, worked_cfg, theta3_cfg):
    # Small blocks split every cached level-0 grid and every ci tied level
    # into several draws; the uniform stream, and so every network, is the
    # one-block engine's.  dense_cap does not reach the level-0 cache.
    cfgs = _block_configs(worked_cfg, theta3_cfg)
    expected = {
        (i, strategy): ModelSampler(cfg).run(strategy, 9)
        for i, cfg in enumerate(cfgs)
        for strategy in ALL_STRATEGIES
    }
    for block_cells in (200, 40, 1):
        monkeypatch.setattr(samplers_mod, "_BLOCK_CELLS", block_cells)
        engines = [ModelSampler(cfg) for cfg in cfgs]
        for (i, strategy), (want, want_trace) in expected.items():
            got, got_trace = engines[i].run(strategy, 9)
            assert got.edges.tobytes() == want.edges.tobytes(), (block_cells, i, strategy)
            assert got_trace == want_trace
        assert len(engines[-1]._cached_blocks[3]) > 1
    capped = ModelSampler(cfgs[0], dense_cap=1)
    capped.run(Strategy.DCSD, 9)
    assert capped._cached_blocks


def test_streamed_sweep_memory_stays_below_grid(monkeypatch):
    # plain K=12: a 2**24-cell grid, 128 MiB of float64 probabilities
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 12, 12)
    monkeypatch.setattr(samplers_mod, "_CACHE_CELLS", 0)
    engine = ModelSampler(cfg)
    tracemalloc.start()
    try:
        net, _ = engine.run(Strategy.DCSD, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.edge_count > 0
    assert peak < 64 * 2**20, peak


def test_gp_matches_binomial_thinning_oracle():
    """One tied level, parents pinned: per-value child counts are Binomial."""
    cfg = make_config([[0.9, 0.7], [0.5, 0.3]], 2, 1)
    engine = ModelSampler(cfg)
    # level-0 cells (0,0) and (1,1) of the 2x2 grid
    parents = np.array([0, 1], dtype=np.int64)
    reps = 4000
    values = [0.9, 0.7, 0.5, 0.3]
    hists = {}
    for strategy in (Strategy.DCSD, Strategy.GP):
        counts = {v: Counter() for v in values}
        children = engine._CHILDREN[strategy]
        for rep in range(reps):
            # the level-1 cells, drawn from level 1's stream as a run would
            rows, cols, _ = children(engine, parents, parents, 2, level_states(rep, 2)[:, 1], 2)
            per_value = Counter()
            for r, c in zip(rows.tolist(), cols.tolist()):
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
    # level-0 cells (0,0) and (1,1) of the 2x2 grid
    parents = np.array([0, 1], dtype=np.int64)
    chosen = Counter()
    reps = 6000
    for rep in range(reps):
        # the level-1 cells, drawn from level 1's stream as a run would
        rows, cols, _ = engine._CHILDREN[Strategy.GP](
            engine, parents, parents, 2, level_states(rep, 2)[:, 1], 2
        )
        hits = [
            (r // 2, c // 2)
            for r, c in zip(rows.tolist(), cols.tolist())
            if cfg.theta.entries[r % 2, c % 2] == 0.5
        ]
        if len(hits) == 1:
            chosen[hits[0]] += 1
    total = chosen[(0, 0)] + chosen[(1, 1)]
    assert total == sum(chosen.values())
    z = (chosen[(0, 0)] - total / 2) / math.sqrt(total / 4)
    assert abs(z) < 5.0


@pytest.mark.parametrize(
    "theta,levels,untied",
    [
        pytest.param(_WORKED_THETA, 3, 2, id="worked"),
        pytest.param(_WORKED_THETA, 9, 3, id="tied9"),
        pytest.param(_WORKED_THETA, 13, 4, id="K13-ell4"),
        # sparse b = 4 seed with a zero class: still one uniform per candidate
        pytest.param(
            [
                [0.5, 0.1, 0.1, 0.0],
                [0.1, 0.5, 0.1, 0.1],
                [0.1, 0.1, 0.5, 0.1],
                [0.05, 0.1, 0.1, 0.5],
            ],
            5,
            2,
            id="sparse-b4",
        ),
    ],
)
def test_tied_gp_draws_as_dcsd(theta, levels, untied):
    # gp's tied levels make dcsd's draws from the same streams
    engine = ModelSampler(make_config(theta, levels, untied))
    for seed in (0, 7, 123):
        gp_net, gp_trace = engine.run(Strategy.GP, seed)
        dcsd_net, dcsd_trace = engine.run(Strategy.DCSD, seed)
        np.testing.assert_array_equal(gp_net.edges, dcsd_net.edges)
        assert gp_trace.per_level == dcsd_trace.per_level
        assert gp_net.edge_count > 0


def test_grouped_draw_skips_placement_for_zero_counts(monkeypatch, worked_cfg):
    # Placing nothing leaves the stream where it was, so skipping the call
    # changes no draw.
    for total in (5, 100, 20000, 2**40):
        stream = np.random.default_rng(total)
        state = stream.bit_generator.state
        assert samplers_mod.choose_without_replacement(total, 0, stream).size == 0
        assert stream.bit_generator.state == state
    real = samplers_mod.choose_without_replacement
    zero_counts = []

    def placing_draw(size, prob, stream):
        # the grouped draw that also places zero counts
        if prob == 0.0:
            return np.empty(0, dtype=np.int64)
        count = samplers_mod.binomial_draw(size, prob, stream)
        zero_counts.append(count == 0)
        if prob == 1.0:
            return np.arange(size, dtype=np.int64)
        return real(size, count, stream)

    def refusing(total, count, stream):
        if count == 0:
            raise AssertionError("placement called for a zero count")
        return real(total, count, stream)

    configs = (worked_cfg, make_config([[0.9, 0.7], [0.5, 0.3]], 6, 6))
    runs = [(cfg, seed) for cfg in configs for seed in range(20)]
    with monkeypatch.context() as patch:
        patch.setattr(samplers_mod, "_grouped_draw", placing_draw)
        before = [ModelSampler(cfg).run(Strategy.GP, seed) for cfg, seed in runs]
    assert any(zero_counts)
    monkeypatch.setattr(samplers_mod, "choose_without_replacement", refusing)
    assert samplers_mod._grouped_draw(1000, 1e-9, np.random.default_rng(0)).size == 0
    for (cfg, seed), (net_before, trace_before) in zip(runs, before):
        net, trace = ModelSampler(cfg).run(Strategy.GP, seed)
        np.testing.assert_array_equal(net.edges, net_before.edges)
        assert trace == trace_before


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


# -- expand_active, the tied-level kernel of dcsd and gp ----------------------------


def random_case(seed, n_active, b):
    rng = np.random.default_rng(seed)
    side = 64
    flat = rng.choice(side * side, size=n_active, replace=False)
    flat.sort()
    rows = (flat // side).astype(np.int64)
    cols = (flat % side).astype(np.int64)
    theta_flat = rng.random(b * b)
    uniforms = rng.random(n_active * b * b)
    return rows, cols, uniforms, theta_flat


def expand_active_reference(rows, cols, uniforms, theta_flat, b):
    bb = b * b
    out = [
        (rows[p] * b + q // b, cols[p] * b + q % b)
        for p in range(rows.size)
        for q in range(bb)
        if uniforms[p * bb + q] < theta_flat[q]
    ]
    return [r for r, _ in out], [c for _, c in out]


@pytest.mark.parametrize("b,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
def test_expand_active_matches_reference(b, seed):
    rows, cols, uniforms, theta_flat = random_case(seed, n_active=50, b=b)
    r, c = expand_active(rows, cols, uniforms, theta_flat, b)
    ref_r, ref_c = expand_active_reference(rows, cols, uniforms, theta_flat, b)
    assert r.tolist() == ref_r and c.tolist() == ref_c


def test_expand_active_empty_input():
    empty = np.empty(0, dtype=np.int64)
    r, c = expand_active(
        empty, empty, np.empty(0), np.array([0.5, 0.5, 0.5, 0.5]), 2
    )
    assert r.size == 0 and c.size == 0


def test_expand_active_oracle_tiny():
    # one parent at (1, 2), thresholds hand-picked around the uniforms
    rows = np.array([1], dtype=np.int64)
    cols = np.array([2], dtype=np.int64)
    theta_flat = np.array([0.9, 0.1, 0.6, 0.4])
    uniforms = np.array([0.5, 0.05, 0.7, 0.39])
    # kept offsets: 0 (0.5 < 0.9), 1 (0.05 < 0.1), 3 (0.39 < 0.4)
    r, c = expand_active(rows, cols, uniforms, theta_flat, 2)
    assert list(zip(r.tolist(), c.tolist())) == [(2, 4), (2, 5), (3, 5)]
