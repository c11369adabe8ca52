import dataclasses
import hashlib
import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import binom, chi2

import kronnet.groups as groups_mod
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
    equivalence_test,
    grid_groups,
    kronecker_power,
    make_config,
    marginal_test,
    replicate_seed,
    sample,
)
from kronnet.output import dump_json, trace_to_dict, write_edgelist
from kronnet.rng import level_rng, level_states
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
# wherever it sweeps level 0; gp's grouped digests (plain6, loopfree, run
# with every grid grouped) also depend on numpy's Generator.binomial and
# Generator.choice (README "Determinism"), so a numpy release that changes
# those may move them.
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
    ("theta3", "dcsd"): "425cb4ffc727adf2231f3de8aaf0625c79c95eba1fc22f9557d1eca139793449",
    ("theta3", "gp"): "c02d3f5423e3d8d88ce79a2e43f0628a30d417be72fcd74d78831e1544091d9e",
    ("tied9", "naive"): "4414f10e040cb709abbf08626a34e5c74c64d3d7209888311eb63efebe4db03f",
    ("tied9", "ci"): "8ab7b57c29ab216e25319e0486fee7cbbcd1b630e75160fed7544daddf38bbd6",
    ("tied9", "dcsd"): "3dd498e1f01efdea59de6f3984c31dcb135e9c86357c8e216901f8d3532515cb",
    ("tied9", "gp"): "91ee80e12c433008b145e2e01aff04e97474495d611164660f3c0f5de8a3f2ea",
    ("undirected", "naive"): "f53981fb84a9f76f0001058a2a81fee26522269361ef5f62580e1ca26be5725f",
    ("undirected", "ci"): "529d95d4d43d5dc1d82a3331373391ca0697a955571bbd88be8b516c2f402c41",
    ("undirected", "dcsd"): "3dadf362412f7389638369587e529effd8cd0183eac270a21a794d9867a6cd60",
    ("undirected", "gp"): "569f305bc27a0835bbece89daf4c91b030cd91d546283d19fffe965f9415d444",
    ("loopfree", "naive"): "86b3e76a02dbdb4a1ec197ce0de62e7eab1f64950663f9371fda4a9996bfd184",
    ("loopfree", "ci"): "be9916f2c898e0b128cefd7449e1bf072b579ae69f9686907b2af54f75b4862e",
    ("loopfree", "dcsd"): "2903058c0d1d97384f2b5870acca8bbee4a2fdfee4a2c4a18a7dabc8c2965527",
    ("loopfree", "gp"): "7d6a83c02884877ded9be4ad7ba78007086cf7752691e8e07237e683086d5bc4",
}

_WORKED_THETA = [[0.9, 0.7], [0.5, 0.3]]

PINNED_CONFIGS = {
    "worked": make_config(_WORKED_THETA, 3, 2),
    "plain6": make_config(_WORKED_THETA, 6, 6),
    "theta3": make_config([[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]], 4, 2),
    "tied9": make_config(_WORKED_THETA, 9, 3),  # six tied levels
    "undirected": make_config(_WORKED_THETA, 4, 2, directed=False),
    "loopfree": make_config(_WORKED_THETA, 5, 5, self_loops=False),
}

# pins of gp's grouped level 0, on grids below _GROUP_CELLS
GROUPED_PINS = {("plain6", "gp"), ("loopfree", "gp")}


@pytest.mark.parametrize("name,strategy", sorted(PINNED_DIGESTS))
def test_output_bytes_pinned_seed_for_seed(request, name, strategy):
    if (name, strategy) in GROUPED_PINS:
        request.getfixturevalue("group_every_grid")
    cfg = PINNED_CONFIGS[name]
    buf = io.StringIO()
    for seed in (0, 7):
        net, trace = sample(cfg, strategy, seed)
        write_edgelist(net, buf)
        dump_json(trace_to_dict(trace), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name, strategy]


@pytest.mark.parametrize("name", sorted({name for name, _ in GROUPED_PINS}))
def test_gp_sweeps_small_plain_grids_as_dcsd(name):
    # below _GROUP_CELLS gp sweeps level 0, so it makes dcsd's draws
    engine = ModelSampler(PINNED_CONFIGS[name])
    for seed in (0, 7):
        gp_net, gp_trace = engine.run(Strategy.GP, seed)
        dcsd_net, dcsd_trace = engine.run(Strategy.DCSD, seed)
        np.testing.assert_array_equal(gp_net.edges, dcsd_net.edges)
        assert gp_trace.per_level == dcsd_trace.per_level
        assert gp_net.edge_count > 0


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
    "strategy,levels,untied,reps,grouped",
    [
        pytest.param(Strategy.DCSD, 16, 4, 2000, False, id="dcsd"),
        pytest.param(Strategy.GP, 16, 4, 2000, False, id="gp"),
        pytest.param(Strategy.GP, 16, 4, 2000, True, id="gp-grouped"),
        pytest.param(Strategy.GP, 14, 14, 400, False, id="gp-plain"),
    ],
)
def test_edge_count_mean_and_variance_match_branching_process(
    request, strategy, levels, untied, reps, grouped
):
    """Edge counts of a 2**16-node tied model, or a 2**14-node plain model
    (grouped ``gp``), against closed-form moments.  ``grouped`` groups the
    tied model's small untied grid too.

    Level 0 is a sum of independent Bernoulli cells (mean m0, variance v0);
    each tied level is one Galton-Watson generation whose offspring count
    has mean mu = mass and variance sigma2 = sum theta (1 - theta).
    """
    if grouped:
        request.getfixturevalue("group_every_grid")
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
    "strategy,levels,untied,reps,grouped",
    [
        pytest.param(Strategy.DCSD, 16, 4, 1000, False, id="dcsd"),
        pytest.param(Strategy.GP, 16, 4, 1000, False, id="gp"),
        pytest.param(Strategy.GP, 16, 4, 1000, True, id="gp-grouped"),
        pytest.param(Strategy.GP, 14, 14, 300, False, id="gp-plain"),
    ],
)
def test_out_degree_by_digit_count_matches_row_sums(
    request, strategy, levels, untied, reps, grouped
):
    """Mean out-degree of 2**16-node tied-model (or 2**14-node plain-model)
    nodes, binned by 1-digits; ``grouped`` groups the tied model's untied
    grid too.

    Node i's expected out-degree is the product of the seed's row sums over
    its base-2 digits, so every node with k one-digits expects
    r0**(levels-k) * r1**k.  Each replicate's bin means are iid samples of
    that value.  The check reads rows only, so it catches children placed
    in the wrong row of their block even where the edge count keeps its law.
    """
    if grouped:
        request.getfixturevalue("group_every_grid")
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
    with pytest.raises(BadArgs, match="naive, ci, dcsd, gp"):
        sample(worked_cfg, "bogus", 1)
    with pytest.raises(BadArgs, match="'foo'"):
        marginal_test(worked_cfg, "foo", 10, 1)
    with pytest.raises(BadArgs, match="'bar'"):
        equivalence_test(worked_cfg, "ci", "bar", 10, 1)


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
    cells, examined = engine._dcsd_children(
        level0.edges, level0.n_nodes, level_states(123, 2)[:, 1], level0.edge_count
    )
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    np.testing.assert_array_equal(net.edges, cells[order])
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
    parents = np.array([[0, 0], [1, 1]], dtype=np.int64)
    reps = 4000
    values = [0.9, 0.7, 0.5, 0.3]
    hists = {}
    for strategy in (Strategy.DCSD, Strategy.GP):
        counts = {v: Counter() for v in values}
        children = engine._CHILDREN[strategy]
        for rep in range(reps):
            # the level-1 cells, drawn from level 1's stream as a run would
            cells, _ = children(engine, parents, 2, level_states(rep, 2)[:, 1], 2)
            rows, cols = cells.T
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
    parents = np.array([[0, 0], [1, 1]], dtype=np.int64)
    chosen = Counter()
    reps = 6000
    for rep in range(reps):
        # the level-1 cells, drawn from level 1's stream as a run would
        cells, _ = engine._CHILDREN[Strategy.GP](
            engine, parents, 2, level_states(rep, 2)[:, 1], 2
        )
        rows, cols = cells.T
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


def pruned_reference(cfg, seed):
    """``dcsd``'s draw order in plain Python: the kept edges and the trace.

    Level 0 draws one uniform per cell of its grid, row-major, from
    ``level_rng(seed, 0)``; a cell's probability is the product of its
    digits' seed entries, outermost first, as ``kronecker_power`` builds it.
    Each tied level ``lam`` then visits the previous level's cells in the
    order they were made (parent-major, never re-sorted), and each draws
    b*b uniforms from ``level_rng(seed, lam)``, its block row-major.  The
    last level's cells are sorted once and filtered by the edge mode.
    """
    b, theta = cfg.b, cfg.theta.entries.tolist()
    side = b**cfg.untied_levels
    uniforms = level_rng(seed, 0).random(side * side).tolist()
    cells = []
    for row in range(side):
        for col in range(side):
            prob = 1.0
            for d in reversed(range(cfg.untied_levels)):
                prob *= theta[row // b**d % b][col // b**d % b]
            if uniforms[row * side + col] < prob:
                cells.append((row, col))
    trace = [(0, side * side, len(cells))]
    for lam in range(1, cfg.tied_levels + 1):
        uniforms = iter(level_rng(seed, lam).random(len(cells) * b * b).tolist())
        children = [
            (row * b + dr, col * b + dc)
            for row, col in cells
            for dr in range(b)
            for dc in range(b)
            if next(uniforms) < theta[dr][dc]
        ]
        trace.append((lam, len(cells) * b * b, len(children)))
        cells = children
    edges = [
        (row, col)
        for row, col in sorted(cells)
        if (row < col if not cfg.directed else cfg.self_loops or row != col)
    ]
    return edges, trace


_ASYMMETRIC_THETA3 = [[0.9, 0.4, 0.1], [0.6, 0.5, 0.2], [0.3, 0.8, 0.7]]


@pytest.mark.parametrize("strategy", [Strategy.DCSD, Strategy.GP])
@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(make_config(_WORKED_THETA, 4, 2), id="b2-two-tied"),
        pytest.param(make_config(_WORKED_THETA, 5, 2), id="b2-three-tied"),
        pytest.param(make_config(_ASYMMETRIC_THETA3, 4, 2, self_loops=False), id="b3-loop-free"),
        pytest.param(make_config(_ASYMMETRIC_THETA3, 5, 2, directed=False), id="b3-undirected"),
    ],
)
def test_pruned_runs_equal_the_draw_order_reference(cfg, strategy):
    engine = ModelSampler(cfg)
    for seed in (0, 7, 2026):
        net, trace = engine.run(strategy, seed)
        edges, levels = pruned_reference(cfg, seed)
        assert net.edges.tolist() == [list(edge) for edge in edges]
        assert [dataclasses.astuple(entry) for entry in trace.per_level] == levels
        assert len(levels) >= 3 and edges


@pytest.mark.parametrize(
    "reps,side",
    [
        pytest.param(1, 2**31, id="2**62"),
        pytest.param(2, 2**31, id="2**63"),
        pytest.param(3, 2**31, id="3*2**62"),
        pytest.param(1, 2**32, id="2**64"),
    ],
)
def test_final_sort_orders_cells_at_the_int64_boundary(reps, side):
    # Parent-major children of parents near the top of a stack of side-2**31
    # or 2**32 grids: flat keys row * side + col reach 2**63 - 1 up to
    # reps * side**2 = 2**63, and would overflow beyond it.
    rng = np.random.default_rng(side + reps)
    parents = np.stack(
        [reps * side // 2 - 1 - rng.permutation(40), side // 2 - 1 - rng.permutation(40)], axis=1
    )
    cells = expand_active(parents, 2, rng.random(160), np.full(4, 0.6))
    want = sorted(map(tuple, cells.tolist()))
    assert len(set(want)) == len(want) > 50 and cells.tolist() != [list(c) for c in want]
    rows, cols = samplers_mod._sorted_cells(cells[:, 0], cells[:, 1], reps, side)
    assert list(zip(rows.tolist(), cols.tolist())) == want


@pytest.mark.usefixtures("group_every_grid")
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


@pytest.mark.usefixtures("group_every_grid")
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


@pytest.mark.usefixtures("group_every_grid")
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


@pytest.mark.parametrize(
    "rows,levels,untied",
    [
        pytest.param(_WORKED_THETA, 11, 11, id="b2-plain"),
        pytest.param(_WORKED_THETA, 13, 11, id="b2-tied"),
        pytest.param(_ASYMMETRIC_THETA3, 7, 7, id="b3-plain"),
        pytest.param(_ASYMMETRIC_THETA3, 9, 7, id="b3-tied"),
    ],
)
def test_gp_groups_level0_from_group_cells_up_to_the_cap(monkeypatch, rows, levels, untied):
    # the smallest untied grids at or past _GROUP_CELLS: 4**11 and 9**7 cells
    cfg = make_config(rows, levels, untied)
    cells = cfg.b ** (2 * untied)
    assert cells // cfg.b**2 < samplers_mod._GROUP_CELLS <= cells
    assert ModelSampler(make_config(rows, levels - 1, untied - 1))._grid_tables is None
    assert ModelSampler(cfg)._grid_tables is not None
    monkeypatch.setattr(samplers_mod, "_GROUP_CELLS", cells + 1)
    assert ModelSampler(cfg)._grid_tables is None
    monkeypatch.setattr(samplers_mod, "_GROUP_CELLS", cells)
    assert ModelSampler(cfg)._grid_tables is not None
    # the cap counts the untied grid's exponent multisets over m distinct values
    m = len(set(np.ravel(rows).tolist()))
    multisets = math.comb(untied + m - 1, m - 1)
    monkeypatch.setattr(groups_mod, "DEFAULT_GROUP_CAP", multisets - 1)
    assert ModelSampler(cfg)._grid_tables is None
    monkeypatch.setattr(groups_mod, "DEFAULT_GROUP_CAP", multisets)
    assert ModelSampler(cfg)._grid_tables is not None


@pytest.mark.parametrize("levels,untied", [(13, 4), (3, 2)], ids=["K13-ell4", "K3-ell2"])
def test_small_untied_grids_never_build_groups(monkeypatch, levels, untied):
    # the rule reads only the config: no grouping is built below _GROUP_CELLS
    def refusing(cfg):
        raise AssertionError("grid_groups called below _GROUP_CELLS")

    monkeypatch.setattr(samplers_mod, "grid_groups", refusing)
    engine = ModelSampler(make_config(_WORKED_THETA, levels, untied))
    assert engine._grid_tables is None
    gp_net, _ = engine.run(Strategy.GP, 0)
    np.testing.assert_array_equal(gp_net.edges, engine.run(Strategy.DCSD, 0)[0].edges)


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


def test_network_validation_rejects_float_edges():
    with pytest.raises(BadArgs, match="must be integers"):
        SampledNetwork(n_nodes=4, edges=np.array([[0.5, 1.2]]))
    # no edges need no integer dtype
    assert SampledNetwork(n_nodes=4, edges=np.empty((0, 2))).edge_count == 0


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
    r, c = expand_active(np.stack((rows, cols), axis=1), b, uniforms, theta_flat).T
    ref_r, ref_c = expand_active_reference(rows, cols, uniforms, theta_flat, b)
    assert r.tolist() == ref_r and c.tolist() == ref_c


def test_expand_active_empty_input():
    empty = np.empty((0, 2), dtype=np.int64)
    r, c = expand_active(empty, 2, np.empty(0), np.array([0.5, 0.5, 0.5, 0.5])).T
    assert r.size == 0 and c.size == 0


def test_expand_active_oracle_tiny():
    # one parent at (1, 2), thresholds hand-picked around the uniforms
    cells = np.array([[1, 2]], dtype=np.int64)
    theta_flat = np.array([0.9, 0.1, 0.6, 0.4])
    uniforms = np.array([0.5, 0.05, 0.7, 0.39])
    # kept offsets: 0 (0.5 < 0.9), 1 (0.05 < 0.1), 3 (0.39 < 0.4)
    r, c = expand_active(cells, 2, uniforms, theta_flat).T
    assert list(zip(r.tolist(), c.tolist())) == [(2, 4), (2, 5), (3, 5)]
