import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kronnet import (
    BadArgs,
    BadConfig,
    BadLevels,
    EntryOutOfRange,
    KronnetError,
    ModelConfig,
    Overflow,
    ThetaMatrix,
    config_from_dict,
    config_to_dict,
    load_config,
    make_config,
)
from kronnet.cli import main


def test_theta_matrix_round_trip():
    theta = ThetaMatrix([[0.9, 0.7], [0.5, 0.3]])
    assert theta.side == 2
    assert theta.entries.dtype == np.float64
    assert not theta.entries.flags.writeable
    assert theta.mass == pytest.approx(2.4)
    assert list(theta.flat) == [0.9, 0.7, 0.5, 0.3]


def test_theta_matrix_rejects_ragged_and_nonsquare():
    with pytest.raises(BadConfig):
        ThetaMatrix([[0.1, 0.2], [0.3]])
    with pytest.raises(BadConfig):
        ThetaMatrix([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])


def test_make_config_defaults(worked_cfg):
    assert worked_cfg.b == 2
    assert worked_cfg.levels == 3
    assert worked_cfg.untied_levels == 2
    assert worked_cfg.tied_levels == 1
    assert worked_cfg.n_nodes == 8
    assert worked_cfg.directed and worked_cfg.self_loops


def test_n_nodes_is_exact_python_int():
    cfg = make_config([[0.5, 0.5], [0.5, 0.5]], 62, 1)
    assert cfg.n_nodes == 2**62
    assert isinstance(cfg.n_nodes, int)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
def test_entry_out_of_range(bad):
    with pytest.raises(EntryOutOfRange):
        make_config([[0.5, bad], [0.5, 0.5]], 2, 1)


def test_entry_bounds_are_inclusive():
    cfg = make_config([[0.0, 1.0], [1.0, 0.0]], 2, 1)
    assert cfg.theta.mass == 2.0


@pytest.mark.parametrize(
    "levels,untied",
    [(3, 0), (3, 4), (0, 0), (3, -1), (True, True), (3, True), (False, 1), (3.0, 2), (3, "2")],
)
def test_bad_levels(levels, untied):
    with pytest.raises(BadLevels):
        make_config([[0.5, 0.5], [0.5, 0.5]], levels, untied)


def test_untied_equal_levels_allowed():
    cfg = make_config([[0.5, 0.5], [0.5, 0.5]], 3, 3)
    assert cfg.tied_levels == 0


def test_side_one_matrix_rejected():
    with pytest.raises(BadConfig):
        make_config([[0.5]], 2, 1)


def test_node_count_overflow():
    with pytest.raises(Overflow):
        make_config([[0.5, 0.5], [0.5, 0.5]], 65, 1)
    # 2**64 == u64 max + 1
    with pytest.raises(Overflow):
        make_config([[0.5, 0.5], [0.5, 0.5]], 64, 1)
    assert make_config([[0.5, 0.5], [0.5, 0.5]], 63, 1).n_nodes == 2**63
    # rejected before side**levels is computed
    with pytest.raises(Overflow):
        make_config([[0.5, 0.5], [0.5, 0.5]], 10**30, 1)


def test_config_json_round_trip(tmp_path, worked_cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(worked_cfg)))
    loaded = load_config(str(path))
    assert loaded == worked_cfg


def test_config_from_dict_full():
    cfg = config_from_dict(
        {
            "b": 2,
            "theta": [[0.9, 0.7], [0.5, 0.3]],
            "K": 3,
            "ell": 2,
            "directed": False,
            "self_loops": False,
        }
    )
    assert not cfg.directed
    assert not cfg.self_loops


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(BadConfig):
        config_from_dict({"b": 2, "theta": [[0.5, 0.5], [0.5, 0.5]], "K": 2, "ell": 1, "zeta": 9})


def test_config_from_dict_rejects_b_mismatch():
    with pytest.raises(BadConfig):
        config_from_dict({"b": 3, "theta": [[0.5, 0.5], [0.5, 0.5]], "K": 2, "ell": 1})


@pytest.mark.parametrize(
    "key,value",
    [
        ("K", 3.7),
        ("K", 3.0),
        ("K", True),
        ("K", "abc"),
        ("K", "3"),
        ("K", None),
        ("ell", 1.5),
        ("ell", False),
        ("b", "x"),
        ("b", 2.0),
        ("b", True),
        ("directed", "false"),
        ("directed", 0),
        ("directed", None),
        ("self_loops", 1),
        ("self_loops", "true"),
        ("theta", [[True, False], [False, True]]),
        ("theta", [["0.5", "0.5"], ["0.5", "0.5"]]),
        ("theta", None),
        ("theta", [[0.5, None], [0.5, 0.5]]),
        ("theta", "0.5"),
        ("theta", [0.5, 0.5]),
        ("theta", [[0.5, 10**400], [0.5, 0.5]]),
    ],
)
def test_config_from_dict_rejects_mistyped_fields(key, value):
    data = {"b": 2, "theta": [[0.9, 0.7], [0.5, 0.3]], "K": 3, "ell": 2, key: value}
    with pytest.raises(BadConfig):
        config_from_dict(data)


# A sparse model (seed mass < 1), so every config the fuzzer gets accepted
# samples in milliseconds whatever level counts it carries.
_FUZZ_BASE = {
    "b": 2,
    "theta": [[0.5, 0.2], [0.2, 0.05]],
    "K": 3,
    "ell": 2,
    "directed": True,
    "self_loops": True,
}
_MISSING = object()
# Each field of the config, and each theta entry, is a place to substitute.
_FUZZ_PLACES = list(_FUZZ_BASE) + [("theta", i, j) for i in range(2) for j in range(2)]
_JSON_SCALARS = (
    st.none(),
    st.booleans(),
    st.integers(-2, 70),
    st.integers(),
    st.floats(0, 1),
    st.floats(),
    st.text(max_size=4),
)
# Every scalar kind is as likely as a missing key or a whole container.
_JSON_VALUES = st.one_of(
    st.just(_MISSING),
    *_JSON_SCALARS,
    st.recursive(
        st.one_of(*_JSON_SCALARS),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=8,
    ),
)


def _fuzzed(place, value):
    data = copy.deepcopy(_FUZZ_BASE)
    if isinstance(place, tuple):
        target, slot = data["theta"][place[1]], place[2]
    else:
        target, slot = data, place
    if value is _MISSING:
        del target[slot]
    else:
        target[slot] = value
    return data


@settings(max_examples=300, deadline=None)
@given(place=st.sampled_from(_FUZZ_PLACES), value=_JSON_VALUES)
def test_config_from_dict_accepts_exactly_or_raises(place, value):
    data = _fuzzed(place, value)
    try:
        cfg = config_from_dict(data)
    except KronnetError:
        return
    expected = {"directed": True, "self_loops": True, **data}
    out = config_to_dict(cfg)
    assert out == expected
    # == equates True with 1 and 3 with 3.0; a coerced field shows in its type
    for field in ("b", "K", "ell", "directed", "self_loops"):
        assert type(out[field]) is type(expected[field])
    assert not any(isinstance(v, bool) for row in expected["theta"] for v in row)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(place=st.sampled_from(_FUZZ_PLACES), value=_JSON_VALUES)
def test_generate_on_fuzzed_config_exits_0_or_2(tmp_path, place, value):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(_fuzzed(place, value)))
    out = str(tmp_path / "out.tsv")
    args = ["generate", "--config", str(path), "--strategy", "dcsd", "--seed", "1"]
    assert main(args + ["--out", out]) in (0, 2)


def test_config_from_dict_requires_core_keys():
    with pytest.raises(BadConfig):
        config_from_dict({"b": 2, "theta": [[0.5, 0.5], [0.5, 0.5]], "K": 2})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(BadConfig):
        load_config(str(path))


def test_validate_rejects_wrong_types():
    cfg = ModelConfig(theta=ThetaMatrix([[0.5, 0.5], [0.5, 0.5]]), levels=2, untied_levels=1)
    with pytest.raises(BadConfig):
        dataclasses.replace(cfg, theta="nope")


@pytest.mark.parametrize(
    "changes,error",
    [
        ({"levels": 0}, BadLevels),
        ({"untied_levels": 4}, BadLevels),
        ({"levels": True}, BadLevels),
        ({"levels": 64}, Overflow),
        ({"directed": "no"}, BadConfig),
        ({"self_loops": 0}, BadConfig),
    ],
)
def test_replace_revalidates(worked_cfg, changes, error):
    with pytest.raises(error):
        dataclasses.replace(worked_cfg, **changes)


def test_mass_matches_sum():
    rows = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
    theta = ThetaMatrix(rows)
    assert math.isclose(theta.mass, sum(sum(r) for r in rows), rel_tol=1e-12)
