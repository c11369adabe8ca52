import dataclasses
import json
import math

import numpy as np
import pytest

from kronnet import (
    BadArgs,
    BadConfig,
    BadLevels,
    EntryOutOfRange,
    ModelConfig,
    Overflow,
    ThetaMatrix,
    config_from_dict,
    config_to_dict,
    load_config,
    make_config,
    validate_config,
)


def test_theta_matrix_round_trip():
    theta = ThetaMatrix.from_rows([[0.9, 0.7], [0.5, 0.3]])
    assert theta.side == 2
    assert theta.entries.dtype == np.float64
    assert not theta.entries.flags.writeable
    assert theta.mass == pytest.approx(2.4)
    assert list(theta.flat) == [0.9, 0.7, 0.5, 0.3]


def test_theta_matrix_rejects_ragged_and_nonsquare():
    with pytest.raises(BadConfig):
        ThetaMatrix.from_rows([[0.1, 0.2], [0.3]])
    with pytest.raises(BadConfig):
        ThetaMatrix.from_rows([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])


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
    validate_config(cfg)


@pytest.mark.parametrize("levels,untied", [(3, 0), (3, 4), (0, 0), (3, -1)])
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
        validate_config(make_config([[0.5, 0.5], [0.5, 0.5]], 64, 1))
    validate_config(make_config([[0.5, 0.5], [0.5, 0.5]], 63, 1))


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
    ],
)
def test_config_from_dict_rejects_mistyped_fields(key, value):
    data = {"b": 2, "theta": [[0.9, 0.7], [0.5, 0.3]], "K": 3, "ell": 2, key: value}
    with pytest.raises(BadConfig):
        config_from_dict(data)


def test_config_from_dict_requires_core_keys():
    with pytest.raises(BadConfig):
        config_from_dict({"b": 2, "theta": [[0.5, 0.5], [0.5, 0.5]], "K": 2})


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(BadConfig):
        load_config(str(path))


def test_validate_rejects_wrong_types():
    cfg = ModelConfig(theta=ThetaMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]]), levels=2, untied_levels=1)
    bad = dataclasses.replace(cfg, theta="nope")
    with pytest.raises(BadConfig):
        validate_config(bad)


def test_mass_matches_sum():
    rows = [[0.9, 0.6, 0.3], [0.6, 0.5, 0.2], [0.3, 0.2, 0.1]]
    theta = ThetaMatrix.from_rows(rows)
    assert math.isclose(theta.mass, sum(sum(r) for r in rows), rel_tol=1e-12)
