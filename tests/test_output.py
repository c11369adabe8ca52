import io
import json

import numpy as np

from kronnet import SampledNetwork, Strategy, sample
from kronnet.output import (
    dump_json,
    edgelist_lines,
    format_table,
    save_edgelist,
    trace_to_dict,
)


def _net(pairs, n=8):
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return SampledNetwork(n_nodes=n, edges=edges)


def test_edgelist_exact_bytes(tmp_path):
    net = _net([(0, 3), (2, 7), (0, 1)])
    path = tmp_path / "edges.tsv"
    save_edgelist(net, str(path))
    assert path.read_bytes() == b"0\t1\n0\t3\n2\t7\n"


def test_edgelist_empty_network(tmp_path):
    path = tmp_path / "empty.tsv"
    save_edgelist(_net([]), str(path))
    assert path.read_bytes() == b""


def test_edgelist_lines_sorted_by_row_then_col():
    net = _net([(1, 0), (0, 5), (1, 2), (0, 2)])
    assert list(edgelist_lines(net)) == ["0\t2\n", "0\t5\n", "1\t0\n", "1\t2\n"]


def test_trace_json_schema(worked_cfg):
    _, trace = sample(worked_cfg, Strategy.DCSD, 42)
    payload = trace_to_dict(trace)
    assert payload["seed"] == 42
    assert payload["strategy"] == "dcsd"
    levels = payload["per_level"]
    assert [entry["lambda"] for entry in levels] == [0, 1]
    for entry in levels:
        assert set(entry) == {"lambda", "examined", "active"}
        assert entry["active"] <= entry["examined"]
    # the whole payload is plain JSON
    json.dumps(payload)


def test_dump_json_deterministic_bytes():
    buf_a, buf_b = io.StringIO(), io.StringIO()
    dump_json({"b": 2, "a": [1, 2]}, buf_a)
    dump_json({"a": [1, 2], "b": 2}, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    assert buf_a.getvalue().endswith("\n")


def test_format_table_alignment():
    text = format_table(["name", "n"], [["ci", 80], ["dcsd", 7]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert lines[1].startswith("----")
    assert len(lines) == 4
    assert "80" in lines[2] and "dcsd" in lines[3]
