import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronnet import SampledNetwork, Strategy, make_config, sample
from kronnet import output
from kronnet.output import (
    dump_json,
    format_table,
    save_edgelist,
    trace_to_dict,
    write_edgelist,
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


def reference_edgelist(net):
    # one f-string per edge: the writer's output must be exactly this
    return "".join(f"{int(row)}\t{int(col)}\n" for row, col in net.edges)


def first_difference(got, want):
    # None when equal; else the first differing line, which stays cheap to
    # report where a plain == on megabytes of text makes pytest diff them
    if got == want:
        return None
    for number, (a, b) in enumerate(zip(got.splitlines(True), want.splitlines(True))):
        if a != b:
            return f"line {number}: {a!r} != {b!r}"
    return f"length {len(got)} != {len(want)}"


def written(net):
    buf = io.StringIO()
    write_edgelist(net, buf)
    return buf.getvalue()


def test_write_edgelist_sorted_by_row_then_col():
    net = _net([(1, 0), (0, 5), (1, 2), (0, 2)])
    assert written(net) == "0\t2\n0\t5\n1\t0\n1\t2\n"


def test_write_edgelist_digit_count_boundaries():
    ids = sorted({0, 1} | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)})
    pairs = [(a, b) for a in ids for b in (ids[0], ids[len(ids) // 2], ids[-1])]
    net = _net(pairs, n=2**62)
    assert first_difference(written(net), reference_edgelist(net)) is None


def test_write_edgelist_ids_near_the_last_node():
    # 2**62 - 1 has 19 digits, the most any id in range can have
    n = 2**62
    pairs = [(n - 1 - i, n - 1 - j) for i in range(3) for j in (0, 5, 10**18)]
    net = _net(pairs, n=n)
    assert reference_edgelist(net).endswith(f"{n - 1}\t{n - 1}\n")
    assert first_difference(written(net), reference_edgelist(net)) is None


class RecordingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_write_edgelist_spans_chunks():
    # the first chunk's ids have at most 6 digits, the next line has 7, so
    # the line after the chunk edge is formatted at another width
    m = output._CHUNK_EDGES + 3
    rows = np.arange(m, dtype=np.int64) * 2
    rows[output._CHUNK_EDGES :] += 10**6
    cols = (np.arange(m, dtype=np.int64) * 7919) % 100_003
    net = SampledNetwork(n_nodes=2 * 10**6, edges=np.stack([rows, cols], axis=1))
    stream = RecordingStream()
    write_edgelist(net, stream)
    assert first_difference(stream.getvalue(), reference_edgelist(net)) is None
    assert len(stream.writes) == 2


def test_write_edgelist_empty_network_writes_nothing():
    stream = RecordingStream()
    write_edgelist(_net([]), stream)
    assert stream.getvalue() == "" and stream.writes == []


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("directed,self_loops", [(True, True), (False, True), (True, False)])
def test_write_edgelist_sampled_networks(strategy, directed, self_loops):
    cfg = make_config(
        [[0.9, 0.7], [0.5, 0.3]], 8, 4, directed=directed, self_loops=self_loops
    )
    net, _ = sample(cfg, strategy, 11)
    assert net.edge_count > 100
    assert first_difference(written(net), reference_edgelist(net)) is None


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(1, 2**62),
    raw=st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)), max_size=40),
)
def test_write_edgelist_matches_reference_property(n_nodes, raw):
    pairs = {(a % n_nodes, b % n_nodes) for a, b in raw}
    net = _net(pairs, n=n_nodes)
    assert first_difference(written(net), reference_edgelist(net)) is None


def test_save_edgelist_memory_bounded_by_chunk(tmp_path):
    # 2**20 edges take 16 MiB as int64; the writer's own peak must not
    # grow with them
    m = 1 << 20
    idx = np.arange(m, dtype=np.int64)
    net = SampledNetwork(n_nodes=1 << 22, edges=np.stack([idx // 4, idx * 4 % (1 << 22)], 1))
    path = tmp_path / "big.tsv"
    tracemalloc.start()
    try:
        save_edgelist(net, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    back = np.array(path.read_text(encoding="utf-8").split(), dtype=np.int64)
    np.testing.assert_array_equal(back.reshape(-1, 2), net.edges)


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
