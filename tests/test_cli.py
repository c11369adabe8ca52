import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kronnet
import kronnet.cli as cli_mod
from kronnet import output
from kronnet.cli import main
from kronnet.samplers import Strategy
from kronnet.verify import MarginalReport


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"b": 2, "theta": [[0.9, 0.7], [0.5, 0.3]], "K": 3, "ell": 2})
    )
    return str(path)


def test_generate_edgelist_byte_identical(cfg_path, tmp_path):
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    for out in (out_a, out_b):
        code = main(
            [
                "generate",
                "--config",
                cfg_path,
                "--strategy",
                "dcsd",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().startswith(b"0\t")
    trace = json.loads((tmp_path / "a.tsv.trace.json").read_text())
    assert trace["seed"] == 42
    assert trace["strategy"] == "dcsd"
    assert [e["lambda"] for e in trace["per_level"]] == [0, 1]


def test_generate_entry_point_matches_in_process(cfg_path, tmp_path):
    out = tmp_path / "cli.tsv"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "kronnet.cli",
            "generate",
            "--config",
            cfg_path,
            "--strategy",
            "dcsd",
            "--seed",
            "42",
            "--out",
            str(out),
        ],
        capture_output=True,
        # the child imports the package under test, installed or not
        env={**os.environ, "PYTHONPATH": str(Path(kronnet.__file__).parents[1])},
    )
    assert result.returncode == 0, result.stderr
    ref = tmp_path / "ref.tsv"
    main(
        ["generate", "--config", cfg_path, "--strategy", "dcsd", "--seed", "42", "--out", str(ref)]
    )
    assert out.read_bytes() == ref.read_bytes()


def test_generate_stdout(cfg_path, capsys):
    assert (
        main(["generate", "--config", cfg_path, "--strategy", "naive", "--seed", "7"])
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert all("\t" in line for line in lines)


def test_generate_stdout_matches_out_file_across_chunks(tmp_path):
    # a tied network of ~2e5 edges goes out in several writer chunks; stdout
    # and --out must still carry the same bytes
    cfg = tmp_path / "tied14.json"
    cfg.write_text(
        json.dumps({"b": 2, "theta": [[0.9, 0.7], [0.5, 0.3]], "K": 14, "ell": 4})
    )
    args = ["generate", "--config", str(cfg), "--strategy", "dcsd", "--seed", "3"]
    out = tmp_path / "net.tsv"
    assert main(args + ["--out", str(out)]) == 0
    result = subprocess.run(
        [sys.executable, "-m", "kronnet.cli", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(kronnet.__file__).parents[1])},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(b"\n") > 2 * output._CHUNK_EDGES
    same = result.stdout == out.read_bytes()
    assert same, "stdout differs from the --out file"


def test_generate_trace_json_format(cfg_path, capsys):
    code = main(
        [
            "generate",
            "--config",
            cfg_path,
            "--strategy",
            "ci",
            "--seed",
            "7",
            "--format",
            "trace-json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strategy"] == "ci"
    assert payload["per_level"][1]["examined"] == 64


def test_generate_requires_seed(cfg_path, capsys):
    assert main(["generate", "--config", cfg_path, "--strategy", "dcsd"]) == 2
    assert "seed" in capsys.readouterr().err


def test_generate_cap_refusal(cfg_path, capsys):
    code = main(
        [
            "generate",
            "--config",
            cfg_path,
            "--strategy",
            "ci",
            "--seed",
            "1",
            "--cap",
            "50",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "dcsd" in err or "gp" in err


def test_generate_refuses_level0_rows_past_the_limit(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"b": 2, "theta": [[0.5, 0.0], [0.0, 0.5]], "K": 40, "ell": 40}))
    assert main(["generate", "--config", str(path), "--strategy", "dcsd", "--seed", "0"]) == 2
    assert "level-0 sweep" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert (
        main(["generate", "--config", "/nope/missing.json", "--strategy", "dcsd", "--seed", "1"])
        == 2
    )
    assert "error:" in capsys.readouterr().err


def test_bad_config_contents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"b": 3, "theta": [[0.5, 0.5], [0.5, 0.5]], "K": 2, "ell": 1}')
    assert main(["generate", "--config", str(path), "--strategy", "dcsd", "--seed", "1"]) == 2


@pytest.mark.parametrize(
    "contents", [b"\xff\xfe{", b"[" * 100000], ids=["not-utf8", "deep-nesting"]
)
def test_unreadable_config_exit_code(tmp_path, capsys, contents):
    path = tmp_path / "bad.json"
    path.write_bytes(contents)
    assert main(["generate", "--config", str(path), "--strategy", "dcsd", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value", [("K", "abc"), ("b", "x"), ("K", 3.7), ("ell", True), ("directed", "false")]
)
def test_mistyped_config_field_exit_code(tmp_path, capsys, key, value):
    data = {"b": 2, "theta": [[0.9, 0.7], [0.5, 0.3]], "K": 3, "ell": 2, key: value}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    assert main(["generate", "--config", str(path), "--strategy", "dcsd", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_small_run(cfg_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--config",
            cfg_path,
            "--seed",
            "5",
            "--samples",
            "400",
            "--out",
            str(out),
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "marginal" in text and "equivalence" in text
    assert "verify: pass" in text
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["marginal"]) == 4
    assert len(payload["equivalence"]) == 2
    assert payload["master_seed"] == 5


def test_verify_single_strategy(cfg_path, capsys):
    code = main(
        ["verify", "--config", cfg_path, "--seed", "5", "--samples", "200", "--strategy", "gp"]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert text.count("marginal") == 1
    assert "equivalence" not in text


def test_verify_env_master_seed(cfg_path, capsys, monkeypatch):
    monkeypatch.setenv("GNM_MASTER_SEED", "5")
    code = main(
        ["verify", "--config", cfg_path, "--samples", "200", "--strategy", "dcsd"]
    )
    assert code == 0
    env_out = capsys.readouterr().out
    code = main(
        [
            "verify",
            "--config",
            cfg_path,
            "--samples",
            "200",
            "--strategy",
            "dcsd",
            "--seed",
            "5",
        ]
    )
    assert capsys.readouterr().out == env_out
    assert code == 0


def test_verify_requires_some_seed(cfg_path, capsys, monkeypatch):
    monkeypatch.delenv("GNM_MASTER_SEED", raising=False)
    assert main(["verify", "--config", cfg_path, "--samples", "10"]) == 2
    assert "GNM_MASTER_SEED" in capsys.readouterr().err


def test_verify_bad_env_seed(cfg_path, capsys, monkeypatch):
    monkeypatch.setenv("GNM_MASTER_SEED", "zebra")
    assert main(["verify", "--config", cfg_path, "--samples", "10"]) == 2


def test_verify_failure_exit_code(cfg_path, monkeypatch, capsys):
    import numpy as np

    def failing_marginal(cfg, strategy, n_samples, seed, **kwargs):
        z = np.zeros((8, 8))
        z[0, 0] = 9.0
        return MarginalReport(
            strategy=Strategy(strategy),
            n_samples=n_samples,
            master_seed=seed,
            z_threshold=4.0,
            theoretical=z,
            empirical=z,
            z_scores=z,
            checked_cells=64,
            flagged_cells=((0, 0),),
        )

    monkeypatch.setattr(cli_mod, "marginal_test", failing_marginal)
    code = main(
        ["verify", "--config", cfg_path, "--seed", "1", "--samples", "10", "--strategy", "ci"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_audit_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main(
        [
            "audit",
            "--config",
            cfg_path,
            "--seed",
            "9",
            "--samples",
            "300",
            "--out",
            str(out),
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "audit: pass" in text
    assert "80.00" in text  # full-sweep examined count
    assert "64" in text  # pruned-sweep ceiling
    payload = json.loads(out.read_text())
    assert payload["strategies"]["ci"]["mean_rvs_examined"] == 80.0
    assert payload["strategies"]["dcsd"]["ebound"] == 64
    assert payload["strategies"]["dcsd"]["within_bound"] is True


def test_audit_env_seed(cfg_path, capsys, monkeypatch):
    monkeypatch.setenv("GNM_MASTER_SEED", "31")
    assert main(["audit", "--config", cfg_path, "--samples", "50"]) == 0
    assert "audit: pass" in capsys.readouterr().out


def test_bench_table_and_refusal(cfg_path, tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(
        [
            "bench",
            "--config",
            cfg_path,
            "--seed",
            "0",
            "--k",
            "1,3,4",
            "--strategies",
            "ci,dcsd",
            "--samples",
            "1",
            "--cap",
            "100",
            "--out",
            str(out),
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "refused" in text  # K=4 full sweep needs 336 > 100 cells
    assert "ok" in text
    rows = json.loads(out.read_text())
    status = {(r["k"], r["strategy"]): r["status"] for r in rows}
    assert status[(3, "ci")] == "ok"
    assert status[(4, "ci")].startswith("refused")
    assert status[(4, "dcsd")] == "ok"
    # K=1 is below the config's ell=2: an invalid point is a refused row
    assert status[(1, "ci")].startswith("refused")
    assert status[(1, "dcsd")].startswith("refused")
    ok_rows = [r for r in rows if r["status"] == "ok"]
    assert all("seconds" in r and "rvs_examined" in r for r in ok_rows)


def test_bench_k_keeps_plain_configs_plain_and_tied_ell(cfg_path, tmp_path, capsys):
    # a plain config's points stay plain (ell = k); a tied one keeps ell = 2
    plain = tmp_path / "plain.json"
    plain.write_text(
        json.dumps({"b": 2, "theta": [[0.9, 0.7], [0.5, 0.3]], "K": 6, "ell": 6})
    )
    examined = {}
    for path, name in ((str(plain), "plain"), (cfg_path, "tied")):
        out = tmp_path / f"{name}.json"
        args = ["bench", "--config", path, "--seed", "0", "--k", "4,8"]
        assert main(args + ["--strategies", "ci,dcsd", "--samples", "1", "--out", str(out)]) == 0
        for row in json.loads(out.read_text()):
            assert row["status"] == "ok", row
            examined[name, row["k"], row["strategy"]] = row["rvs_examined"]
    capsys.readouterr()
    # the plain model sweeps its whole grid, n**2 cells, under either strategy
    for k in (4, 8):
        assert examined["plain", k, "ci"] == examined["plain", k, "dcsd"] == 4**k
    # ci on the tied model examines every level's grid from the 4x4 untied one
    assert examined["tied", 4, "ci"] == 16 + 64 + 256
    assert examined["tied", 8, "ci"] == sum(4 ** (2 + lam) for lam in range(7))


def test_bench_rejects_bad_k(cfg_path, capsys):
    assert (
        main(["bench", "--config", cfg_path, "--seed", "0", "--k", "two"]) == 2
    )


def test_bench_rejects_unknown_strategy(cfg_path, capsys):
    assert main(["bench", "--config", cfg_path, "--strategies", "ci,foo"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-2", str(2**64)])
def test_bench_rejects_out_of_range_seed(cfg_path, capsys, seed):
    assert main(["bench", "--config", cfg_path, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "refused" not in captured.out


def test_usage_error_exit_code(cfg_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--config", cfg_path, "--strategy", "warp", "--seed", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["verify", "audit"])
def test_report_json_carries_timing(command, cfg_path, tmp_path, monkeypatch):
    # The timing keys ride along; the rest of the payload is what it was.
    out = tmp_path / "report.json"
    argv = [command, "--config", cfg_path, "--seed", "5", "--samples", "200", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload.pop("elapsed_s") > 0
    assert payload.pop("runs_per_s") > 0
    monkeypatch.setattr(cli_mod, "_timing", lambda runs, elapsed: {})
    assert main(argv) == 0
    assert json.loads(out.read_text()) == payload
