"""CLI contract: dispatch, exit codes, config files, output channels."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qconsist
from qconsist.bounds import min_measurements, predicted_eps
from qconsist.cli import main
from qconsist.experiments import CSV_HEADER
from qconsist.sensing import load_ensemble


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_prints_the_formula_value(capsys):
    code, out, err = run_cli(capsys, "bounds", "--mode", "grfcq", "--n", "4", "--eps0", "0.5", "--eta", "0.1", "--delta", "1")
    assert code == 0
    assert int(out.strip()) == min_measurements(0.5, 0.1, 1.0, 4)
    assert err == ""


def test_bounds_other_modes(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--mode", "covering", "--s", "1.5", "--n", "3")
    assert code == 0 and float(out.strip()) == 8.0
    code, out, _ = run_cli(capsys, "bounds", "--mode", "rho", "--rho", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["rho", "rho_bar", "c_rho", "d_rho"]
    assert 4.17 < payload["c_rho"] < 4.2
    code, out, _ = run_cli(capsys, "bounds", "--mode", "qcs", "--n", "32", "--k", "3")
    assert code == 0 and int(out.strip()) > 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--mode", "relaxed-grfcq", "--r", "2"), lambda: min_measurements(0.5, 0.1, 1.0, 8, r=2)),
        (("--mode", "relaxed-qcs", "--k", "3", "--r", "2"), lambda: min_measurements(0.5, 0.1, 1.0, 8, 3, 2)),
        (("--mode", "predicted-eps", "--m", "10000"), lambda: predicted_eps(10_000, 0.1, 1.0, 8)),
        (("--mode", "predicted-eps", "--m", "10000", "--k", "3"), lambda: predicted_eps(10_000, 0.1, 1.0, 8, 3)),
    ],
)
def test_bounds_mode_prints_the_library_value(capsys, argv, expected):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert (code, out, err) == (0, f"{expected()}\n", "")


def test_unknown_subcommand_exits_one(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()
    assert out == ""


def test_missing_required_flag_value_exits_one(capsys):
    code, _, err = run_cli(capsys, "bounds", "--mode", "qcs", "--n", "8")  # --k missing
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, flag",
    [(("bounds", "--mode", "grfcq", "--n", "4", "--out", "x.txt"), "--out"), (("sense", "--threads", "2"), "--threads")],
)
def test_flag_a_subcommand_does_not_read_exits_one(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag}" in err
    assert not (tmp_path / "x.txt").exists()


def test_bad_numeric_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "decay", "--trials", "many")
    assert code == 1
    assert "invalid value" in err


def test_repeated_m_values_exit_one(tmp_path, capsys):
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli(
        capsys, "decay", "--n", "3", "--m-list", "8,8,16,32", "--trials", "2", "--directions", "8",
        "--out", str(out_csv),
    )
    assert code == 1
    assert "strictly ascending" in err
    assert out == "" and not out_csv.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--m-list" in out and "default" in out


def test_python_m_qconsist_runs_the_command():
    src = str(Path(qconsist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "qconsist", "check", "--help"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert "--full" in out.stdout


def test_sense_emits_codes_and_dumps_ensemble(tmp_path, capsys):
    dump = tmp_path / "ens.bin"
    code, out, err = run_cli(
        capsys, "sense", "--n", "3", "--m", "6", "--seed", "9", "--dump-ensemble", str(dump)
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["codes"]) == 6
    assert len(payload["x"]) == 3
    ens = load_ensemble(dump)
    assert ens.m == 6 and ens.n == 3
    assert "ensemble written" in err


def test_reconstruct_reports_consistency(capsys):
    code, out, _ = run_cli(capsys, "reconstruct", "--n", "4", "--m", "32", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["error"] < 1.0
    assert "baseline_error" in payload


def test_reconstruct_k_honours_max_iter(capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--n", "10", "--m", "40", "--k", "2", "--seed", "3", "--max-iter", "1")
    assert code == 1 and out == ""
    assert "max_iter=1" in err


def test_tiny_delta_hits_the_code_guard(capsys):
    code, out, err = run_cli(capsys, "sense", "--delta", "1e-300")
    assert code == 1 and out == ""
    assert err == "qconsist: error: input magnitude exceeds the 2**62 code guard; refusing to wrap\n"


def test_config_file_merging_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# tiny sweep\n"
        "n = 4\n"
        "m_list = 16,32,64\n"
        "trials = 3\n"
        "directions = 16\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "a.csv"
    code, out, err = run_cli(
        capsys, "decay", "--config", str(cfg), "--seed", "7", "--out", str(out_a), "--threads", "1"
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["n"] == 4
    assert summary["trials"] == 3
    assert "records written" in err
    # flag overrides the config value
    out_b = tmp_path / "b.csv"
    code, out, _ = run_cli(
        capsys, "decay", "--config", str(cfg), "--trials", "2", "--seed", "7", "--out", str(out_b)
    )
    assert code == 0
    assert json.loads(out)["trials"] == 2


def test_decay_reruns_are_identical_modulo_wall_time(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 4\nm_list = 16,32,64\ntrials = 3\ndirections = 16\n", encoding="utf-8")

    def run(path, threads):
        code, _, _ = run_cli(
            capsys, "decay", "--config", str(cfg), "--seed", "7", "--out", str(path), "--threads", str(threads)
        )
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert run(tmp_path / "r1.csv", 1) == run(tmp_path / "r2.csv", 2)


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("frobs = 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "decay", "--config", str(cfg))
    assert code == 1
    assert "unknown key" in err


def test_malformed_config_line_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("trials 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "decay", "--config", str(cfg))
    assert code == 1
    assert "expected" in err


def test_buffon_subcommand_reports_chain(capsys):
    code, out, _ = run_cli(capsys, "buffon", "--n", "3", "--alpha", "2", "--throws", "20000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["n", "alpha", "radius", "p_hat", "stderr", "mixture", "jensen_bound", "bound", "ok"]
    assert payload["ok"] is True
    assert payload["p_hat"] <= payload["bound"] + 3 * payload["stderr"]


def test_noise_subcommand(tmp_path, capsys):
    out_csv = tmp_path / "noise.csv"
    code, out, _ = run_cli(
        capsys, "noise", "--n", "4", "--m-list", "256", "--trials", "40", "--out", str(out_csv)
    )
    assert code == 0
    assert out_csv.exists()
    summary = json.loads(out)
    assert 0.9 < summary["per_m"][0]["mean_ratio"] < 1.1


@pytest.mark.parametrize(
    "command, extra, mode",
    [
        ("decay", ["--directions", "8"], "grfcq"),
        ("decay", ["--directions", "8", "--k", "2"], "qcs"),
        ("relaxed", ["--directions", "8", "--r", "1"], "relaxed"),
        ("bias", [], "bias"),
        ("noise", [], "noise"),
    ],
)
def test_sweep_subcommands_write_records_and_summary(tmp_path, capsys, command, extra, mode):
    out_csv = tmp_path / "out.csv"
    m_list, trials = (16, 32), 2
    code, out, err = run_cli(
        capsys, command, "--n", "4", "--m-list", ",".join(map(str, m_list)), "--trials", str(trials),
        "--seed", "3", "--threads", "1", "--out", str(out_csv), *extra,
    )
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    rows = lines[1:]
    assert len(rows) == len(m_list) * trials
    assert all(row.split(",")[0] == mode for row in rows)
    assert "per_m" in json.loads(out)
    assert "records written" in err


def test_check_quick_passes_and_writes_artifacts(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "check", "--quick", "--seed", "0", "--out", str(tmp_path / "artifacts"), "--threads", "2"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("C")]
    assert len(lines) == 13
    assert all(" PASS " in line for line in lines)
    assert "13/13" in out
    assert (tmp_path / "artifacts" / "grfcq_decay.csv").exists()
    assert "criterion" in err  # progress goes to stderr


def test_check_quick_artifacts_identical_across_reruns(tmp_path, capsys):
    # Same seed, different thread counts: every CSV artifact byte-identical
    # once the wall-time column is stripped.
    def artifacts(name, threads):
        out_dir = tmp_path / name
        code, _, _ = run_cli(
            capsys, "check", "--quick", "--seed", "3", "--out", str(out_dir), "--threads", str(threads)
        )
        assert code == 0
        stripped = {}
        for path in sorted(out_dir.glob("*.csv")):
            lines = path.read_text(encoding="utf-8").splitlines()
            stripped[path.name] = ["," .join(line.split(",")[:-1]) for line in lines]
        return stripped

    first = artifacts("one", 1)
    second = artifacts("two", 3)
    assert first.keys() == second.keys() and len(first) >= 7
    assert first == second


def test_check_maps_failures_to_exit_two(monkeypatch, capsys):
    from qconsist import acceptance

    def fake_run_all(tier, master=0, out_dir=None, threads=1, progress=None):
        return [acceptance.CriterionResult(1, "stub", False, "forced failure", 0.0)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    code, out, _ = run_cli(capsys, "check", "--quick")
    assert code == 2
    assert "FAIL" in out
