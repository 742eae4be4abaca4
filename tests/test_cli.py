"""CLI contract: dispatch, exit codes, config files, output channels."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qconsist
from qconsist.bounds import min_measurements, predicted_eps
from qconsist import cli
from qconsist.cli import main
from qconsist.experiments import CSV_HEADER
from qconsist.sensing import load_ensemble


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_prints_the_formula_value(capsys):
    # count is the default mode
    code, out, err = run_cli(capsys, "bounds", "--n", "4", "--eps0", "0.5", "--eta", "0.1", "--delta", "1")
    assert code == 0
    assert int(out.strip()) == min_measurements(0.5, 0.1, 1.0, 4) == 207
    assert err == ""


def test_bounds_rejects_the_removed_count_modes(capsys):
    code, out, err = run_cli(capsys, "bounds", "--mode", "grfcq")
    assert (code, out, err) == (1, "", "qconsist: error: unknown bounds mode 'grfcq'\n")


def test_bounds_other_modes(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--mode", "covering", "--s", "1.5", "--n", "3")
    assert code == 0 and float(out.strip()) == 8.0
    code, out, _ = run_cli(capsys, "bounds", "--mode", "rho", "--rho", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["rho", "rho_bar", "c_rho", "d_rho"]
    assert 4.17 < payload["c_rho"] < 4.2
    code, out, _ = run_cli(capsys, "bounds", "--mode", "count", "--n", "32", "--k", "3")
    assert code == 0 and int(out.strip()) > 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("--mode", "count", "--r", "2"), lambda: min_measurements(0.5, 0.1, 1.0, 8, r=2)),
        (("--mode", "count", "--k", "3", "--r", "2"), lambda: min_measurements(0.5, 0.1, 1.0, 8, 3, 2)),
        (("--n", "32", "--k", "3", "--r", "2"), lambda: min_measurements(0.5, 0.1, 1.0, 32, 3, 2)),
        # r far above the r = 0 count: the least m >= r that solves the inequality
        (("--n", "8", "--r", "2000"), lambda: 100830),
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
    code, _, err = run_cli(capsys, "bounds", "--mode", "predicted-eps", "--n", "8")  # --m missing
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, flag",
    [(("bounds", "--mode", "count", "--n", "4", "--out", "x.txt"), "--out"), (("sense", "--threads", "2"), "--threads")],
)
def test_flag_a_subcommand_does_not_read_exits_one(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag}" in err
    assert not (tmp_path / "x.txt").exists()


def test_unrecognized_flag_shows_the_subcommand_usage(capsys):
    code, out, err = run_cli(capsys, "bounds", "--mode", "count", "--out", "x.txt")
    assert (code, out) == (1, "")
    assert err.startswith("usage: qconsist bounds")
    assert "--out" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--mode", "count", "--eps0", "1e-320"),
        ("--mode", "covering", "--s", "1e-300", "--n", "1000"),
        ("--mode", "predicted-eps", "--m", "1" + "0" * 400),
    ],
)
def test_bounds_overflow_is_a_one_line_error(capsys, argv):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("qconsist: error: ") and err.count("\n") == 1


def test_failed_allocation_is_a_one_line_error(capsys):
    # 20e12 x 8 doubles is about 1.1 PiB, beyond any 47-bit user address
    # space, so the allocation fails at once even under memory overcommit
    code, out, err = run_cli(capsys, "sense", "--m", "20000000000000", "--n", "8")
    assert (code, out) == (1, "")
    assert err.startswith("qconsist: error: ") and err.count("\n") == 1


# normal, subnormal, huge-integer and non-finite flag values
_BOUNDS_VALUES = st.one_of(
    st.sampled_from(
        ["1", "3", "8", "0.1", "0.5", "1.5", "-1", "1e-300", "1e-320", "5e-324", "1e308", "inf", "-inf", "nan"]
    ),
    st.sampled_from(["1" + "0" * 35, "1" + "0" * 400]),
    st.integers(-10, 10**40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@settings(max_examples=300)
@given(
    mode=st.sampled_from(["count", "rho", "covering", "predicted-eps"]),
    flags=st.dictionaries(st.sampled_from(["eps0", "eta", "delta", "n", "k", "r", "m", "rho", "s"]), _BOUNDS_VALUES),
)
def test_bounds_never_raises(mode, flags):
    argv = ["bounds", "--mode", mode]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1)


def test_bad_numeric_flag_exits_one(capsys):
    code, out, err = run_cli(capsys, "decay", "--trials", "many")
    assert (code, out) == (1, "")
    assert err.startswith("usage: qconsist decay")
    assert err.splitlines()[-1] == "qconsist: error: argument --trials: invalid int value: 'many'"


def test_repeated_m_values_exit_one(tmp_path, capsys):
    out_csv = tmp_path / "decay.csv"
    code, out, err = run_cli(
        capsys, "decay", "--n", "3", "--m-list", "8,8,16,32", "--trials", "2", "--directions", "8",
        "--out", str(out_csv),
    )
    assert code == 1
    assert "strictly ascending" in err
    assert out == "" and not out_csv.exists()


@pytest.mark.parametrize("command", ["decay", "relaxed", "bias", "noise"])
@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_exits_one_before_the_campaign(tmp_path, monkeypatch, capsys, command, target):
    def campaign(cfg, threads):
        raise AssertionError("the campaign ran")

    monkeypatch.setitem(cli._SWEEPS, command, (campaign, cli._SWEEPS[command][1]))
    out_path = tmp_path / target
    code, out, err = run_cli(capsys, command, "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == f"qconsist: error: --out {out_path} is not a file in a writable directory\n"
    assert list(tmp_path.iterdir()) == []


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


def test_reconstruct_k_reports_an_undecided_support(capsys):
    # at --tol 0.3 one support is neither verified nor certified infeasible
    code, out, err = run_cli(capsys, "reconstruct", "--n", "10", "--m", "40", "--k", "2", "--seed", "3", "--tol", "0.3")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "1 undecided" in err and "max_iter" not in err


def test_reconstruct_has_no_step_cap(tmp_path, capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--max-iter", "100000")
    assert code == 1 and out == "" and "unrecognized arguments: --max-iter 100000" in err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_iter = 100000\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "reconstruct", "--config", str(cfg))
    assert code == 1 and out == "" and "unknown key 'max_iter'" in err


def test_reconstruct_k_certifies_the_supports_before_the_true_one(capsys):
    # Every infeasible support before the consistent one is certified, and
    # the true support verifies after 4 Newton steps.
    code, out, err = run_cli(capsys, "reconstruct", "--n", "10", "--m", "40", "--k", "2", "--seed", "3")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["consistent"] is True and payload["iterations"] == 4


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


_CAMPAIGN = {"seed": 0, "threads": os.cpu_count() or 1}
_WIDTH = {"n": 8, "k": None, "m_list": (32, 64, 128, 256, 512, 1024), "trials": 50, "directions": 512,
          "delta": 1.0, "eta": 0.1}
# Every subcommand's flags and config keys with their defaults, as released;
# none may be dropped, added or given another default.
_RELEASED = {
    "sense": {"seed": 0, "out": None, "n": 8, "m": 64, "k": None, "delta": 1.0, "dump_ensemble": None},
    "reconstruct": {"seed": 0, "out": None, "n": 8, "m": 64, "k": None, "delta": 1.0, "tol": None},
    "decay": {**_CAMPAIGN, "out": "decay.csv", **_WIDTH},
    "relaxed": {**_CAMPAIGN, "out": "relaxed.csv", **_WIDTH, "r": 2},
    "bias": {**_CAMPAIGN, "out": "bias.csv", "n": 8, "k": 2, "lam": 0.25, "m_list": (1000, 10000), "trials": 200,
             "delta": 1.0},
    "buffon": {"seed": 0, "out": None, "n": 4, "alpha": 2.0, "throws": 100_000},
    "bounds": {"mode": "count", "eps0": 0.5, "eta": 0.1, "delta": 1.0, "n": 8, "k": None, "r": 0, "m": None,
               "rho": 0.1, "s": 1.5},
    "noise": {**_CAMPAIGN, "out": "noise.csv", "n": 8, "m_list": (1000,), "trials": 1000, "delta": 1.0},
    "check": {**_CAMPAIGN, "out": "check-artifacts"},
}
# option -> (two valid raw values, a value its type rejects or None for strings)
_SAMPLES = {
    "seed": ("7", "8", "seven"), "threads": ("3", "4", "1.5"), "out": ("a.csv", "b.csv", None),
    "mode": ("rho", "covering", None), "eps0": ("0.25", "0.125", "half"), "eta": ("0.2", "0.3", "0,2"),
    "n": ("5", "6", "5.0"), "m": ("33", "34", "1e3"), "k": ("3", "1", "three"), "r": ("1", "3", "one"),
    "m_list": ("16,32", "8,64,128", "16;32"), "trials": ("4", "5", "many"), "directions": ("9", "10", "0x10"),
    "delta": ("0.5", "0.75", "1/2"), "lam": ("0.125", "-0.25", "quarter"), "tol": ("1e-6", "1e-5", "tiny"),
    "dump_ensemble": ("e.bin", "f.bin", None), "alpha": ("3.5", "4", "far"),
    "throws": ("1000", "2000", "1e3"), "rho": ("0.2", "0.3", "rho"), "s": ("2.5", "1", "s"),
}


def test_the_released_options_are_exactly_the_option_table():
    assert {name: defaults for name, (_, defaults) in cli._COMMANDS.items()} == _RELEASED
    assert {option for defaults in _RELEASED.values() for option in defaults} == set(cli._OPTIONS) == set(_SAMPLES)


@pytest.mark.parametrize(
    "command, option", [(command, option) for command, defaults in _RELEASED.items() for option in defaults]
)
def test_every_option_reads_alike_from_flag_and_config(tmp_path, monkeypatch, capsys, command, option):
    flag = "--" + option.replace("_", "-")
    first, second, bad = _SAMPLES[option]
    cfg = tmp_path / "c.cfg"

    def parsed(*argv):
        seen = {}
        monkeypatch.setitem(cli._HANDLERS, command, lambda opts: seen.update(opts) or 0)
        assert main([command, *argv]) == 0
        return seen[option]

    cfg.write_text(f"{option} = {first}\n", encoding="utf-8")
    from_flag = parsed(flag, first)
    assert parsed("--config", str(cfg)) == from_flag != _RELEASED[command][option]
    assert parsed("--config", str(cfg), flag, second) == parsed(flag, second) != from_flag

    monkeypatch.setenv("COLUMNS", "1000")  # one help entry, one line
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"{flag} {option.upper()} {cli._OPTIONS[option][1]} (default: {_RELEASED[command][option]})" in " ".join(
        capsys.readouterr().out.split()
    )

    if bad is not None:
        cfg.write_text(f"{option} = {bad}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        errors = [line for line in err.splitlines() if line.startswith("qconsist: error:")]
        assert len(errors) == 1 and f"argument {flag}: invalid " in errors[0] and errors[0].endswith(f" value: {bad!r}")


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
    assert list(payload) == [
        "n", "alpha", "radius", "p_hat", "stderr", "mixture", "jensen_bound", "bound", "ok",
        "failed_step", "mixture_under_bound",
    ]
    assert payload["ok"] is True
    assert payload["p_hat"] <= payload["bound"] + 3 * payload["stderr"]


def test_buffon_names_the_failed_step_and_checks_the_mixture_against_the_bound(capsys):
    # at n = 2 the concavity step fails from alpha ~ 512 on; the end bound holds
    code, out, _ = run_cli(capsys, "buffon", "--n", "2", "--alpha", "1000", "--throws", "200000", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is False and payload["failed_step"] == "concavity"
    assert payload["mixture_under_bound"] is True
    assert round(payload["mixture"], 4) == 0.2061 and round(payload["bound"], 4) == 0.2515


def test_buffon_at_huge_alpha_stops_at_the_code_guard(capsys):
    # the centre distance itself must not overflow on the way there
    code, out, err = run_cli(capsys, "buffon", "--alpha", "1e300", "--throws", "50")
    assert (code, out) == (1, "")
    assert err.splitlines()[1:] == ["qconsist: error: input magnitude exceeds the 2**62 code guard; refusing to wrap"]


def test_decay_rejects_eta_outside_the_unit_interval(capsys):
    code, out, err = run_cli(capsys, "decay", "--eta", "1.5", "--n", "3", "--m-list", "8,16,32", "--trials", "1")
    assert (code, out, err) == (1, "", "qconsist: error: eta must lie in (0, 1), got 1.5\n")


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
