"""Experiment campaigns at reduced scale: records, fits, determinism, CSV."""

import math

import numpy as np
import pytest

from qconsist import _blas, buffon, experiments
from qconsist.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    FitError,
    bias_experiment,
    decay_sweep,
    fit_loglog,
    noise_power_check,
    proximity_violation_scan,
    write_records,
)
from qconsist.randkit import Stream


def small_cfg(**overrides):
    base = dict(
        mode="grfcq",
        n=4,
        m_list=(16, 32, 64),
        trials=6,
        directions=32,
        delta=1.0,
        seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_fit_loglog_exact_power_law():
    ms = (8, 16, 32, 64, 128)
    fit = fit_loglog([(m, 3.7 * m**-1.25) for m in ms])
    assert fit.slope == pytest.approx(-1.25, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_constant_data():
    fit = fit_loglog([(m, 2.0) for m in (8, 16, 32)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_synthetic_decay_shape():
    ms = [32 * 2**i for i in range(8)]  # 32 .. 4096
    fit = fit_loglog([(m, (8.0 / m) * math.log(m)) for m in ms])
    assert -1.0 < fit.slope < -0.8


def test_fit_loglog_rejects_degenerate_input():
    with pytest.raises(FitError):
        fit_loglog([(16, 1.0), (32, 0.5)])
    with pytest.raises(FitError):
        fit_loglog([(16, 1.0), (16, 0.9), (16, 0.8)])
    with pytest.raises(FitError):
        fit_loglog([(16, 1.0), (32, 0.0), (64, 0.5)])


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(m_list=(64, 32))
    with pytest.raises(ValueError, match="strictly ascending"):
        small_cfg(m_list=(16, 16, 32))
    with pytest.raises(ValueError):
        small_cfg(trials=0)
    with pytest.raises(ValueError):
        small_cfg(n=0)


def test_campaigns_reject_an_empty_m_list():
    campaigns = ((decay_sweep, "grfcq", None), (bias_experiment, "bias", 2), (noise_power_check, "noise", None))
    for campaign, mode, k in campaigns:
        with pytest.raises(ValueError, match="m_list must not be empty"):
            campaign(small_cfg(mode=mode, k=k, m_list=()))


def test_decay_sweep_record_layout_and_bounds():
    cfg = small_cfg()
    result = decay_sweep(cfg)
    assert len(result.records) == len(cfg.m_list) * cfg.trials
    keys = [(rec.m, rec.trial) for rec in result.records]
    assert keys == sorted(keys)
    assert all(0.0 <= rec.value <= 2.0 for rec in result.records)
    assert all(np.isfinite(rec.baseline) for rec in result.records)  # every M >= n here
    assert result.fit is not None


def test_decay_sweep_single_point_has_no_fit():
    result = decay_sweep(small_cfg(m_list=(32,), trials=1))
    assert len(result.records) == 1
    assert result.fit is None
    assert "fit_note" in result.summary


def test_decay_sweep_fits_a_single_trial_over_three_m_values():
    result = decay_sweep(small_cfg(trials=1))
    assert len(result.records) == 3
    assert result.fit is not None and "fit_note" not in result.summary


def test_decay_sweep_deterministic_across_threads():
    cfg = small_cfg()
    serial = decay_sweep(cfg, threads=1)
    threaded = decay_sweep(cfg, threads=4)
    for a, b in zip(serial.records, threaded.records):
        assert (a.m, a.trial, a.seed, a.value) == (b.m, b.trial, b.seed, b.value)
        assert a.baseline == b.baseline or (math.isnan(a.baseline) and math.isnan(b.baseline))


def test_relaxed_sweep_r_zero_matches_decay():
    plain = decay_sweep(small_cfg())
    relaxed = decay_sweep(small_cfg(mode="relaxed", r=0))
    for a, b in zip(plain.records, relaxed.records):
        assert a.value == b.value and a.seed == b.seed and a.baseline == b.baseline


def test_relaxed_sweep_monotone_and_bounded_ratio():
    results = {r: decay_sweep(small_cfg(mode="relaxed", r=r, trials=8)) for r in (0, 2, 4)}
    for r_small, r_big in ((0, 2), (2, 4)):
        for a, b in zip(results[r_small].records, results[r_big].records):
            assert b.value >= a.value * (1.0 - 1e-12)
    for row0, row4 in zip(results[0].summary["per_m"], results[4].summary["per_m"]):
        assert row4["median_width"] / row0["median_width"] < 8.0


def test_qcs_sweep_requires_k_and_restricts_support():
    with pytest.raises(ValueError):
        decay_sweep(small_cfg(mode="qcs"))
    result = decay_sweep(small_cfg(mode="qcs", n=12, k=2, m_list=(24, 48, 96)))
    assert result.fit is not None
    assert all(rec.k == 2 for rec in result.records)


def test_sparse_relaxed_overlay_matches_qcs():
    sizes = dict(n=32, k=3, m_list=(2048, 8192), trials=2, directions=8)
    qcs = decay_sweep(small_cfg(mode="qcs", **sizes))
    relaxed = decay_sweep(small_cfg(mode="relaxed", r=0, **sizes))
    predicted = [[row["predicted_eps"] for row in res.summary["per_m"]] for res in (qcs, relaxed)]
    assert predicted[0] == predicted[1]
    assert predicted[0][-1] < 0.1  # the sparse term, well below the unit-ball value


def test_bias_zero_offset_gives_zero_discrepancy():
    cfg = small_cfg(mode="bias", n=6, k=2, lam=0.0, m_list=(64, 128), trials=4)
    result = bias_experiment(cfg)
    assert all(rec.value == 0.0 for rec in result.records)
    assert all(rec.baseline == 0.0 for rec in result.records)


def test_bias_constant_distance_and_c_estimate():
    cfg = small_cfg(mode="bias", n=6, k=2, lam=0.25, m_list=(500, 1000), trials=30)
    result = bias_experiment(cfg)
    for rec in result.records:
        assert rec.baseline == pytest.approx(0.25, abs=1e-12)
    for row in result.per_m:
        assert 0.7 < row["c"] < 0.9  # E|g| = sqrt(2/pi) ~ 0.798
    assert result.summary["c_stability"] < 0.1


def test_bias_rejects_offsets_leaving_the_ball():
    with pytest.raises(ValueError, match="out of the unit ball"):
        bias_experiment(small_cfg(mode="bias", k=2, lam=1.2, m_list=(64,)))


def test_bias_needs_a_sparsity():
    # the offset moves a support coordinate; unit-ball signals have none
    with pytest.raises(ValueError, match="needs a sparsity k"):
        bias_experiment(small_cfg(mode="bias", m_list=(64,)))


def test_scan_trivial_epsilon_never_violates():
    cfg = ExperimentConfig(
        mode="scan", n=3, eps0=2.0, eta=0.1, delta=1.0, trials=4, signals=10, directions=16, seed=3
    )
    result = proximity_violation_scan(cfg)
    assert result.violation_rate == 0.0
    again = proximity_violation_scan(cfg)
    assert [rec.value for rec in result.records] == [rec.value for rec in again.records]


def test_noise_power_law_and_scaling():
    base = ExperimentConfig(mode="noise", n=6, m_list=(1000,), trials=300, delta=1.0, seed=9)
    result = noise_power_check(base)
    row = result.per_m[0]
    assert 0.985 < row["mean_ratio"] < 1.015
    assert row["p99_zeta"] < 10.0
    # quadrupling delta scales the mean power by 16 (ratio is scale-free)
    scaled = noise_power_check(
        ExperimentConfig(mode="noise", n=6, m_list=(1000,), trials=300, delta=4.0, seed=9)
    )
    mean_power = row["mean_ratio"] * 1000 / 12.0
    mean_power_scaled = scaled.per_m[0]["mean_ratio"] * 1000 * 16.0 / 12.0
    assert mean_power_scaled / mean_power == pytest.approx(16.0, rel=0.02)


def test_noise_power_law_holds_where_delta_squared_overflows():
    # delta**2 overflows above about 1.3e154; the law is scale-free
    result = noise_power_check(ExperimentConfig(mode="noise", n=6, m_list=(1000,), trials=300, delta=1e300, seed=9))
    row = result.per_m[0]
    assert 0.985 < row["mean_ratio"] < 1.015
    assert row["p99_zeta"] < 10.0


def test_csv_output_format(tmp_path):
    cfg = small_cfg(trials=2, m_list=(16, 32))
    result = decay_sweep(cfg)
    path = tmp_path / "records.csv"
    write_records(path, result.records)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.records)
    assert all(len(line.split(",")) == 10 for line in lines)


def test_csv_determinism_modulo_wall_time(tmp_path):
    cfg = small_cfg()
    for name, threads in (("a.csv", 1), ("b.csv", 3)):
        write_records(tmp_path / name, decay_sweep(cfg, threads=threads).records)

    def strip_wall(path):
        lines = (path.read_text(encoding="utf-8")).splitlines()
        return ["," .join(line.split(",")[:-1]) for line in lines]

    assert strip_wall(tmp_path / "a.csv") == strip_wall(tmp_path / "b.csv")


def openblas_or_skip():
    libraries = _blas.openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS is loaded")
    return libraries


def test_finder_returns_numpys_openblas_alone():
    # the runner tests below skip when the finder finds nothing; this one does not
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:
        pytest.skip("numpy < 1.26 cannot report its BLAS as a dict")
    import scipy.integrate  # noqa: F401  (loads scipy's own OpenBLAS as well)

    libraries = _blas.openblas_libraries.__wrapped__()  # a fresh lookup, not the cached one
    assert len(libraries) == (1 if "openblas" in blas.lower() else 0)
    assert all(get() >= 1 for get, _ in libraries)


@pytest.mark.parametrize("threads", [1, 2])
def test_runner_tasks_see_one_blas_thread(threads):
    libraries = openblas_or_skip()

    def measure(m, ens_seed, sig_seed):
        return float(max(get() for get, _ in libraries)), 0.0

    records, _ = experiments._run(small_cfg(trials=3), ("grfcq", 0, 0), measure, threads)
    assert [rec.value for rec in records] == [1.0] * 9


def test_dumbbell_estimate_sees_one_blas_thread(monkeypatch):
    libraries = openblas_or_skip()
    old = [get() for get, _ in libraries]
    seen = []

    def counting(fn):
        def call(*args):
            seen.append((fn.__name__, max(get() for get, _ in libraries)))
            return fn(*args)

        return call

    # the dumbbell products and the chi-mixture's one eigenvalue solve
    monkeypatch.setattr(buffon, "_events", counting(buffon._events))
    monkeypatch.setattr(buffon, "leggauss", counting(buffon.leggauss))
    buffon._mixture_rule.cache_clear()
    try:
        # two threads before the call, so restoring is not the same as pinning
        for _, put in libraries:
            put(2)
        p, q = np.zeros(3), np.array([1.0, 0.0, 0.0])
        cfg = buffon.DumbbellConfig(n=3, p=p, q=q, radius=buffon.dumbbell_radius(p, q, 3), delta=1.0)
        buffon.estimate_p1(cfg, 1000, Stream(5))
        buffon.verify_bound_chain(3, 1.0, 1000, Stream(6))
        assert seen == [("_events", 1), ("_events", 1), ("leggauss", 1)]
        assert [get() for get, _ in libraries] == [2] * len(libraries)
    finally:
        buffon._mixture_rule.cache_clear()
        for (_, put), count in zip(libraries, old):
            put(count)


def test_runner_restores_the_blas_thread_count():
    libraries = openblas_or_skip()
    old = [get() for get, _ in libraries]
    try:
        # two threads before the run, so restoring is not the same as pinning
        for _, put in libraries:
            put(2)

        def failing(m, ens_seed, sig_seed):
            raise RuntimeError("task failed")

        experiments._run(small_cfg(trials=1), ("grfcq", 0, 0), lambda *_: (0.0, 0.0), 1)
        assert [get() for get, _ in libraries] == [2] * len(libraries)
        with pytest.raises(RuntimeError, match="task failed"):
            experiments._run(small_cfg(trials=1), ("grfcq", 0, 0), failing, 2)
        assert [get() for get, _ in libraries] == [2] * len(libraries)
    finally:
        for (_, put), count in zip(libraries, old):
            put(count)


def test_runner_works_without_openblas(monkeypatch):
    cfg = small_cfg(trials=2)
    pinned = [rec.value for rec in decay_sweep(cfg).records]
    monkeypatch.setattr(_blas, "openblas_libraries", lambda: ())
    for threads in (1, 2):
        assert [rec.value for rec in decay_sweep(cfg, threads).records] == pinned
