"""Ensemble generation, signal models, the sensing map, and binary round-trips."""

import math

import numpy as np
import pytest

from qconsist.bounds import min_measurements, predicted_eps
from qconsist.buffon import DumbbellConfig
from qconsist.experiments import ExperimentConfig
from qconsist.quantizer import QuantizedObservation, QuantizerSpec, l1_discrepancy
from qconsist.randkit import Stream, substream
from qconsist.reconstruct import qcs_enumerate
from qconsist.sensing import (
    SensingEnsemble,
    SignalModel,
    gen_ensemble,
    load_ensemble,
    sample_signal,
    save_ensemble,
    sense,
)

UNIT = QuantizerSpec(1.0)


def test_gen_ensemble_is_deterministic():
    a = gen_ensemble(2, 2, UNIT, 5)
    b = gen_ensemble(2, 2, UNIT, 5)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.xi, b.xi)
    c = gen_ensemble(2, 2, UNIT, 6)
    assert not np.array_equal(a.phi, c.phi)


def test_gen_ensemble_dither_range_and_dims():
    ens = gen_ensemble(200, 3, UNIT, 1)
    assert np.all((ens.xi >= 0.0) & (ens.xi < 1.0))
    with pytest.raises(ValueError):
        gen_ensemble(0, 3, UNIT, 1)
    with pytest.raises(ValueError):
        gen_ensemble(3, 0, UNIT, 1)


def test_column_norms_concentrate():
    ens = gen_ensemble(1000, 8, UNIT, 7)
    norms2 = (ens.phi**2).sum(axis=0) / 1000.0
    assert np.all(np.abs(norms2 - 1.0) < 0.2)


def test_signal_model_validation():
    with pytest.raises(ValueError):
        SignalModel(0)
    with pytest.raises(ValueError):
        SignalModel(4, 5)
    with pytest.raises(ValueError):
        SignalModel(4, 0)


def test_unit_ball_samples():
    model = SignalModel.unit_ball(1)
    xs = [sample_signal(model, Stream(seed)).x for seed in range(50)]
    assert all(-1.0 <= float(x[0]) <= 1.0 for x in xs)
    model3 = SignalModel.unit_ball(3)
    stream = Stream(11)
    norms = np.array([np.linalg.norm(sample_signal(model3, stream).x) for _ in range(100_000)])
    assert np.all(norms <= 1.0 + 1e-12)
    # E||x|| for the uniform ball is n/(n+1); var is n/(n+2) - (n/(n+1))^2.
    expected = 3.0 / 4.0
    var = 3.0 / 5.0 - expected**2
    assert abs(norms.mean() - expected) < 3.0 * math.sqrt(var / norms.size)


def test_sparse_ball_samples():
    model = SignalModel.sparse_ball(10, 2)
    stream = Stream(21)
    supports = []
    for _ in range(300):
        sig = sample_signal(model, stream)
        nz = np.flatnonzero(sig.x)
        assert nz.size <= 2
        assert np.linalg.norm(sig.x) <= 1.0 + 1e-12
        assert set(nz).issubset(set(sig.support.tolist()))
        supports.append(tuple(sig.support.tolist()))
    # support choice should spread over the 45 possible pairs
    assert len(set(supports)) > 30


def test_sense_matches_manual_quantization():
    ens = gen_ensemble(6, 3, UNIT, 3)
    zero_codes = sense(ens, np.zeros(3)).codes
    assert np.array_equal(zero_codes, np.floor(ens.xi / 1.0).astype(np.int64))
    sig = sample_signal(SignalModel.unit_ball(3), Stream(4))
    a = sense(ens, sig)
    b = sense(ens, sig)
    assert np.array_equal(a.codes, b.codes)
    assert l1_discrepancy(a, b) == 0
    with pytest.raises(ValueError):
        sense(ens, np.zeros(4))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        SensingEnsemble(phi=np.ones((2, 2)), xi=np.array([0.5, 1.5]), spec=UNIT, seed=0)
    with pytest.raises(ValueError):
        SensingEnsemble(phi=np.array([[np.inf, 0.0]]), xi=np.array([0.0]), spec=UNIT, seed=0)


def test_binary_round_trip(tmp_path):
    ens = gen_ensemble(5, 3, QuantizerSpec(0.25), 99)
    path = tmp_path / "ens.bin"
    save_ensemble(path, ens)
    back = load_ensemble(path)
    assert back.m == 5 and back.n == 3
    assert back.spec.delta == 0.25
    assert back.seed == 99
    assert np.array_equal(back.phi, ens.phi)
    assert np.array_equal(back.xi, ens.xi)


def test_binary_truncation_detected(tmp_path):
    ens = gen_ensemble(4, 2, UNIT, 1)
    path = tmp_path / "ens.bin"
    save_ensemble(path, ens)
    data = path.read_bytes()
    (tmp_path / "short.bin").write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_ensemble(tmp_path / "short.bin")


def test_rotational_invariance_smoke():
    # The mean code discrepancy between sense(x) and sense(0) over fresh
    # ensembles must match for x and for a rotated copy of x.
    n = 4
    m = 128
    draws = 400
    rng = np.random.default_rng(123)
    rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
    x = np.array([0.5, -0.3, 0.2, 0.55])
    x_rot = rotation @ x

    def mean_stat(point: np.ndarray, tag: int) -> tuple[float, float]:
        vals = np.zeros(draws)
        for i in range(draws):
            ens = gen_ensemble(m, n, UNIT, substream(tag, i).seed)
            vals[i] = l1_discrepancy(sense(ens, point), sense(ens, np.zeros(n))) / m
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))

    mean_a, se_a = mean_stat(x, 1000)
    mean_b, se_b = mean_stat(x_rot, 2000)
    assert abs(mean_a - mean_b) < 3.0 * math.hypot(se_a, se_b)


# Every entry point that takes a sparsity k, a resolution delta or a failure
# probability eta, called with everything else valid (n = 4).
_TAKES_K = {
    "SignalModel": lambda k: SignalModel(4, k),
    "ExperimentConfig": lambda k: ExperimentConfig(mode="qcs", n=4, k=k),
    "qcs_enumerate": lambda k: qcs_enumerate(gen_ensemble(8, 4, UNIT, 0), np.zeros(8), k),
    "min_measurements": lambda k: min_measurements(0.5, 0.1, 1.0, 4, k),
    "predicted_eps": lambda k: predicted_eps(10_000, 0.1, 1.0, 4, k),
}
_TAKES_DELTA = {
    "QuantizerSpec": QuantizerSpec,
    "QuantizedObservation": lambda delta: QuantizedObservation(np.zeros(3), delta),
    "ExperimentConfig": lambda delta: ExperimentConfig(mode="grfcq", n=4, delta=delta),
    "DumbbellConfig": lambda delta: DumbbellConfig(4, np.zeros(4), np.ones(4), 0.1, delta),
    "min_measurements": lambda delta: min_measurements(0.5, 0.1, delta, 4),
    "predicted_eps": lambda delta: predicted_eps(10_000, 0.1, delta, 4),
}
_TAKES_ETA = {
    "ExperimentConfig": lambda eta: ExperimentConfig(mode="grfcq", n=4, eta=eta),
    "min_measurements": lambda eta: min_measurements(0.5, eta, 1.0, 4),
    "predicted_eps": lambda eta: predicted_eps(10_000, eta, 1.0, 4),
}


@pytest.mark.parametrize(
    "entry, value",
    [pytest.param(call, k, id=f"{name}-k={k}") for name, call in _TAKES_K.items() for k in (0, 5)]
    + [
        pytest.param(call, delta, id=f"{name}-delta={delta}")
        for name, call in _TAKES_DELTA.items()
        for delta in (0.0, -1.0, math.inf, math.nan)
    ]
    + [
        pytest.param(call, eta, id=f"{name}-eta={eta}")
        for name, call in _TAKES_ETA.items()
        for eta in (0.0, 1.0, 1.5, math.nan)
    ],
)
def test_bad_sparsity_or_resolution_is_rejected_at_every_entry_point(entry, value):
    with pytest.raises(ValueError):
        entry(value)
    # the same entry point accepts a valid value
    entry(2 if isinstance(value, int) else 0.5)
