"""Quantizer laws: exact code arithmetic, the dithered error law, metric checks."""

import math

import numpy as np
import pytest

from qconsist.quantizer import (
    IncompatibleObservationsError,
    QuantizedObservation,
    QuantizerSpec,
    decode,
    encode,
    l1_discrepancy,
    quantization_error,
    sense_quantize,
)
from qconsist.randkit import Stream, uniform

UNIT = QuantizerSpec(1.0)
HALF = QuantizerSpec(0.5)


def test_encode_examples():
    assert encode(0.3, UNIT) == 0
    assert encode(-0.2, UNIT) == -1
    assert encode(2.0, HALF) == 4


def test_decode_examples():
    assert decode(0, UNIT) == 0.5
    assert decode(-1, UNIT) == -0.5
    assert decode(4, HALF) == 2.25


def test_boundary_goes_to_upper_cell():
    assert encode(0.0, UNIT) == 0
    assert encode(1.0, UNIT) == 1
    assert encode(-1.0, UNIT) == -1


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode(float("nan"), UNIT)
    with pytest.raises(ValueError):
        encode(float("inf"), UNIT)
    with pytest.raises(ValueError):
        encode(2.0**63, UNIT)
    with pytest.raises(ValueError):
        QuantizerSpec(0.0)
    with pytest.raises(ValueError):
        QuantizerSpec(-1.0)


def test_code_guard_at_two_to_the_62():
    below = np.nextafter(2.0**62, 0.0)
    assert encode(below, UNIT) == int(below)
    assert encode(-below, UNIT) == -int(below)
    for edge in (2.0**62, -(2.0**62)):
        with pytest.raises(ValueError, match=r"2\*\*62 code guard"):
            encode(edge, UNIT)


def test_sense_quantize_examples():
    obs = sense_quantize(np.array([0.0, 0.0]), np.array([0.0, 0.0]), UNIT)
    assert obs.codes.tolist() == [0, 0]
    obs = sense_quantize(np.array([0.6]), np.array([0.5]), UNIT)
    assert obs.codes.tolist() == [1]
    with pytest.raises(ValueError):
        sense_quantize(np.array([0.0, 0.0]), np.array([0.0]), UNIT)
    with pytest.raises(ValueError):
        sense_quantize(np.array([0.0]), np.array([1.5]), UNIT)  # dither outside [0, delta)


def test_decoded_midpoints_and_error_range():
    stream = Stream(8)
    n = 100_000
    delta = 0.3
    spec = QuantizerSpec(delta)
    y = 20.0 * (uniform(stream, 0.0, 1.0, n) - 0.5)
    xi = uniform(stream, 0.0, delta, n)
    err = quantization_error(y, xi, spec)
    assert np.all(err > -delta / 2.0)
    assert np.all(err <= delta / 2.0)


def test_error_boundary_case_attains_plus_half():
    err = quantization_error(np.array([0.0]), np.array([0.0]), UNIT)
    assert err[0] == 0.5
    err = quantization_error(np.array([0.25]), np.array([0.0]), UNIT)
    assert err[0] == 0.25


def test_shift_covariance_and_monotonicity_sweep():
    stream = Stream(99)
    fails_cov = 0
    fails_mono = 0
    for _ in range(16):
        delta = float(uniform(stream, 0.05, 5.0))
        spec = QuantizerSpec(delta)
        lam = uniform(stream, -100.0, 100.0, 6250)
        k = stream.rng.integers(-500, 501, size=6250)
        shifted = np.floor((lam + k * delta) / delta).astype(np.int64)
        base = np.floor(lam / delta).astype(np.int64)
        fails_cov += int(np.sum(shifted != base + k))
        mu = lam + uniform(stream, 0.0, 40.0, 6250)
        fails_mono += int(np.sum(base > np.floor(mu / delta).astype(np.int64)))
        # spot-check the scalar entry point against the vector sweep
        assert encode(float(lam[0]) + int(k[0]) * delta, spec) == encode(float(lam[0]), spec) + int(k[0])
    assert fails_cov == 0
    assert fails_mono == 0


def test_scalar_discrepancy_counts_grid_points():
    # Independent oracle: count grid multiples of delta inside (u + xi, v + xi]
    # by direct comparison against an enumerated grid window.
    stream = Stream(4242)
    for _ in range(500):
        delta = float(uniform(stream, 0.1, 2.0))
        spec = QuantizerSpec(delta)
        u, v = np.sort(uniform(stream, -40.0, 40.0, 2))
        xi = float(uniform(stream, 0.0, delta))
        a = sense_quantize(np.array([u]), np.array([xi]), spec)
        b = sense_quantize(np.array([v]), np.array([xi]), spec)
        lo = math.floor((u + xi) / delta) - 2
        hi = math.floor((v + xi) / delta) + 3
        grid = delta * np.arange(lo, hi)
        oracle = int(np.sum((grid > u + xi) & (grid <= v + xi)))
        assert l1_discrepancy(a, b) == oracle


def test_discrepancy_examples_and_errors():
    a = QuantizedObservation(np.array([0, 2]), 1.0)
    b = QuantizedObservation(np.array([1, 0]), 1.0)
    assert l1_discrepancy(a, a) == 0
    assert l1_discrepancy(a, b) == 3
    with pytest.raises(IncompatibleObservationsError):
        l1_discrepancy(a, QuantizedObservation(np.array([0, 2]), 0.5))
    with pytest.raises(IncompatibleObservationsError):
        l1_discrepancy(a, QuantizedObservation(np.array([0, 2, 1]), 1.0))


def test_discrepancy_is_a_metric_on_matching_observations():
    stream = Stream(17)
    for _ in range(200):
        codes = stream.rng.integers(-50, 50, size=(3, 8))
        a, b, c = (QuantizedObservation(row, 1.0) for row in codes)
        dab = l1_discrepancy(a, b)
        dbc = l1_discrepancy(b, c)
        dac = l1_discrepancy(a, c)
        assert dab >= 0
        assert dab == l1_discrepancy(b, a)
        assert dac <= dab + dbc
        assert l1_discrepancy(a, a) == 0


def test_dithered_error_law_moments_and_ks():
    n = 1_000_000
    delta = 1.0
    stream = Stream(314)
    y = 5.0 * stream.rng.standard_normal(n)
    xi = uniform(stream, 0.0, delta, n)
    err = quantization_error(y, xi, QuantizerSpec(delta))
    assert abs(err.mean()) < 3.0 * (delta / math.sqrt(12.0)) / math.sqrt(n)
    assert abs(err.var() / (delta**2 / 12.0) - 1.0) < 0.01
    # Kolmogorov-Smirnov statistic against U[-delta/2, delta/2]
    sorted_err = np.sort(err)
    cdf = (sorted_err + delta / 2.0) / delta
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(empirical_hi - cdf)), np.max(np.abs(empirical_lo - cdf)))
    assert ks < 0.002


def test_error_independent_of_signal_level():
    # Same dither stream, wildly different y: the error law must not move.
    n = 200_000
    delta = 0.25
    spec = QuantizerSpec(delta)
    xi = uniform(Stream(12), 0.0, delta, n)
    small = quantization_error(np.full(n, 0.01), xi, spec)
    large = quantization_error(np.full(n, 987.0), xi, spec)
    assert abs(small.var() - large.var()) < 0.01 * delta**2 / 12.0
    assert abs(small.mean() - large.mean()) < 4.0 * delta / math.sqrt(12.0 * n)
