"""Crossing-event logic, kappa bounds, quadrature vs closed forms and MC."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qconsist

from qconsist.buffon import (
    RADIUS_WEIGHT,
    DumbbellConfig,
    ProbEstimate,
    chi_pdf,
    conditional_integral,
    dumbbell_consistent_event,
    estimate_p1,
    estimate_p1_conditional,
    kappa,
    consistent_pair_bound,
    dumbbell_radius,
    mixture_p1,
    verify_bound_chain,
)
from qconsist.randkit import Stream, uniform


def segment_config(n: int, alpha: float, radius: float, delta: float = 1.0) -> DumbbellConfig:
    p = np.zeros(n)
    q = np.zeros(n)
    q[0] = alpha * delta
    return DumbbellConfig(n=n, p=p, q=q, radius=radius, delta=delta)


def test_kappa_anchors():
    assert kappa(2) == pytest.approx(1.0 / math.pi, abs=1e-12)
    assert kappa(3) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        kappa(1)


def test_kappa_two_sided_bounds():
    coeff = math.sqrt(2.0 / math.pi)
    for n in range(2, 201):
        ratio = 2.0 * kappa(n) / (n - 1)
        assert coeff / math.sqrt(n + 1) <= ratio <= coeff / math.sqrt(n - 1)


def test_dumbbell_radius_value_and_floor():
    p = np.zeros(3)
    q = np.array([1.0, 0.0, 0.0])
    assert dumbbell_radius(p, q, 3) == pytest.approx((1.0 - math.sqrt(2.0 / math.pi)) / 2.0, abs=1e-12)
    for n in range(2, 201):
        s = dumbbell_radius(np.zeros(n), np.eye(n)[0], n)
        assert s > 1.0 / (8.0 * math.sqrt(n))
    assert dumbbell_radius(2 * p, 2 * q, 3) == pytest.approx(2 * dumbbell_radius(p, q, 3), rel=1e-12)
    with pytest.raises(ValueError):
        dumbbell_radius(p, p, 3)


def test_consistent_pair_bound_values():
    assert consistent_pair_bound(1e-12, 1) == pytest.approx(1.0, abs=1e-9)
    assert consistent_pair_bound(1.0, 1) == 0.75
    assert consistent_pair_bound(2.0, 4) == 0.152587890625
    assert consistent_pair_bound(2.0, 4) == consistent_pair_bound(2.0, 1) ** 4
    # decreasing in both arguments
    assert consistent_pair_bound(2.0, 1) < consistent_pair_bound(1.0, 1)
    assert consistent_pair_bound(1.0, 5) < consistent_pair_bound(1.0, 2)


def test_event_trivial_cases():
    cfg = DumbbellConfig(n=2, p=np.array([0.3, 0.1]), q=np.array([0.3, 0.1]), radius=0.0, delta=1.0)
    for seed in range(10):
        phi = Stream(seed).rng.standard_normal(2)
        assert dumbbell_consistent_event(phi, 0.37, cfg)
    # one grid boundary strictly inside the gap: no consistent pair
    cfg = segment_config(2, 0.6, 0.0)
    assert not dumbbell_consistent_event(np.array([1.0, 0.0]), 0.7, cfg)
    # same geometry, dither shifted so the gap lies inside one cell
    assert dumbbell_consistent_event(np.array([1.0, 0.0]), 0.2, cfg)


def test_event_matches_dense_pair_search():
    # Oracle: quantize ~1e3 points per ball directly (radius rings including
    # the boundary) and look for a shared code.
    stream = Stream(808)
    grid_angles = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    grid_radii = np.linspace(0.0, 1.0, 25)
    offsets = np.stack(
        [
            np.outer(grid_radii, np.cos(grid_angles)).ravel(),
            np.outer(grid_radii, np.sin(grid_angles)).ravel(),
        ],
        axis=1,
    )
    for _ in range(50):
        p = 3.0 * stream.rng.standard_normal(2)
        q = 3.0 * stream.rng.standard_normal(2)
        radius = float(uniform(stream, 0.0, 1.0))
        delta = float(uniform(stream, 0.4, 1.5))
        cfg = DumbbellConfig(n=2, p=p, q=q, radius=radius, delta=delta)
        phi = stream.rng.standard_normal(2)
        xi = float(uniform(stream, 0.0, delta))
        codes_p = np.unique(np.floor((offsets * radius @ phi + p @ phi + xi) / delta))
        codes_q = np.unique(np.floor((offsets * radius @ phi + q @ phi + xi) / delta))
        oracle = bool(np.intersect1d(codes_p, codes_q).size)
        assert dumbbell_consistent_event(phi, xi, cfg) == oracle


def test_event_depends_only_on_projections():
    # Invariance under simultaneous rotation of (p, q, phi).
    stream = Stream(909)
    for _ in range(100):
        n = int(stream.rng.integers(2, 6))
        p = stream.rng.standard_normal(n)
        q = stream.rng.standard_normal(n)
        phi = stream.rng.standard_normal(n)
        xi = float(uniform(stream, 0.0, 1.0))
        radius = float(uniform(stream, 0.0, 0.5))
        cfg = DumbbellConfig(n=n, p=p, q=q, radius=radius, delta=1.0)
        rot, _ = np.linalg.qr(stream.rng.standard_normal((n, n)))
        cfg_rot = DumbbellConfig(n=n, p=rot @ p, q=rot @ q, radius=radius, delta=1.0)
        assert dumbbell_consistent_event(phi, xi, cfg) == dumbbell_consistent_event(rot @ phi, xi, cfg_rot)


def test_estimate_p1_certain_when_centers_coincide():
    cfg = DumbbellConfig(n=3, p=np.ones(3), q=np.ones(3), radius=0.1, delta=1.0)
    est = estimate_p1(cfg, 1000, Stream(1))
    assert est.p_hat == 1.0
    assert est.stderr == 0.0


def test_conditional_unit_norm_reduces_to_classic_needle():
    cfg = segment_config(2, 0.5, 0.0)
    est = estimate_p1_conditional(cfg, 200_000, Stream(2))
    target = 1.0 - 1.0 / math.pi
    assert abs(est.p_hat - target) < 0.005


def test_prob_estimate_stderr():
    est = ProbEstimate.from_hits(250, 1000)
    assert est.p_hat == 0.25
    assert est.stderr == pytest.approx(math.sqrt(0.25 * 0.75 / 1000), rel=1e-12)


def test_estimate_p1_below_bound_spot_checks():
    for n, alpha in ((2, 1.0), (4, 4.0)):
        p = np.zeros(n)
        q = np.zeros(n)
        q[0] = alpha
        cfg = DumbbellConfig(n=n, p=p, q=q, radius=dumbbell_radius(p, q, n), delta=1.0)
        est = estimate_p1(cfg, 30_000, Stream(100 + n))
        assert est.p_hat <= consistent_pair_bound(alpha, 1) + 3.0 * est.stderr


def test_estimate_p1_monotone_in_alpha():
    previous = 1.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        p = np.zeros(3)
        q = np.array([alpha, 0.0, 0.0])
        cfg = DumbbellConfig(n=3, p=p, q=q, radius=dumbbell_radius(p, q, 3), delta=1.0)
        est = estimate_p1(cfg, 40_000, Stream(int(alpha * 100)))
        assert est.p_hat <= previous + 3.0 * est.stderr
        previous = est.p_hat


def test_conditional_integral_trivial_regimes():
    assert conditional_integral(2.0, 1.0, 4) == 1.0
    assert conditional_integral(2.0, 1.5, 4) == 1.0
    assert conditional_integral(1e-9, 0.0, 4) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        conditional_integral(0.0, 0.5, 4)
    with pytest.raises(ValueError):
        conditional_integral(1.0, 0.5, 1)


def test_conditional_integral_matches_n3_closed_form():
    # For n = 3 the angular weight is flat and the integral has the closed
    # form 1 - a*[(1-rho)^2 - (1-rho-1/a)_+^2]/2  (with 2*kappa_3 = 1).
    for a in (0.3, 0.9, 1.7, 4.2):
        for rho in (0.0, 0.2, 0.55, 0.9):
            f_one = max(1.0 - rho, 0.0) ** 2 - max(1.0 - rho - 1.0 / a, 0.0) ** 2
            closed = 1.0 - a * f_one / 2.0
            assert conditional_integral(a, rho, 3) == pytest.approx(closed, abs=1e-8)


def test_conditional_integral_matches_stratified_mc():
    # Fixed projector norms: quadrature vs direct MC of the conditional event.
    alpha = 1.0
    rho = RADIUS_WEIGHT / (2.0 * kappa(2))
    radius = rho * alpha / 2.0
    cfg = segment_config(2, alpha, radius)
    for i, norm in enumerate((0.5, 1.0, 2.0, 3.0)):
        est = estimate_p1_conditional(cfg, 100_000, Stream(50 + i), phi_norm=norm)
        exact = conditional_integral(alpha * norm, rho, 2)
        assert abs(est.p_hat - exact) < 4.0 * max(est.stderr, 1e-4)


def test_mixture_matches_gaussian_mc():
    alpha = 1.0
    n = 2
    rho = RADIUS_WEIGHT / (2.0 * kappa(n))
    radius = rho * alpha / 2.0
    cfg = segment_config(n, alpha, radius)
    est = estimate_p1(cfg, 200_000, Stream(77))
    mix = mixture_p1(alpha, rho, n)
    assert abs(est.p_hat - mix) < 4.0 * est.stderr


def test_chi_pdf_normalizes():
    grid = np.linspace(0.0, 40.0, 400_001)
    for n in (2, 5, 11):
        mass = np.trapezoid(chi_pdf(grid, n), grid)
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_bound_chain_tiny_alpha_is_trivial():
    report = verify_bound_chain(3, 0.01, 20_000, Stream(5))
    assert report.ok
    assert report.p_hat > 0.99
    assert report.mixture > 0.99
    assert report.bound > 0.99


def test_bound_chain_holds_at_moderate_alpha():
    report = verify_bound_chain(4, 2.0, 100_000, Stream(6))
    assert report.ok
    assert report.p_hat <= report.mixture + 3.0 * report.stderr
    assert report.mixture <= report.jensen_bound + 1e-9
    assert report.jensen_bound <= report.bound + 1e-12


def test_import_leaves_scipy_integrate_unloaded():
    # only the quadrature needs scipy.integrate, and it dominates import time
    src = str(Path(qconsist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qconsist; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
