"""Crossing-event logic, kappa bounds, closed forms vs quadrature and MC."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

import qconsist

from qconsist.buffon import (
    RADIUS_WEIGHT,
    DumbbellConfig,
    ProbEstimate,
    chi_mean,
    chi_pdf,
    conditional_integral,
    dumbbell_consistent_event,
    estimate_p1,
    kappa,
    consistent_pair_bound,
    dumbbell_radius,
    mixture_p1,
    verify_bound_chain,
)
from qconsist.cli import main
from qconsist.randkit import Stream, uniform


def quad_conditional_integral(a: float, rho_ratio: float, n: int) -> float:
    """Oracle: the fixed-norm probability by adaptive quadrature.

    The substitution v = sin(u) removes the endpoint singularity of the
    n = 2 weight, mapping the integrand to cos(u)^(n-2) * f(sin(u)) on
    [0, pi/2]; the kinks of f are passed to quad as break points.
    """
    if rho_ratio >= 1.0:
        return 1.0
    upper = rho_ratio + 1.0 / a

    def integrand(u: float) -> float:
        v = math.sin(u)
        f = max(v - rho_ratio, 0.0) - max(v - upper, 0.0)
        return math.cos(u) ** (n - 2) * f

    kinks = [math.asin(v) for v in (rho_ratio, upper) if 0.0 < v < 1.0]
    value, _ = quad(
        integrand, 0.0, math.pi / 2.0, points=kinks or None, epsabs=1e-13, epsrel=1e-10, limit=200
    )
    return 1.0 - 2.0 * kappa(n) * a * value


def quad_capped_conditional(a: float, rho_ratio: float, n: int) -> float:
    """Oracle for any segment length, however long.

    a*[(v-rho)_+ - (v-rho-1/a)_+] equals min(a*(v-rho)_+, 1), which has no
    difference of nearly equal terms; with v = sin(u) as above.  The
    integral over [asin(rho), pi/2] without the cap is the a -> infinity
    limit.
    """
    lo = math.asin(rho_ratio)
    kink = math.asin(min(rho_ratio + 1.0 / a, 1.0))

    def integrand(u: float) -> float:
        return math.cos(u) ** (n - 2) * min(max(a * (math.sin(u) - rho_ratio), 0.0), 1.0)

    value, _ = quad(
        integrand, lo, math.pi / 2.0, points=[kink] if lo < kink < math.pi / 2.0 else None,
        epsabs=1e-13, epsrel=1e-10, limit=200,
    )
    return 1.0 - 2.0 * kappa(n) * value


def mp_conditional_integral(a: float, rho_ratio: float, n: int) -> float:
    """Oracle: 1 - 2*kappa_n*a*(T(rho) - T(rho + 1/a)) at 60 significant digits
    beyond the log10(a) that the difference cancels, with
    T(c) = (1-c^2)^(p+1)/(2p+2) - c*I_p(c), T = 0 for c >= 1, and
    I_p(c) = int_c^1 (1-v^2)^p dv = betainc(1/2, p+1, c^2, 1)/2."""
    with mpmath.workdps(60 + max(0, math.ceil(math.log10(a)))):
        a, rho = mpmath.mpf(a), mpmath.mpf(rho_ratio)
        p = mpmath.mpf(n - 3) / 2
        kap = mpmath.gamma(mpmath.mpf(n) / 2) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(n - 1) / 2))

        def tail(c):
            c = min(c, mpmath.mpf(1))
            return (1 - c * c) ** (p + 1) / (2 * p + 2) - c * mpmath.betainc(0.5, p + 1, c * c, 1) / 2

        return float(1 - 2 * kap * a * (tail(rho) - tail(rho + 1 / a)))


def conditional_limit(rho_ratio: float, n: int) -> float:
    value, _ = quad(lambda u: math.cos(u) ** (n - 2), math.asin(rho_ratio), math.pi / 2.0, epsabs=1e-13)
    return 1.0 - 2.0 * kappa(n) * value


def quad_mixture_p1(alpha: float, rho_ratio: float, n: int) -> float:
    """Oracle: mixture_p1's 256-node Gauss-Legendre rule over the quadrature oracle."""
    upper = chi_mean(n) + 10.0 * math.sqrt(n)
    t, wt = leggauss(256)
    x = 0.5 * upper * (t + 1.0)
    w = 0.5 * upper * wt
    values = np.array([quad_conditional_integral(alpha * xi, rho_ratio, n) for xi in x])
    return float(np.sum(w * chi_pdf(x, n) * values))


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


def test_non_finite_centre_raises_instead_of_separating():
    cfg = DumbbellConfig(n=3, p=np.array([np.nan, 0.0, 0.0]), q=np.ones(3), radius=0.1, delta=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_p1(cfg, 100, Stream(1))
    with pytest.raises(ValueError, match="non-finite"):
        dumbbell_consistent_event(np.ones(3), 0.5, cfg)


def test_conditional_unit_norm_reduces_to_classic_needle():
    cfg = segment_config(2, 0.5, 0.0)
    est = estimate_p1(cfg, 200_000, Stream(2), phi_norm=1.0)
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


@given(
    n=st.integers(2, 64),
    a=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    rho=st.floats(0.0, 1.5),
)
@example(n=2, a=1.0, rho=0.0)
@example(n=3, a=0.25, rho=0.0)
@example(n=4, a=3.0, rho=1.0)
@example(n=5, a=0.01, rho=1.0)
@example(n=2, a=2.0, rho=0.5)
@example(n=7, a=4.0, rho=0.75)
@example(n=64, a=1.0, rho=0.0)
def test_conditional_integral_matches_quadrature(n, a, rho):
    assert abs(conditional_integral(a, rho, n) - quad_conditional_integral(a, rho, n)) <= 1e-10


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("rho", [0.0, 0.2, 0.5, 0.9, 0.999])
def test_conditional_integral_holds_at_long_segments(n, rho):
    # a difference of two T values would err by about a*1e-16
    for a in 10.0 ** np.array([2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 50, 100, 200, 300]):
        value = conditional_integral(a, rho, n)
        assert abs(value - quad_capped_conditional(a, rho, n)) <= 1e-9
        if a >= 1e12:
            assert abs(value - conditional_limit(rho, n)) <= 1e-9


def test_conditional_integral_limit_anchor():
    # 1 - 2*kappa_4*I_(1/2)(0.2), where the closed form used to return 1.0
    assert conditional_integral(1e300, 0.2, 4) == pytest.approx(0.2529399219, abs=1e-10)


@pytest.mark.parametrize(
    "a, rho, n",
    [
        (1e7, 0.99999, 2),
        (1e7, 0.99999, 4),
        (3e6, 0.9999, 8),
        (3.5e5, 0.999, 6),
    ],
)
def test_conditional_integral_holds_as_rho_nears_one(a, rho, n):
    # a difference of two T values lost 2.6e-8, 2.6e-8, 6.4e-9 and 1.3e-10 here
    assert abs(conditional_integral(a, rho, n) - mp_conditional_integral(a, rho, n)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("rho", [0.0, 0.2, 0.5, 0.9, 0.999])
def test_conditional_integral_matches_high_precision_at_any_length(n, rho):
    # up to the largest double, where 1/a lies far below the last bit of rho
    # and 2*kappa*a overflows; at a = 1.6e3, n = 2, rho = 0.9 a third-order
    # series in 1/a errs by 3.4e-12
    for a in [1e2, 1.6e3, 1e4, 1e6, 1e8, 1e12, 1e20, 1e100, 1e300, 1.7e308]:
        assert abs(conditional_integral(a, rho, n) - mp_conditional_integral(a, rho, n)) <= 1e-12


def test_bound_chain_holds_at_huge_alpha(capsys):
    assert main(["buffon", "--n", "4", "--alpha", "1e17", "--throws", "20000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mixture"] == pytest.approx(0.2012633593, abs=1e-9)
    assert report["ok"] is True


@pytest.mark.parametrize("n, alpha", [(2, 0.5), (4, 2.0), (8, 4.0)])
def test_mixture_matches_quadrature_mixture(n, alpha):
    # same outer rule, adaptive quadrature at every node
    rho = RADIUS_WEIGHT / (2.0 * kappa(n))
    assert abs(mixture_p1(alpha, rho, n) - quad_mixture_p1(alpha, rho, n)) <= 1e-15


def test_conditional_integral_matches_stratified_mc():
    # Fixed projector norms: closed form vs direct MC of the conditional event.
    alpha = 1.0
    rho = RADIUS_WEIGHT / (2.0 * kappa(2))
    radius = rho * alpha / 2.0
    cfg = segment_config(2, alpha, radius)
    for i, norm in enumerate((0.5, 1.0, 2.0, 3.0)):
        est = estimate_p1(cfg, 100_000, Stream(50 + i), phi_norm=norm)
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


def test_runs_with_scipy_blocked():
    src = str(Path(qconsist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qconsist\n"
        "from qconsist.cli import main\n"
        "assert qconsist.verify_bound_chain(4, 2.0, 2000, qconsist.Stream(0)).ok\n"
        "sys.exit(main(['buffon', '--n', '3', '--throws', '1000']))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert '"ok": true' in out.stdout


def test_import_leaves_scipy_integrate_unloaded():
    # only the quadrature needs scipy.integrate, and it dominates import time
    src = str(Path(qconsist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qconsist; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
