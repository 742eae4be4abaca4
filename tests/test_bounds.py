"""Formula checks against an independently coded evaluator and stated anchors."""

import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qconsist.bounds import covering_bound, min_measurements, predicted_eps, rho_constants


# Second implementation, written from the formulas directly; the library must
# agree with it everywhere (two-implementation cross-check).
def oracle_grfcq(eps0, eta, delta, n):
    return math.ceil((4 * delta + 2 * eps0) / eps0 * (n * math.log(29 * math.sqrt(n) / eps0) + math.log(1 / (2 * eta))))


def oracle_qcs(eps0, eta, delta, n, k):
    return math.ceil(
        (4 * delta + 2 * eps0) / eps0 * (2 * k * math.log(56 * n / (math.sqrt(k) * eps0)) + math.log(1 / (2 * eta)))
    )


def relaxed_rhs(m, eps0, eta, delta, n, k, r):
    if k is not None:
        base = 2 * k * math.log(56 * n / (math.sqrt(k) * eps0)) + math.log(1 / (2 * eta))
    else:
        base = n * math.log(29 * math.sqrt(n) / eps0) + math.log(1 / (2 * eta))
    extra = r * math.log(math.e * m / r) if r > 0 else 0.0
    return r + (4 * delta + 2 * eps0) / eps0 * (extra + base)


def test_grfcq_anchor_value():
    assert min_measurements(0.5, 0.1, 1.0, 4) == 207  # ceil(10*(4*ln 116 + ln 5))
    assert min_measurements(0.5, 0.1, 1.0, 4) == oracle_grfcq(0.5, 0.1, 1.0, 4)


def test_grfcq_monotone_in_eps():
    base = min_measurements(0.5, 0.1, 1.0, 4)
    assert min_measurements(0.25, 0.1, 1.0, 4) > base


def test_grfcq_small_delta_limit():
    tiny = min_measurements(0.5, 0.1, 1e-12, 4)
    limit = math.ceil(2.0 * (4 * math.log(116.0) + math.log(5.0)))
    assert tiny == limit


def test_grfcq_domain_error():
    with pytest.raises(ValueError):
        min_measurements(100.0, 0.1, 1.0, 1)  # log argument below 1
    with pytest.raises(ValueError):
        min_measurements(0.5, 1.5, 1.0, 4)
    with pytest.raises(ValueError):
        min_measurements(-0.5, 0.1, 1.0, 4)


def test_cross_check_random_parameters():
    rng = np.random.default_rng(5)
    for _ in range(50):
        eps0 = float(rng.uniform(0.05, 2.0))
        eta = float(rng.uniform(0.01, 0.9))
        delta = float(rng.uniform(0.1, 4.0))
        n = int(rng.integers(2, 64))
        k = int(rng.integers(1, n + 1))
        assert min_measurements(eps0, eta, delta, n) == max(1, oracle_grfcq(eps0, eta, delta, n))
        assert min_measurements(eps0, eta, delta, n, k) == max(1, oracle_qcs(eps0, eta, delta, n, k))


def test_qcs_anchor_and_monotonicity():
    assert min_measurements(0.5, 0.1, 1.0, 32, 3) == oracle_qcs(0.5, 0.1, 1.0, 32, 3)
    assert min_measurements(0.5, 0.1, 1.0, 32, 4) > min_measurements(0.5, 0.1, 1.0, 32, 3)
    assert min_measurements(0.5, 0.1, 1.0, 64, 3) > min_measurements(0.5, 0.1, 1.0, 32, 3)


def test_k_none_selects_the_unit_ball():
    assert min_measurements(0.5, 0.1, 1.0, 8, None) == oracle_grfcq(0.5, 0.1, 1.0, 8)
    assert min_measurements(0.5, 0.1, 1.0, 8, None, 2) == min_measurements(0.5, 0.1, 1.0, 8, r=2)
    assert predicted_eps(10_000, 0.1, 1.0, 8, None) == predicted_eps(10_000, 0.1, 1.0, 8)


def test_qcs_comparable_to_grfcq_at_full_sparsity():
    for n in (4, 8, 16):
        ratio = min_measurements(0.5, 0.1, 1.0, n, n) / min_measurements(0.5, 0.1, 1.0, n)
        assert 1.0 <= ratio <= 3.0


def test_relaxed_reduces_to_strict_at_r_zero():
    rng = np.random.default_rng(6)
    for _ in range(50):
        eps0 = float(rng.uniform(0.05, 1.9))
        eta = float(rng.uniform(0.01, 0.45))
        delta = float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(2, 48))
        assert min_measurements(eps0, eta, delta, n, r=0) == max(1, oracle_grfcq(eps0, eta, delta, n))
        k = int(rng.integers(1, n + 1))
        assert min_measurements(eps0, eta, delta, n, k, r=0) == max(1, oracle_qcs(eps0, eta, delta, n, k))


def test_relaxed_nondecreasing_in_r_and_self_consistent():
    for k in (None, 3):
        previous = 0
        for r in (0, 1, 2, 4, 8):
            m = min_measurements(0.5, 0.1, 1.0, 8, k, r)
            assert m >= previous
            previous = m
            # substitute-and-verify: m satisfies the inequality, m-1 does not
            assert m >= relaxed_rhs(m, 0.5, 0.1, 1.0, 8, k, r)
            assert (m - 1) < relaxed_rhs(m - 1, 0.5, 0.1, 1.0, 8, k, r)


def test_relaxed_qcs_mode_requires_k():
    # the library needs a valid k for the sparse count, and names k before r
    for k in (0, 9):
        with pytest.raises(ValueError, match="sparsity must satisfy 1 <= k <= n"):
            min_measurements(0.5, 0.1, 1.0, 8, k, r=2)
        with pytest.raises(ValueError, match="sparsity"):
            min_measurements(0.5, 0.1, 1.0, 8, k, r=-1)
    with pytest.raises(ValueError, match="r must be >= 0"):
        min_measurements(0.5, 0.1, 1.0, 8, 3, r=-1)


@settings(max_examples=300, deadline=None)
@given(
    eps0=st.floats(1e-3, 2.0),
    eta=st.floats(1e-3, 0.49),
    delta=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    n_k=st.integers(1, 1000).flatmap(lambda n: st.tuples(st.just(n), st.none() | st.integers(1, n))),
    r=st.integers(0, 10**6),
)
@example(eps0=0.5, eta=0.1, delta=1.0, n_k=(8, None), r=2000)  # r far above the r = 0 count
@example(eps0=0.5, eta=0.1, delta=1.0, n_k=(8, None), r=1277)
def test_relaxed_count_is_the_least_solution(eps0, eta, delta, n_k, r):
    n, k = n_k
    m = min_measurements(eps0, eta, delta, n, k, r)
    assert m >= r and m >= relaxed_rhs(m, eps0, eta, delta, n, k, r)
    assert m - 1 < r or m - 1 < relaxed_rhs(m - 1, eps0, eta, delta, n, k, r)


def test_rho_constants_anchor_and_limits():
    rc = rho_constants(0.1)
    assert rc.rho_bar == pytest.approx(0.1 * (1.0 + 2.0 * math.log(math.e / 0.1)), rel=1e-15)
    assert rc.rho_bar < 1.0
    assert 4.17 < rc.c_rho < 4.2
    assert rc.d_rho == pytest.approx(4.0 * 0.1 * rc.c_rho * math.log(math.e / 0.1), rel=1e-15)
    assert rc.d_rho >= 4.0 * 0.1
    tiny = rho_constants(1e-9)
    assert tiny.c_rho == pytest.approx(1.0, abs=1e-6)
    assert tiny.d_rho == pytest.approx(0.0, abs=1e-5)


def test_rho_constants_domain():
    with pytest.raises(ValueError):
        rho_constants(0.5)  # rho_bar > 1
    with pytest.raises(ValueError):
        rho_constants(0.0)
    with pytest.raises(ValueError):
        rho_constants(1.0)
    # the feasibility boundary sits between 0.1 and 0.2
    def rho_bar(rho):
        return rho * (1.0 + 2.0 * math.log(math.e / rho))

    lo, hi = 0.1, 0.2
    assert rho_bar(lo) < 1.0 < rho_bar(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rho_bar(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert 0.1 < lo < 0.2
    rho_constants(lo * 0.999)  # just inside works
    with pytest.raises(ValueError):
        rho_constants(hi * 1.001)


def test_covering_bound():
    assert covering_bound(3.0, 5) == 1.0
    assert covering_bound(1.5, 3) == 8.0
    assert covering_bound(1.0, 4) > covering_bound(2.0, 4)
    with pytest.raises(ValueError):
        covering_bound(0.0, 3)
    with pytest.raises(ValueError):
        covering_bound(3.5, 3)


def test_predicted_eps_solves_the_saturation_equation():
    for k in (None, 3):
        eps = predicted_eps(10_000, 0.1, 1.0, 8, k=k)
        if k is not None:
            base = 2 * 3 * math.log(56 * 8 / (math.sqrt(3) * eps)) + math.log(1 / 0.2)
        else:
            base = 8 * math.log(29 * math.sqrt(8) / eps) + math.log(1 / 0.2)
        residual = abs(eps - (4.0 * 2.0 / 10_000) * base)
        assert residual < 1e-10
        assert 0.0 < eps < 2.0


def test_predicted_eps_monotone_and_guarded():
    values = [predicted_eps(m, 0.1, 1.0, 8) for m in (2_000, 8_000, 32_000)]
    assert values[0] > values[1] > values[2]
    with pytest.raises(ValueError):
        predicted_eps(10, 0.1, 1.0, 8)
    with pytest.raises(ValueError, match="sparsity"):
        predicted_eps(10_000, 0.1, 1.0, 8, k=9)  # k above n
