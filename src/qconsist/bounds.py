"""Closed-form sample-complexity formulas and error-bound constants.

One measurement condition serves both signal sets: `k` alone chooses the
covering term, `None` for the unit ball (full frames) and an integer for
k-sparse ball signals.  The module gives the minimal measurement count for
a target proximity epsilon0 at failure probability eta, optionally allowing
r inconsistent measurements; the proportional-inconsistency constants; the
unit-ball covering bound; and the saturated proximity predicted at a given
measurement count.

All logarithms are natural: the derivations cancel log against exp, which
forces base e throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantizer import QuantizerSpec
from .sensing import SignalModel

__all__ = [
    "RhoConstants",
    "min_measurements",
    "rho_constants",
    "covering_bound",
    "predicted_eps",
]


@dataclass(frozen=True)
class RhoConstants:
    """Constants of the proportional-inconsistency error bound.

    The bound reads c_rho * epsilon0 + d_rho * delta; d_rho >= 4*rho is the
    non-decaying bias term.
    """

    rho: float
    rho_bar: float
    c_rho: float
    d_rho: float


def _check_eta(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")


def _check_common(epsilon0: float, eta: float, delta: float) -> None:
    if not (math.isfinite(epsilon0) and epsilon0 > 0.0):
        raise ValueError(f"epsilon0 must be positive and finite, got {epsilon0}")
    _check_eta(eta)
    QuantizerSpec(delta)


def _tail(eta: float) -> float:
    return math.log(1.0 / (2.0 * eta))


def _complexity(epsilon0: float, n: int, k: int | None) -> float:
    """Covering term: n*ln(29*sqrt(n)/eps) for unit-ball signals (k None),
    2*k*ln(56*n/(sqrt(k)*eps)) for k-sparse ones."""
    arg = 29.0 * math.sqrt(n) / epsilon0 if k is None else 56.0 * n / (math.sqrt(k) * epsilon0)
    if arg <= 1.0:
        raise ValueError(f"epsilon0 = {epsilon0} makes the covering log argument <= 1")
    return n * math.log(arg) if k is None else 2.0 * k * math.log(arg)


def min_measurements(
    epsilon0: float, eta: float, delta: float, n: int, k: int | None = None, r: int = 0
) -> int:
    """Measurements guaranteeing proximity epsilon0, allowing r inconsistent ones.

    With factor = (4*delta + 2*eps)/eps and base = complexity + ln(1/(2*eta)),
    where the complexity is n*ln(29*sqrt(n)/eps) for unit-ball signals
    (k None) and 2*k*ln(56*n/(sqrt(k)*eps)) for k-sparse ones, this is the
    smallest m >= 1 with m >= r + factor*(r*ln(e*m/r) + base).  For r = 0
    the r*ln(e*m/r) term is taken as 0, giving ceil(factor*base).  For
    r > 0 the formula needs m >= r, so every solution exceeds
    max(factor*base, r); from there m <- ceil(r + factor*(r*ln(e*m/r) + base))
    never decreases and stops at the smallest solution.
    """
    _check_common(epsilon0, eta, delta)
    SignalModel(n, k)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    factor = (4.0 * delta + 2.0 * epsilon0) / epsilon0
    base = _complexity(epsilon0, n, k) + _tail(eta)
    if r == 0:
        return max(1, math.ceil(factor * base))
    m = max(math.ceil(factor * base), r)
    for _ in range(100):
        m_next = math.ceil(r + factor * (r * math.log(math.e * m / r) + base))
        if m_next == m:
            return m
        m = m_next
    raise RuntimeError("fixed-point iteration for the relaxed measurement count did not settle")


def rho_constants(rho: float) -> RhoConstants:
    """Constants rho_bar, c_rho = 1/(1 - rho_bar), d_rho = 4*rho*c_rho*ln(e/rho).

    Requires rho_bar = rho*(1 + 2*ln(e/rho)) < 1, which holds for every
    rho <= 1/10.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    log_term = math.log(math.e / rho)
    rho_bar = rho * (1.0 + 2.0 * log_term)
    if rho_bar >= 1.0:
        raise ValueError(
            f"rho_bar = {rho_bar:.6f} >= 1 at rho = {rho}; the constants require "
            "rho*(1 + 2*ln(e/rho)) < 1, which any rho <= 1/10 satisfies"
        )
    c_rho = 1.0 / (1.0 - rho_bar)
    return RhoConstants(rho=rho, rho_bar=rho_bar, c_rho=c_rho, d_rho=4.0 * rho * c_rho * log_term)


def covering_bound(s: float, n: int) -> float:
    """(3/s)^n, the size bound for an s-covering of the unit ball (0 < s <= 3)."""
    if not 0.0 < s <= 3.0:
        raise ValueError(f"covering radius must lie in (0, 3], got {s}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (3.0 / s) ** n


def predicted_eps(m: int, eta: float, delta: float, n: int, k: int | None = None) -> float:
    """Proximity obtained by saturating the measurement condition at count m.

    Solves eps = (4*(delta+1)/m) * (complexity(eps) + tail) by damped
    fixed-point iteration from the upper bound eps = 2 (valid for ball
    signals), with the covering term chosen by k as in min_measurements.
    Raises for m below the count needed at eps = 2.
    """
    _check_common(2.0, eta, delta)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    SignalModel(n, k)

    def f(eps: float) -> float:
        return (4.0 * (delta + 1.0) / m) * (_complexity(eps, n, k) + _tail(eta))

    eps = 2.0
    if f(eps) > eps:
        raise ValueError(f"m = {m} is below the count needed to reach proximity 2")
    prev_step = 0.0
    for _ in range(500):
        nxt = f(eps)
        step = nxt - eps
        if abs(step) < 1e-13:
            eps = nxt
            break
        eps = 0.5 * (eps + nxt) if step * prev_step < 0.0 else nxt
        prev_step = step
    if abs(eps - f(eps)) >= 1e-10:
        raise RuntimeError("saturated-proximity fixed point did not converge")
    return eps
