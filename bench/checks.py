"""Output checks computed by the benchmark itself, apart from the program.

Membership is decided by the benchmark's own integer re-encoding
``floor((phi . w + xi) / delta)``; slopes, medians, violation rates and the
chi-mixture probability are recomputed here from first principles.  None of
these functions is timed.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
from numpy.polynomial.legendre import leggauss

# Norm slack for witnesses and reconstructions against the closed unit ball.
BALL_TOL = 1e-9

# z used wherever a Monte Carlo estimate is compared with an exact value.
# The proximity workload makes 15 such comparisons per seed; at a one-sided
# 3 sigma a correct program would fail about one seed in 50 (15 x 0.135%),
# so two sets of ten runs of the same code would often disagree.  At a
# two-sided 5 sigma a false alarm has probability ~6e-7 per comparison,
# while a bias above 5 stderr (about 0.008 at 100k throws) is still caught.
MC_Z = 5.0

# Agreement between the program's mixture_p1 and chi_mixture below.  The
# program integrates the chi weight with one 256-node Gauss-Legendre rule
# that does not split at the kink of the fixed-norm probability; on the
# 12-cell grid its error reaches 2e-6 at n = 2 (square-root kink) and 6e-8
# at n = 4, about a thousandth of one Monte Carlo stderr at 100k throws.
MIXTURE_TOL = 1e-5


def codes_of(phi: np.ndarray, xi: np.ndarray, delta: float, w: np.ndarray) -> np.ndarray:
    """Integer quantization codes floor((phi . w + xi) / delta)."""
    return np.floor((phi @ w + xi) / delta).astype(np.int64)


def discrepancy(phi, xi, delta, codes, w) -> int:
    """l1 distance between the codes of w and the target codes."""
    return int(np.abs(codes_of(phi, xi, delta, w) - codes).sum())


def member(phi, xi, delta, codes, w, r: int = 0, ball_tol: float = 0.0) -> bool:
    """w lies in the r-relaxed consistency cell inside the unit ball."""
    return float(np.linalg.norm(w)) <= 1.0 + ball_tol and discrepancy(phi, xi, delta, codes, w) <= r


def bisect_exit(phi, xi, delta, codes, x0, d, r: int = 0, iters: int = 80) -> float:
    """Exit time of the ray x0 + t d from the r-relaxed cell, by bisection.

    Along a ray every code moves monotonically, so the discrepancy never
    decreases and the members form one interval [0, t_exit).
    """
    lo, hi = 0.0, 3.0  # ||x0 + 3 d|| >= 2 for a unit d and ||x0|| <= 1
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if member(phi, xi, delta, codes, x0 + mid * d, r):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def loglog_slope(points) -> float:
    """Ordinary least-squares slope of ln(value) against ln(M)."""
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(v) for _, v in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def medians_per_m(records, attr: str) -> list[tuple[int, float]]:
    """Per-M median of a record attribute over its finite values."""
    out = []
    for m in sorted({rec.m for rec in records}):
        vals = [getattr(rec, attr) for rec in records if rec.m == m]
        vals = [v for v in vals if math.isfinite(v)]
        if vals:
            out.append((m, statistics.median(vals)))
    return out


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- buffon ---

def kappa(n: int) -> float:
    """Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2))."""
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


def _cos_power_integral(m: int, theta: np.ndarray) -> np.ndarray:
    # int_0^theta cos(u)^m du by the reduction formula.
    s, c = np.sin(theta), np.cos(theta)
    prev, cur = theta, s  # m = 0, m = 1
    if m == 0:
        return prev
    for j in range(2, m + 1):
        prev, cur = cur, c ** (j - 1) * s / j + (j - 1) / j * prev
    return cur


def fixed_norm_probability(a: np.ndarray, rho: float, n: int) -> np.ndarray:
    """1 - 2 kappa_n a int_0^1 (1-v^2)^((n-3)/2) [(v-rho)_+ - (v-rho-1/a)_+] dv.

    The inner integral in closed form: with F0(x) = int_0^x (1-v^2)^((n-3)/2)
    (substituting v = sin u) and F1(x) = int_0^x v (1-v^2)^((n-3)/2), it is
    F1(u) - F1(rho) - rho (F0(u) - F0(rho)) + (F0(1) - F0(u)) / a with
    u = min(1, rho + 1/a).  Needs rho < 1 (the radius rule gives rho < 0.5).
    """
    a = np.asarray(a, dtype=np.float64)

    def f0(x):
        return _cos_power_integral(n - 2, np.arcsin(np.minimum(x, 1.0)))

    def f1(x):
        return (1.0 - (1.0 - np.minimum(x, 1.0) ** 2) ** ((n - 1) / 2.0)) / (n - 1)

    u = np.minimum(1.0, rho + 1.0 / a)
    inner = f1(u) - f1(rho) - rho * (f0(u) - f0(rho)) + (f0(1.0) - f0(u)) / a
    return 1.0 - 2.0 * kappa(n) * a * inner


def chi_density(phi: np.ndarray, n: int) -> np.ndarray:
    log_c = (1.0 - n / 2.0) * math.log(2.0) - math.lgamma(n / 2.0)
    return np.exp(log_c + (n - 1) * np.log(phi) - 0.5 * phi * phi)


def chi_mixture(alpha: float, rho: float, n: int, panels: int = 24, nodes: int = 24) -> float:
    """Average of the fixed-norm probability at a = alpha*phi over phi ~ chi(n).

    The integrand has a kink at phi_k = 1/(alpha (1 - rho)), where
    rho + 1/a reaches 1; left of it the probability is linear in phi.  The
    right piece is integrated in t with phi = phi_k + t^2, which removes the
    square-root behaviour of the n = 2 weight at the kink.  Composite
    Gauss-Legendre on both pieces; the chi tail past sqrt(n) + 12 is below
    1e-30.
    """
    top = math.sqrt(n) + 12.0
    t, w = leggauss(nodes)

    def composite(f, a, b):
        if b <= a:
            return 0.0
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        x = (mid[:, None] + half[:, None] * t[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        return float(np.sum(weights * f(x)))

    def g(phi):
        return chi_density(phi, n) * fixed_norm_probability(alpha * phi, rho, n)

    kink = min(1.0 / (alpha * (1.0 - rho)), top)
    left = composite(g, 0.0, kink)
    right = composite(lambda s: 2.0 * s * g(kink + s * s), 0.0, math.sqrt(top - kink))
    return left + right


RADIUS_WEIGHT = 1.0 - math.sqrt(2.0 / math.pi)


def pair_bound(alpha: float) -> float:
    """Single-projection bound 1 - 3 alpha / (8 + 4 alpha)."""
    return 1.0 - 3.0 * alpha / (8.0 + 4.0 * alpha)


def jensen_bound(alpha: float) -> float:
    """Concavity bound between the exact mixture and pair_bound."""
    w = RADIUS_WEIGHT
    return w + (1.0 - w) * 2.0 / (2.0 + math.sqrt(math.pi / 2.0) * (1.0 - w) * alpha)


def dumbbell_rho(n: int) -> float:
    """Ball-diameter-to-segment ratio 2 s' / L under the radius rule."""
    return RADIUS_WEIGHT / (2.0 * kappa(n))
