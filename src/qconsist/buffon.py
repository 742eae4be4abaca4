"""Dumbbell-crossing probabilities for dithered quantized projections.

Two balls of radius s' centered at p and q share a dithered quantized
projection along a row phi exactly when the projected intervals
[phi.p - s'||phi||, phi.p + s'||phi||] and the analogue at q either
overlap or have no quantizer boundary strictly between them; the event is
decided by exact interval/integer-code logic, with no sampling inside the
balls.

For a single projection with fixed projector norm the event probability
has the closed form

    1 - 2*kappa_n*a * int_0^1 (1-v^2)^((n-3)/2) [(v-rho)_+ - (v-rho-1/a)_+] dv

with a = (projected segment length)/delta and rho = 2s'/L, where
kappa_n = Gamma(n/2) / (sqrt(pi)*Gamma((n-1)/2)) normalizes the spherical
segment area.  Averaging that form over the chi(n)-distributed projector
norm gives the exact single-projection probability for Gaussian rows,
which the radius rule s' = w/(4*kappa_n)*||p-q||, w = 1 - sqrt(2/pi),
keeps below (1 - 3*alpha/(8 + 4*alpha)) for alpha = ||p-q||/delta; the
M-projection probability is that base raised to the M-th power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .randkit import Stream, gauss, uniform

__all__ = [
    "DumbbellConfig",
    "ProbEstimate",
    "BoundChainReport",
    "RADIUS_WEIGHT",
    "kappa",
    "dumbbell_radius",
    "consistent_pair_bound",
    "dumbbell_consistent_event",
    "estimate_p1",
    "estimate_p1_conditional",
    "conditional_integral",
    "chi_mean",
    "chi_pdf",
    "mixture_p1",
    "verify_bound_chain",
]

# Ball-to-segment ratio weight: chosen as the largest value for which the
# crossing-probability bound stays nontrivial; fixes 2*s'/L = w/(2*kappa_n).
RADIUS_WEIGHT = 1.0 - math.sqrt(2.0 / math.pi)


def kappa(n: int) -> float:
    """Spherical-segment normalization Gamma(n/2)/(sqrt(pi)*Gamma((n-1)/2)).

    Computed through log-gamma for stability; defined for n >= 2.
    """
    if n < 2:
        raise ValueError(f"kappa requires dimension >= 2, got {n}")
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)) / math.sqrt(math.pi)


def dumbbell_radius(p: np.ndarray, q: np.ndarray, n: int) -> float:
    """Ball radius s' = RADIUS_WEIGHT/(4*kappa_n) * ||p - q||.

    Satisfies s' >= ||p - q||/(8*sqrt(n)); degenerate for p == q.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    dist = float(np.linalg.norm(p - q))
    if dist == 0.0:
        raise ValueError("ball centers coincide; the radius rule is degenerate")
    return RADIUS_WEIGHT / (4.0 * kappa(n)) * dist


def consistent_pair_bound(alpha: float, m: int) -> float:
    """(1 - 3*alpha/(8 + 4*alpha))^m: upper bound on the probability that two
    balls at center distance alpha*delta (radius rule applied) still admit a
    consistent pair under m independent dithered projections."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (1.0 - 3.0 * alpha / (8.0 + 4.0 * alpha)) ** m


@dataclass(frozen=True)
class DumbbellConfig:
    """Two balls of radius `radius` at centers p, q against a delta grid.

    alpha = ||p - q||/delta.  p == q (alpha = 0) is allowed: the event is
    then trivially certain.
    """

    n: int
    p: np.ndarray
    q: np.ndarray
    radius: float
    delta: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p.shape != (self.n,) or q.shape != (self.n,):
            raise ValueError(f"centers must have shape ({self.n},)")
        if self.radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def alpha(self) -> float:
        return float(np.linalg.norm(self.p - self.q)) / self.delta


@dataclass(frozen=True)
class ProbEstimate:
    """Monte Carlo probability estimate with binomial standard error."""

    p_hat: float
    throws: int
    stderr: float

    @classmethod
    def from_hits(cls, hits: int, throws: int) -> "ProbEstimate":
        p = hits / throws
        return cls(p_hat=p, throws=throws, stderr=math.sqrt(p * (1.0 - p) / throws))


def _events(rows: np.ndarray, xi: np.ndarray, cfg: DumbbellConfig) -> np.ndarray:
    # The event depends only on (phi.p, phi.q, ||phi||, xi): both projected
    # balls sweep integer code ranges, and consistency is range overlap.
    half = cfg.radius * np.linalg.norm(rows, axis=1)
    cp = rows @ cfg.p
    cq = rows @ cfg.q
    lo_p = np.floor((cp - half + xi) / cfg.delta)
    hi_p = np.floor((cp + half + xi) / cfg.delta)
    lo_q = np.floor((cq - half + xi) / cfg.delta)
    hi_q = np.floor((cq + half + xi) / cfg.delta)
    return (hi_p >= lo_q) & (hi_q >= lo_p)


def dumbbell_consistent_event(phi_row: np.ndarray, xi: float, cfg: DumbbellConfig) -> bool:
    """Whether some pair of ball points shares a dithered quantized projection."""
    phi_row = np.asarray(phi_row, dtype=np.float64)
    if phi_row.shape != (cfg.n,):
        raise ValueError(f"projector has shape {phi_row.shape}, expected ({cfg.n},)")
    return bool(_events(phi_row[None, :], np.asarray([xi]), cfg)[0])


def estimate_p1(cfg: DumbbellConfig, throws: int, stream: Stream) -> ProbEstimate:
    """Single-projection event probability under phi ~ N(0,1)^n, xi ~ U[0, delta)."""
    if throws < 1:
        raise ValueError(f"throws must be >= 1, got {throws}")
    rows = gauss(stream, (throws, cfg.n))
    xi = uniform(stream, 0.0, cfg.delta, throws)
    hits = int(_events(rows, xi, cfg).sum())
    return ProbEstimate.from_hits(hits, throws)


def estimate_p1_conditional(
    cfg: DumbbellConfig, throws: int, stream: Stream, phi_norm: float = 1.0
) -> ProbEstimate:
    """Event probability conditioned on the projector norm.

    Projectors are uniform on the sphere scaled to `phi_norm`; with
    radius 0 and phi_norm 1 this is the classic needle-versus-grid
    non-crossing experiment at segment length ||p - q||/delta grid units.
    """
    if throws < 1:
        raise ValueError(f"throws must be >= 1, got {throws}")
    if not phi_norm > 0.0:
        raise ValueError(f"phi_norm must be positive, got {phi_norm}")
    rows = gauss(stream, (throws, cfg.n))
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0.0] = 1.0  # probability-zero guard
    rows = rows * (phi_norm / norms)[:, None]
    xi = uniform(stream, 0.0, cfg.delta, throws)
    hits = int(_events(rows, xi, cfg).sum())
    return ProbEstimate.from_hits(hits, throws)


def conditional_integral(a: float, rho_ratio: float, n: int) -> float:
    """Fixed-norm single-projection event probability, by adaptive quadrature.

    `a` is the projected segment length in grid units, `rho_ratio` the
    ball-diameter-to-segment ratio 2r/L.  The endpoint singularity of the
    n = 2 weight is removed by the substitution v = sin(u), which maps the
    integrand to cos(u)^(n-2) * f(sin(u)) on [0, pi/2] for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not (np.isfinite(a) and a > 0.0):
        raise ValueError(f"segment length ratio must be positive and finite, got {a}")
    if rho_ratio < 0.0:
        raise ValueError(f"rho_ratio must be >= 0, got {rho_ratio}")
    if rho_ratio >= 1.0:
        return 1.0  # the balls swallow the segment: no bare-segment crossing exists
    upper = rho_ratio + 1.0 / a

    def integrand(u: float) -> float:
        v = math.sin(u)
        f = max(v - rho_ratio, 0.0) - max(v - upper, 0.0)
        return math.cos(u) ** (n - 2) * f

    # imported here: scipy.integrate is most of the package's import time
    from scipy.integrate import quad

    kinks = [math.asin(v) for v in (rho_ratio, upper) if 0.0 < v < 1.0]
    value, _ = quad(
        integrand, 0.0, math.pi / 2.0, points=kinks or None, epsabs=1e-13, epsrel=1e-10, limit=200
    )
    return 1.0 - 2.0 * kappa(n) * a * value


def chi_mean(n: int) -> float:
    """Mean of the chi(n) distribution (norm of an n-dim standard Gaussian)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def chi_pdf(phi: np.ndarray, n: int) -> np.ndarray:
    """chi(n) density c_n * phi^(n-1) * exp(-phi^2/2)."""
    phi = np.asarray(phi, dtype=np.float64)
    log_c = (1.0 - n / 2.0) * math.log(2.0) - math.lgamma(n / 2.0)
    out = np.zeros_like(phi)
    pos = phi > 0.0
    out[pos] = np.exp(log_c + (n - 1) * np.log(phi[pos]) - 0.5 * phi[pos] ** 2)
    return out


def mixture_p1(alpha: float, rho_ratio: float, n: int, nodes: int = 256) -> float:
    """chi(n)-weighted average of the fixed-norm probability.

    Gauss-Legendre on [0, chi_mean + 10*sqrt(n)]; the discarded tail mass
    is below 1e-12.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    upper = chi_mean(n) + 10.0 * math.sqrt(n)
    t, wt = leggauss(nodes)
    x = 0.5 * upper * (t + 1.0)
    w = 0.5 * upper * wt
    density = chi_pdf(x, n)
    values = np.array([conditional_integral(alpha * xi, rho_ratio, n) for xi in x])
    return float(np.sum(w * density * values))


@dataclass(frozen=True)
class BoundChainReport:
    """End-to-end check p_hat <= mixture <= jensen_bound <= bound."""

    n: int
    alpha: float
    radius: float
    p_hat: float
    stderr: float
    mixture: float
    jensen_bound: float
    bound: float
    ok: bool


def verify_bound_chain(n: int, alpha: float, throws: int, stream: Stream) -> BoundChainReport:
    """Monte Carlo versus quadrature versus closed-form bound, in order.

    Builds the canonical dumbbell at distance alpha (delta = 1) with the
    RADIUS_WEIGHT radius rule, estimates the Gaussian-projector event
    probability, evaluates the exact chi-mixture, and checks the ordering
    p_hat <= mixture (within 3 binomial stderr) <= concavity bound
    <= final bound.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    p = np.zeros(n)
    q = np.zeros(n)
    q[0] = alpha
    radius = dumbbell_radius(p, q, n)
    cfg = DumbbellConfig(n=n, p=p, q=q, radius=radius, delta=1.0)
    est = estimate_p1(cfg, throws, stream)
    rho_ratio = 2.0 * radius / alpha
    mixture = mixture_p1(alpha, rho_ratio, n)
    shrink = RADIUS_WEIGHT
    jensen = shrink + (1.0 - shrink) * 2.0 / (2.0 + math.sqrt(math.pi / 2.0) * (1.0 - shrink) * alpha)
    bound = consistent_pair_bound(alpha, 1)
    ok = (
        est.p_hat <= mixture + 3.0 * est.stderr
        and mixture <= jensen + 1e-9
        and jensen <= bound + 1e-12
    )
    return BoundChainReport(
        n=n,
        alpha=alpha,
        radius=radius,
        p_hat=est.p_hat,
        stderr=est.stderr,
        mixture=mixture,
        jensen_bound=jensen,
        bound=bound,
        ok=ok,
    )
