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
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._blas import one_blas_thread
from .quantizer import QuantizerSpec, _encode_values
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
    "conditional_integral",
    "chi_mean",
    "chi_pdf",
    "mixture_p1",
    "verify_bound_chain",
]

# Gauss-Legendre nodes of the chi-mixture quadrature in mixture_p1.
_MIXTURE_NODES = 256

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
    dist = math.dist(p, q)  # scales before squaring: overflows only if the distance does
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

    p == q is allowed: the event is then trivially certain.
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
        QuantizerSpec(self.delta)


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
    lo_p = _encode_values(cp - half + xi, cfg.delta)
    hi_p = _encode_values(cp + half + xi, cfg.delta)
    lo_q = _encode_values(cq - half + xi, cfg.delta)
    hi_q = _encode_values(cq + half + xi, cfg.delta)
    return (hi_p >= lo_q) & (hi_q >= lo_p)


def dumbbell_consistent_event(phi_row: np.ndarray, xi: float, cfg: DumbbellConfig) -> bool:
    """Whether some pair of ball points shares a dithered quantized projection."""
    phi_row = np.asarray(phi_row, dtype=np.float64)
    if phi_row.shape != (cfg.n,):
        raise ValueError(f"projector has shape {phi_row.shape}, expected ({cfg.n},)")
    return bool(_events(phi_row[None, :], np.asarray([xi]), cfg)[0])


def estimate_p1(
    cfg: DumbbellConfig, throws: int, stream: Stream, phi_norm: float | None = None
) -> ProbEstimate:
    """Single-projection event probability under xi ~ U[0, delta).

    Rows are phi ~ N(0,1)^n when `phi_norm` is None, and uniform on the
    sphere scaled to `phi_norm` otherwise; with radius 0 and phi_norm 1
    the latter is the classic needle-versus-grid non-crossing experiment
    at segment length ||p - q||/delta grid units.  All rows are drawn
    before their dithers.  numpy's OpenBLAS runs one thread inside
    (one_blas_thread): the thin products over `throws` rows gain nothing
    from a second one, which only busy-waits.
    """
    if throws < 1:
        raise ValueError(f"throws must be >= 1, got {throws}")
    if phi_norm is not None and not phi_norm > 0.0:
        raise ValueError(f"phi_norm must be positive, got {phi_norm}")
    rows = gauss(stream, (throws, cfg.n))
    if phi_norm is not None:
        norms = np.linalg.norm(rows, axis=1)
        norms[norms == 0.0] = 1.0  # probability-zero guard
        rows = rows * (phi_norm / norms)[:, None]
    xi = uniform(stream, 0.0, cfg.delta, throws)
    with one_blas_thread():
        hits = int(_events(rows, xi, cfg).sum())
    return ProbEstimate.from_hits(hits, throws)


def _tail_integral(c: np.ndarray, n: int) -> np.ndarray:
    """I_p(c) = int_c^1 (1-v^2)^p dv with p = (n-3)/2, for c <= 1, by the reduction
    I_p = (2p*I_(p-1) - c*(1-c^2)^p)/(2p+1) up from I_0 = 1-c (odd n) or I_(-1/2) = arccos c (even n)."""
    s = 1.0 - c * c
    p, tail = (0.0, 1.0 - c) if n % 2 else (-0.5, np.arccos(c))
    while p < (n - 3) / 2.0:
        p += 1.0
        tail = (2.0 * p * tail - c * s**p) / (2.0 * p + 1.0)
    return tail


def _tail_gap(rho: float, h: np.ndarray, n: int) -> np.ndarray:
    """T(rho) - T(rho + h) for rho >= 0 and h > 0, where
    T(c) = int_c^1 (1-v^2)^p (v-c) dv = (1-c^2)^(p+1)/(2p+2) - c*I_p(c), and 0 for c >= 1.

    With c0 = rho, c1 = rho + h (both capped at 1), dc = c1 - c0 and
    s = 1 - c^2, the difference is
    (s0^(p+1) - s1^(p+1))/(2p+2) - c0*(I_p(c0) - I_p(c1)) + dc*I_p(c1):
    each power difference is -s0^q*expm1(q*log1p(-dc*(c0+c1)/s0)), and the
    reduction of _tail_integral runs on the differences I_p(c0) - I_p(c1),
    from dc (odd n) or arccos c0 - arccos c1 = arcsin(dc*(c0+c1)/(c1*sqrt(s0) + c0*sqrt(s1)))
    (even n).  No step subtracts two T or I_p values, so a = 1/h times the
    result errs by about 1e-16*s0^p; the difference of two T values would
    err by about a*1e-16.
    """
    c0 = min(rho, 1.0)
    if c0 >= 1.0:
        return np.zeros_like(h)
    c1 = np.minimum(c0 + h, 1.0)
    dc = np.where(c1 < 1.0, h, 1.0 - c0)
    s0, ds = (1.0 - c0) * (1.0 + c0), dc * (c0 + c1)
    # s1 from s0 - s1 = dc*(c0 + c1), not from the rounded c1, whose last bit
    # would be a relative error of 1e-16/s1 in s1
    s1 = np.maximum(s0 - ds, 0.0)
    log_ratio = np.log1p(np.maximum(-ds / s0, -1.0))  # log(s1/s0)

    def power_gap(q: float) -> np.ndarray:  # s0^q - s1^q
        return -(s0**q) * np.expm1(q * log_ratio)

    if n % 2:
        p, gap = 0.0, dc
    else:
        p, gap = -0.5, np.arcsin(ds / (c1 * math.sqrt(s0) + c0 * np.sqrt(s1)))
    while p < (n - 3) / 2.0:
        p += 1.0
        gap = (2.0 * p * gap - (c0 * power_gap(p) - dc * s1**p)) / (2.0 * p + 1.0)
    return power_gap((n - 1) / 2.0) / (n - 1) - c0 * gap + dc * _tail_integral(c1, n)


def _fixed_norm_p1(a: np.ndarray, rho_ratio: float, n: int) -> np.ndarray:
    # int_0^1 (1-v^2)^p [(v-rho)_+ - (v-rho-h)_+] dv = T(rho) - T(rho + h), h = 1/a;
    # both terms vanish for rho >= 1, where the balls swallow the segment.
    # An a that overflows to inf (h = 0) takes the limit a*(T(rho) - T(rho + h)) -> I_p(rho).
    if not rho_ratio >= 0.0:
        raise ValueError(f"rho_ratio must be >= 0, got {rho_ratio}")
    two_kappa, h = 2.0 * kappa(n), 1.0 / a
    with np.errstate(all="ignore"):  # log1p(-1) = -inf where rho + h >= 1, and inf*0 where h = 0
        closed = 1.0 - two_kappa * (a * _tail_gap(rho_ratio, h, n))  # 2*kappa*a may overflow
    return np.where(h > 0.0, closed, 1.0 - two_kappa * _tail_integral(min(rho_ratio, 1.0), n))


def conditional_integral(a: float, rho_ratio: float, n: int) -> float:
    """Fixed-norm single-projection event probability, in closed form.

    `a` is the projected segment length in grid units, `rho_ratio` the
    ball-diameter-to-segment ratio 2r/L; the result is 1.0 for
    rho_ratio >= 1.
    """
    if not (np.isfinite(a) and a > 0.0):
        raise ValueError(f"segment length ratio must be positive and finite, got {a}")
    return float(_fixed_norm_p1(a, rho_ratio, n))


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


@cache
def _mixture_rule() -> tuple[np.ndarray, np.ndarray]:
    # computed on first use, not at import; its eigenvalue solve gets one
    # BLAS thread, like estimate_p1's products
    with one_blas_thread():
        return leggauss(_MIXTURE_NODES)


def mixture_p1(alpha: float, rho_ratio: float, n: int) -> float:
    """chi(n)-weighted average of the fixed-norm probability.

    Gauss-Legendre with _MIXTURE_NODES nodes on [0, chi_mean + 10*sqrt(n)];
    the discarded tail mass is below 1e-12.
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    upper = chi_mean(n) + 10.0 * math.sqrt(n)
    t, wt = _mixture_rule()
    x = 0.5 * upper * (t + 1.0)
    w = 0.5 * upper * wt
    density = chi_pdf(x, n)
    return float(np.sum(w * density * _fixed_norm_p1(alpha * x, rho_ratio, n)))


@dataclass(frozen=True)
class BoundChainReport:
    """End-to-end check p_hat <= mixture <= jensen_bound <= bound.

    `failed_step` is the first step that fails ("monte-carlo", "concavity" or
    "final"; None when `ok`); `mixture_under_bound` checks mixture <= bound.
    """

    n: int
    alpha: float
    radius: float
    p_hat: float
    stderr: float
    mixture: float
    jensen_bound: float
    bound: float
    ok: bool
    failed_step: str | None
    mixture_under_bound: bool


def verify_bound_chain(n: int, alpha: float, throws: int, stream: Stream) -> BoundChainReport:
    """Monte Carlo versus chi-mixture versus closed-form bound, in order.

    Builds the canonical dumbbell at distance alpha (delta = 1) with the
    RADIUS_WEIGHT radius rule, estimates the Gaussian-projector event
    probability, evaluates the exact chi-mixture, and checks the ordering
    p_hat <= mixture (within 3 binomial stderr) <= concavity bound
    <= final bound.  At n = 2 the concavity step fails in fact from alpha ~ 512
    on (`ok` False, `failed_step` "concavity"): the mixture tends to
    1 - (2/pi)*arccos(pi*w/2) ~ 0.2057, above the concavity bound's limit
    w = RADIUS_WEIGHT ~ 0.2021, and Monte Carlo agrees; the mixture stays
    under the final bound, whose limit is 0.25.
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
    steps = (
        ("monte-carlo", est.p_hat <= mixture + 3.0 * est.stderr),
        ("concavity", mixture <= jensen + 1e-9),
        ("final", jensen <= bound + 1e-12),
    )
    failed_step = next((name for name, holds in steps if not holds), None)
    return BoundChainReport(
        n=n,
        alpha=alpha,
        radius=radius,
        p_hat=est.p_hat,
        stderr=est.stderr,
        mixture=mixture,
        jensen_bound=jensen,
        bound=bound,
        ok=failed_step is None,
        failed_step=failed_step,
        mixture_under_bound=mixture <= bound + 1e-9,
    )
