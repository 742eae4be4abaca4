"""Consistent reconstruction solvers and the linear least-squares baseline.

All three consistent solvers run one log-barrier method: on the active
coordinates u of a cell, Newton steps on f_t = -t s - sum log p - sum log q
- log(R^2 - ||u||^2), p = A u - lo - s, q = hi - A u - s, maximize the
slack s from u = 0 and s = l - |l| - delta, l the least slack of 0.  Each
step halves until every slack stays positive and f_t falls by a quarter
of the Newton decrement.  t starts at 1e4 and grows 20-fold once u is
centred, no halving lowers f_t, or 50 steps pass.  The solver is
untrusted: a point counts only once verified_member accepts an iterate
with s >= tol (never the start, whose s is negative), and an empty cell
only once the certificate below proves it.  It gives up once the duality
gap (2M + 1)/t is at most tol, or once a centred u has s + (2M + 1)/t <
tol.  So a solve takes at most 50 (1 + ceil(log_20((2M + 1)/(1e4 tol))))
Newton steps, 650 at M = 4096 and the default tol with delta = 1e-6.

The certificate proves the cell on the columns A = phi[:, S] of a support
S empty.  With cell centres c = lo + delta/2 and any y in R^M, every u on
S with |a_j.u - c_j| <= h_j for all rows and ||u|| <= rho satisfies

    y.c - sum_j |y_j| h_j  <=  y.(A u)  =  (A^T y).u  <=  rho ||A^T y||,

so S holds no such u when y.c - |y|.h - rho ||A^T y|| > 0.  This holds for
every y, so y needs no trust.  Enumeration first offers each support the
least-squares residual y = c - A u_ls (k x k normal equations, O(M k^2);
a singular solve offers nothing), and the barrier offers its central-path
duals y = 1/p - 1/q, and -y, after every round.

With eps = 2**-53 and Higham's gamma_n = n eps/(1 - n eps) (Accuracy and
Stability of Numerical Algorithms, sec. 3.1), h and rho cover every point
that verified_member accepts, however it rounds:
  - rho = (R + _BALL_TOL)(1 + gamma_(2k+2)): the computed norm
    sqrt(fl(u.u)) is at least ||u|| (1 - gamma_k)^(1/2) (1 - eps).
  - A computed product p_j = fl(a_j.u) lies within
    gamma_k ||a_j|| rho + k*2**-1074 of a_j.u, in any summation order, with
    or without FMA.  These k-term products are exactly what
    verified_member computes on the support cell, whose `phi` is A.
  - floor(fl(fl(p_j + xi_j)/delta)) = code_j puts p_j within
    delta/2 + 2 eps s_j of delta*code_j - xi_j + delta/2, and c_j, four
    roundings of that value (code to double, times delta, minus xi, plus
    delta/2), lies within 4 eps s_j of it.  Here s_j =
    |c_j| + |xi_j| + 2 delta bounds every magnitude in the chain up to
    1 + O(eps); underflow in the quotient and in delta/2 adds at most
    (delta + 2)*2**-1075.
So h_j = delta/2 + tau_j with tau_j = 16 eps s_j + 2 gamma_k ||phi_j|| rho
+ (k + 4 + delta)*2**-1072, twice the sum of these bounds, which also covers
the rounding of tau_j, of the full-row norm ||phi_j|| >= ||a_j|| and of
rho.  The three terms of the certificate are sums of at most M + 2k + 4
rounded operations on magnitudes within |y|.(|c| + h + rho ||phi_j||) +
rho ||A^T y|| (the last bounds the rounding of A^T y through
||a_j|| <= ||phi_j||; the norm is taken after scaling A^T y by a power of
two, exactly, so that no square underflows to drop the ball term), so a
support counts as certified only when the
computed value exceeds pad = 2 gamma_(M+2k+4) times that magnitude, plus
(M + k)*2**-1068 for underflowing products.  Overflow and NaN make the pad
infinite or the comparison false, so they never certify.  The certificate
does not depend on `tol`: it rules out only supports on which no point
could verify, so enumeration returns exactly what it returns without it.

The linear baseline is the plain least-squares synthesis from the decoded
observation.  It deliberately enforces no consistency and serves as the
decay-rate contrast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .cellgeom import _BALL_TOL, ConsistencyCell, build_cell, verified_member
from .sensing import SensingEnsemble, SignalModel

__all__ = [
    "ReconstructionResult",
    "EnumerationCapError",
    "NoConsistentSolutionError",
    "SingularMatrixError",
    "pocs_consistent",
    "pocs_on_support",
    "qcs_enumerate",
    "linear_baseline",
]


# The most supports qcs_enumerate tries.
_ENUMERATION_CAP = 100_000


class EnumerationCapError(RuntimeError):
    """The support search space exceeds the 100000 supports enumeration tries."""


class NoConsistentSolutionError(RuntimeError):
    """No enumerated support verified.

    `supports` is the number of supports tried and `certified` how many of
    them were proved infeasible; the barrier stopped undecided on the
    others.  Only when certified == supports is this a proof that no
    consistent k-sparse vector exists in the ball.
    """

    def __init__(self, message: str, supports: int, certified: int):
        super().__init__(message)
        self.supports = supports
        self.certified = certified


# Unit roundoff, and Higham's gamma_n of the module docstring.
_EPS = 2.0**-53


def _gamma(n: int) -> float:
    return n * _EPS / (1.0 - n * _EPS)


# The barrier's rounds (module docstring).  _ROUND_STEPS ends rounds where
# slacks round to noise, as near the code guard, and u never centres.
_T0 = 1e4
_GROWTH = 20.0
_CENTRED = 1e-8
_HALVINGS = 64
_ROUND_STEPS = 50


class SingularMatrixError(np.linalg.LinAlgError):
    """The sensing matrix is rank deficient for least squares."""


@dataclass(frozen=True)
class ReconstructionResult:
    """Solver output; `consistent` is integer-code verified, and
    `proved_empty` means a certificate showed that no point of the cell verifies."""

    x_star: np.ndarray
    iterations: int
    consistent: bool
    residual: float
    proved_empty: bool


def _check_tol(delta: float, tol: float | None) -> float:
    """The slack a returned point must have, once it is valid."""
    margin = 1e-9 * delta if tol is None else float(tol)
    if not 0.0 < margin < delta / 2.0:
        raise ValueError(f"tolerance must lie in (0, delta/2), got {margin}")
    return margin


def _barrier(cell: ConsistencyCell, tol: float | None) -> ReconstructionResult:
    margin = _check_tol(cell.delta, tol)
    a, radius = cell.phi, cell.ball_radius
    m, d = a.shape

    def finish(v: np.ndarray, steps: int, consistent: bool, proved_empty: bool = False) -> ReconstructionResult:
        av = a @ v
        slab = max(0.0, float(np.max(cell.lo - av, initial=0.0)), float(np.max(av - cell.hi, initial=0.0)))
        residual = max(slab, float(np.linalg.norm(v)) - radius, 0.0)
        return ReconstructionResult(cell.embed(v), steps, consistent, residual, proved_empty)

    certified = _farkas(cell, d)
    # slacks (p, q) = g @ (u, s) - h; the start of the module docstring
    g = np.block([[a, -np.ones((m, 1))], [-a, -np.ones((m, 1))]])
    h = np.concatenate([cell.lo, -cell.hi])
    least = float(np.min(-h))
    z = np.append(np.zeros(d), least - abs(least) - cell.delta)

    def f(z: np.ndarray, t: float) -> float:
        slack, room = g @ z - h, radius * radius - z[:d] @ z[:d]
        if not (slack.min() > 0.0 and room > 0.0):
            return np.inf
        return -t * z[d] - float(np.log(slack).sum()) - np.log(room)

    t, steps, taken = _T0, 0, 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = f(z, t)
        while True:
            u, inv = z[:d], 1.0 / (g @ z - h)
            room = radius * radius - u @ u
            grad = -(g.T @ inv)
            grad[:d] += (2.0 / room) * u
            grad[d] -= t
            hess = (g.T * (inv * inv)) @ g
            hess[:d, :d] += (2.0 / room) * np.eye(d) + (4.0 / room**2) * np.outer(u, u)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.full(d + 1, np.nan)
            decrement = float(-grad @ step)
            for alpha in 0.5 ** np.arange(_HALVINGS if decrement > _CENTRED and taken < _ROUND_STEPS else 0):
                trial = f(z + alpha * step, t)
                if trial <= value - 0.25 * alpha * decrement:
                    z, value, steps, taken = z + alpha * step, trial, steps + 1, taken + 1
                    if z[d] >= margin and verified_member(cell, z[:d], ball_tol=_BALL_TOL):
                        return finish(z[:d], steps, True)
                    break
            else:
                # the end of a round: offer the duals, then stop or move on
                y = inv[:m] - inv[m:]
                if certified(a, y) or certified(a, -y):
                    return finish(z[:d], steps, False, True)
                gap = (2 * m + 1) / t
                if gap <= margin or (decrement <= _CENTRED and z[d] + gap < margin):
                    break
                t, taken = t * _GROWTH, 0
                value = f(z, t)
    return finish(z[:d], steps, False)


def pocs_consistent(ensemble: SensingEnsemble, codes: np.ndarray, tol: float | None = None) -> ReconstructionResult:
    """Find a vector reproducing the target codes inside the unit ball.

    The log-barrier of the module docstring, from 0, until an iterate with
    slack at least `tol` (default 1e-9*delta) verifies, the cell is proved
    empty, or the stop rule ends it undecided, within the step bound given
    there.  `iterations` counts Newton steps.
    """
    return _barrier(build_cell(ensemble, codes), tol)


def pocs_on_support(
    ensemble: SensingEnsemble, codes: np.ndarray, support: np.ndarray, tol: float | None = None
) -> ReconstructionResult:
    """Same solver restricted to coordinates in `support`; output is
    supported there."""
    return _barrier(build_cell(ensemble, codes, support=support), tol)


def _norm(v: np.ndarray) -> float:
    """||v|| from v scaled, exactly, by a power of two, so that the square of
    its largest entry neither underflows nor overflows."""
    e = np.frexp(np.max(np.abs(v), initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))


def _farkas(cell: ConsistencyCell, k: int):
    """certified(a, y): True only if no vector on the k columns `a` verifies,
    by the Farkas certificate of the module docstring with any y in R^M."""
    phi, xi, delta = cell.ensemble.phi, cell.ensemble.xi, cell.delta
    c = cell.lo + delta / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        rho = (cell.ball_radius + _BALL_TOL) * (1.0 + _gamma(2 * k + 2))
        row_norm = np.sqrt(np.einsum("ij,ij->i", phi, phi))
        half = delta / 2.0 + (
            16.0 * _EPS * (np.abs(c) + np.abs(xi) + 2.0 * delta)
            + 2.0 * _gamma(k) * rho * row_norm
            + (k + 4.0 + delta) * 2.0**-1072
        )
        magnitude = np.abs(c) + half + rho * row_norm
    pad_rel = 2.0 * _gamma(cell.m + 2 * k + 4)
    pad_underflow = (cell.m + k) * 2.0**-1068

    def certified(a: np.ndarray, y: np.ndarray) -> bool:
        with np.errstate(over="ignore", invalid="ignore"):
            ay = np.abs(y)
            w = _norm(a.T @ y)
            value = float(y @ c) - float(ay @ half) - rho * w
            pad = pad_rel * (float(ay @ magnitude) + rho * w) + pad_underflow
        return value > pad  # NaN and overflow never pass

    return certified


def _least_squares_residual(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c - a u_ls from the normal equations of the columns `a`; NaN if singular."""
    try:
        u_ls = np.linalg.solve(a.T @ a, a.T @ c)
    except np.linalg.LinAlgError:
        u_ls = np.full(a.shape[1], np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        return c - a @ u_ls


def qcs_enumerate(
    ensemble: SensingEnsemble, codes: np.ndarray, k: int, tol: float | None = None
) -> ReconstructionResult:
    """First consistent k-sparse solution over lexicographic k-supports.

    Each support is first offered to the certificate with its least-squares
    residual (module docstring), which rules out only supports that hold no
    verifiable point; the others get the barrier, which verifies a point,
    certifies the support infeasible or stops undecided.  Raises
    EnumerationCapError when C(n, k) exceeds 100000, and
    NoConsistentSolutionError when no support verifies, a proof only when
    every support was certified.
    """
    n = ensemble.n
    SignalModel(n, k)
    total = comb(n, k)
    if total > _ENUMERATION_CAP:
        raise EnumerationCapError(
            f"support enumeration needs {total} candidates, above the cap {_ENUMERATION_CAP}"
        )
    cell = build_cell(ensemble, codes)
    margin = _check_tol(cell.delta, tol)
    certified = _farkas(cell, k)
    c = cell.lo + cell.delta / 2.0
    ruled_out = 0
    for subset in combinations(range(n), k):
        support = np.asarray(subset, dtype=np.intp)
        a = cell.phi[:, support]
        if certified(a, _least_squares_residual(a, c)):
            ruled_out += 1
            continue
        result = pocs_on_support(ensemble, codes, support, tol)
        if result.consistent:
            return result
        ruled_out += result.proved_empty
    if ruled_out == total:
        message = (
            f"no {k}-sparse vector in the radius-1 ball reproduces the codes: "
            f"all {total} supports are certified infeasible"
        )
    else:
        message = (
            f"no {k}-support of {total} verified: {ruled_out} certified infeasible and "
            f"{total - ruled_out} undecided, with no point of slack {margin:g} verified; "
            "this is not an infeasibility certificate (a smaller tol may verify one)"
        )
    raise NoConsistentSolutionError(message, total, ruled_out)


def linear_baseline(ensemble: SensingEnsemble, codes: np.ndarray) -> np.ndarray:
    """Least-squares synthesis from the decoded, dither-corrected observation.

    Solves min_u ||phi u - (decoded - xi)|| by numpy's lstsq (LAPACK gelsd,
    SVD-based).  Not consistency-enforcing by design.
    """
    if ensemble.m < ensemble.n:
        raise ValueError(f"linear baseline requires m >= n, got m={ensemble.m}, n={ensemble.n}")
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape != (ensemble.m,):
        raise ValueError(f"codes must have shape ({ensemble.m},), got {codes.shape}")
    target = ensemble.spec.delta * (codes.astype(np.float64) + 0.5) - ensemble.xi
    solution, _, rank, _ = np.linalg.lstsq(ensemble.phi, target, rcond=None)
    if rank < ensemble.n:
        raise SingularMatrixError(f"sensing matrix has rank {rank} < {ensemble.n}")
    return solution
