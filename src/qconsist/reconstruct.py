"""Consistent reconstruction solvers and the linear least-squares baseline.

The consistent solvers run cyclic projections onto the slab constraints of
a consistency cell (with a small interior margin, so solutions verify
strictly inside the half-open cells) followed by projection onto the
unit ball.  A result is flagged consistent only when the cell's
integer-verified membership test (cellgeom.verified_member) accepts it;
residual tolerances alone never decide consistency.

A cycle steps through the rows in order, and only a row whose product
phi_j @ u falls outside its target slab moves u.  When few rows moved u in
the previous cycle, one matrix product y = phi[j:] @ u screens the rest of
the cycle, and only the rows it cannot clear get the exact per-row step
(from the next row on after every step that moves u).  Any two
floating-point evaluations of the same dot product, in any summation
order, with or without FMA, differ by at most
2*gamma_d*sum_k |phi_jk*u_k| <= 2*gamma_d*max_k |phi_jk|*||u||_1, with
gamma_d = d*2**-53/(1 - d*2**-53) on the active dimension d, plus d*2**-1074
for underflowing products (Higham, Accuracy and Stability of Numerical
Algorithms, sec. 3.1).  A row is skipped only when y lies at least twice
that bound inside its target slab, which also covers the rounding of the
bound and of the slab ends.  The exact step would then find phi_j @ u inside
the slab and leave u alone, so the screen changes no bit of u, of the cycle
count or of the result; NaN never passes it.

Support enumeration offers each support S to an infeasibility certificate
before POCS.  With cell centres c = lo + delta/2, A = phi[:, S] and any
y in R^M, every u on S with |a_j.u - c_j| <= h_j for all rows and
||u|| <= rho satisfies

    y.c - sum_j |y_j| h_j  <=  y.(A u)  =  (A^T y).u  <=  rho ||A^T y||,

so S holds no such u when y.c - |y|.h - rho ||A^T y|| > 0.  This holds for
every y; y is the least-squares residual c - A u_ls, with u_ls from the
k x k normal equations A^T A u = A^T c, O(M k^2) per support.  An inexact
solve weakens the certificate and never makes it unsound; a singular one
certifies nothing.

With eps = 2**-53 and gamma_n as above, h and rho cover every point that
verified_member accepts, however it rounds:
  - rho = (R + _BALL_TOL)(1 + gamma_(2k+2)): the computed norm
    sqrt(fl(u.u)) is at least ||u|| (1 - gamma_k)^(1/2) (1 - eps).
  - A computed product p_j = fl(a_j.u) lies within
    gamma_k ||a_j|| rho + k*2**-1074 of a_j.u (sec. 3.1 above), in any
    summation order.  These k-term products are exactly what
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
||a_j|| <= ||phi_j||), so a support counts as certified only when the
computed value exceeds pad = 2 gamma_(M+2k+4) times that magnitude, plus
(M + k)*2**-1068 for underflowing products.  Overflow and NaN make the pad
infinite or the comparison false, so they never certify.  The certificate
does not depend on the POCS margin `tol`: it rules out only supports on
which no point could verify, so enumeration returns exactly what it
returns without it.

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


class EnumerationCapError(RuntimeError):
    """The support search space exceeds the configured enumeration cap."""


class NoConsistentSolutionError(RuntimeError):
    """No enumerated support verified within the per-support cycle cap.

    `supports` is the number of supports tried, `certified` how many of
    them were certified infeasible before POCS ran, and `max_iter` the POCS
    cycle cap each of the others had.  Only when certified == supports is
    this a proof that no consistent k-sparse vector exists in the ball: a
    support that ran out of cycles may still hold a consistent solution.
    """

    def __init__(self, message: str, supports: int, max_iter: int, certified: int):
        super().__init__(message)
        self.supports = supports
        self.max_iter = max_iter
        self.certified = certified


# A cycle after one that moved u on at least this share of the rows visits
# every row: on such dense cycles (infeasible enumeration supports move u on
# 30-87% of them) the screen costs more than it skips.  1/4 and 1/16 timed
# the same.
_DENSE_SHARE = 1.0 / 8.0


# Unit roundoff, and Higham's gamma_n of the module docstring.
_EPS = 2.0**-53


def _gamma(n: int) -> float:
    return n * _EPS / (1.0 - n * _EPS)


class SingularMatrixError(np.linalg.LinAlgError):
    """The sensing matrix is rank deficient for least squares."""


@dataclass(frozen=True)
class ReconstructionResult:
    """Solver output; `consistent` is integer-code verified."""

    x_star: np.ndarray
    iterations: int
    consistent: bool
    residual: float


def _check_budget(delta: float, tol: float | None, max_iter: int) -> float:
    """The POCS interior margin, once it and the cycle cap are validated."""
    margin = 1e-9 * delta if tol is None else float(tol)
    if not 0.0 < margin < delta / 2.0:
        raise ValueError(f"tolerance must lie in (0, delta/2), got {margin}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    return margin


def _pocs(
    cell: ConsistencyCell,
    tol: float | None,
    max_iter: int,
    x0: np.ndarray | None,
) -> ReconstructionResult:
    margin = _check_budget(cell.delta, tol, max_iter)
    ball_radius = cell.ball_radius
    phi = cell.phi
    row_norm2 = np.einsum("ij,ij->i", phi, phi)
    m, d = phi.shape

    if x0 is None:
        u = np.zeros(d)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (cell.dim,):
            raise ValueError(f"start point has shape {x0.shape}, expected ({cell.dim},)")
        u = cell.restrict(x0).copy()

    def verified(v: np.ndarray) -> bool:
        return verified_member(cell, v, ball_tol=_BALL_TOL)

    def max_violation(v: np.ndarray) -> float:
        y = phi @ v
        slab = max(0.0, float(np.max(cell.lo - y, initial=0.0)), float(np.max(y - cell.hi, initial=0.0)))
        return max(slab, float(np.linalg.norm(v)) - ball_radius, 0.0)

    if verified(u):
        return ReconstructionResult(x_star=cell.embed(u), iterations=0, consistent=True, residual=max_violation(u))

    target_lo = cell.lo + margin
    target_hi = cell.hi - margin
    # The row screen's pad, twice the bound on how far two dot products of
    # a row and u may differ (module docstring).
    pad_per_mass = 4.0 * _gamma(d) * np.max(np.abs(phi), axis=1, initial=0.0)
    pad_underflow = d * 2.0**-1072

    def may_move(start: int) -> list[int]:
        """Rows from `start` on whose exact step can change u."""
        y = phi[start:] @ u
        pad = float(np.abs(u).sum()) * pad_per_mass[start:] + pad_underflow
        inside = (y >= target_lo[start:] + pad) & (y <= target_hi[start:] - pad)
        return (np.flatnonzero(~inside) + start).tolist()

    # The same doubles as Python values: each exact step runs the same ddot
    # on the same C-order row, and the same float arithmetic, as phi[j] @ u.
    rows = list(phi)
    lo_t, hi_t, norm2 = target_lo.tolist(), target_hi.tolist(), row_norm2.tolist()
    iterations = 0
    consistent = False
    moved = m  # the first cycle visits every row
    for iterations in range(1, max_iter + 1):
        screened = moved < m * _DENSE_SHARE
        moved = 0
        todo = may_move(0) if screened else range(m)
        i = 0
        while i < len(todo):
            j = todo[i]
            i += 1
            y = float(rows[j] @ u)
            if lo_t[j] <= y <= hi_t[j]:
                continue
            c = min(max(y, lo_t[j]), hi_t[j])
            # a row with norm2 == 0 is invisible on this support; nothing can fix it
            if y != c and norm2[j] != 0.0:
                u -= ((y - c) / norm2[j]) * rows[j]
                moved += 1
                if screened:
                    todo, i = may_move(j + 1), 0
        changed = moved > 0
        nrm = float(np.linalg.norm(u))
        if nrm > ball_radius:
            u *= ball_radius / nrm
            changed = True
        if verified(u):
            consistent = True
            break
        if not changed:
            break  # stuck: every reachable constraint holds yet codes disagree
    return ReconstructionResult(
        x_star=cell.embed(u), iterations=iterations, consistent=consistent, residual=max_violation(u)
    )


def pocs_consistent(
    ensemble: SensingEnsemble,
    codes: np.ndarray,
    tol: float | None = None,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> ReconstructionResult:
    """Find a vector reproducing the target codes inside the unit ball.

    Cyclic slab projections with interior margin `tol` (default
    1e-9*delta), then ball projection, until the integer codes verify or
    `max_iter` cycles pass.  `iterations` counts full cycles; a start point
    that already verifies returns unchanged with iterations=0.
    """
    return _pocs(build_cell(ensemble, codes), tol, max_iter, x0)


def pocs_on_support(
    ensemble: SensingEnsemble,
    codes: np.ndarray,
    support: np.ndarray,
    tol: float | None = None,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> ReconstructionResult:
    """Same iteration restricted to coordinates in `support`; output is
    supported there."""
    return _pocs(build_cell(ensemble, codes, support=support), tol, max_iter, x0)


def _infeasibility_screen(cell: ConsistencyCell, k: int):
    """certified(support): True only if no k-vector on `support` verifies.

    The Farkas certificate of the module docstring, from the least-squares
    residual y of the cell centres c on the support columns.  A singular or
    non-finite solve certifies nothing.
    """
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

    def certified(support: tuple[int, ...]) -> bool:
        a = phi[:, np.asarray(support, dtype=np.intp)]
        try:
            u_ls = np.linalg.solve(a.T @ a, a.T @ c)
        except np.linalg.LinAlgError:
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            y = c - a @ u_ls
            ay = np.abs(y)
            w = float(np.linalg.norm(a.T @ y))
            value = float(y @ c) - float(ay @ half) - rho * w
            pad = pad_rel * (float(ay @ magnitude) + rho * w) + pad_underflow
        return value > pad  # NaN and overflow never pass

    return certified


def qcs_enumerate(
    ensemble: SensingEnsemble,
    codes: np.ndarray,
    k: int,
    tol: float | None = None,
    max_iter: int = 200,
    enumeration_cap: int = 100_000,
) -> ReconstructionResult:
    """First consistent k-sparse solution over lexicographic k-supports.

    Each support is first offered to an infeasibility certificate (module
    docstring); only the supports it cannot rule out get POCS, with
    `max_iter` cycles each.  The certificate removes only supports that
    hold no verifiable point, so the result is the one plain enumeration
    gives.  Raises EnumerationCapError when C(n, k) exceeds
    `enumeration_cap`, and NoConsistentSolutionError when no support
    verifies.  That error proves that no consistent k-sparse vector exists
    only when every support was certified; otherwise a feasible support that
    needs more than `max_iter` cycles fails the same way.
    """
    n = ensemble.n
    SignalModel(n, k)
    total = comb(n, k)
    if total > enumeration_cap:
        raise EnumerationCapError(
            f"support enumeration needs {total} candidates, above the cap {enumeration_cap}"
        )
    cell = build_cell(ensemble, codes)
    _check_budget(cell.delta, tol, max_iter)
    certified = _infeasibility_screen(cell, k)
    ruled_out = 0
    for subset in combinations(range(n), k):
        if certified(subset):
            ruled_out += 1
            continue
        result = pocs_on_support(ensemble, codes, np.asarray(subset, dtype=np.intp), tol, max_iter)
        if result.consistent:
            return result
    if ruled_out == total:
        message = (
            f"no {k}-sparse vector in the radius-1 ball reproduces the codes: "
            f"all {total} supports are certified infeasible"
        )
    else:
        message = (
            f"no {k}-support of {total} verified within max_iter={max_iter} POCS cycles "
            f"({ruled_out} certified infeasible); this is not an infeasibility certificate "
            "(a larger max_iter may verify one)"
        )
    raise NoConsistentSolutionError(message, total, max_iter, ruled_out)


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
