"""Consistent reconstruction solvers and the linear least-squares baseline.

The consistent solvers run cyclic projections onto the slab constraints of
a consistency cell (with a small interior margin, so solutions verify
strictly inside the half-open cells) followed by projection onto the
radius-R ball.  A result is flagged consistent only when the cell's
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
from .sensing import SensingEnsemble

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

    This is not an infeasibility certificate: a support that ran out of
    cycles may still hold a consistent solution.  `supports` is the number
    of supports tried and `max_iter` the POCS cycle cap each one had.
    """

    def __init__(self, message: str, supports: int, max_iter: int):
        super().__init__(message)
        self.supports = supports
        self.max_iter = max_iter


# A cycle after one that moved u on at least this share of the rows visits
# every row: on such dense cycles (infeasible enumeration supports move u on
# 30-87% of them) the screen costs more than it skips.  1/4 and 1/16 timed
# the same.
_DENSE_SHARE = 1.0 / 8.0


class SingularMatrixError(np.linalg.LinAlgError):
    """The sensing matrix is rank deficient for least squares."""


@dataclass(frozen=True)
class ReconstructionResult:
    """Solver output; `consistent` is integer-code verified."""

    x_star: np.ndarray
    iterations: int
    consistent: bool
    residual: float


def _pocs(
    cell: ConsistencyCell,
    tol: float | None,
    max_iter: int,
    x0: np.ndarray | None,
) -> ReconstructionResult:
    delta = cell.delta
    margin = 1e-9 * delta if tol is None else float(tol)
    if not 0.0 < margin < delta / 2.0:
        raise ValueError(f"tolerance must lie in (0, delta/2), got {margin}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    ball_radius = cell.ball_radius
    # contiguous copy: keeps BLAS summation order identical to the
    # unrestricted path, so support=[n] reproduces pocs_consistent bitwise
    phi = np.ascontiguousarray(cell.phi)
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
        return verified_member(cell, v, ball_tol=_BALL_TOL, phi=phi)

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
    pad_per_mass = 4.0 * (d * 2.0**-53 / (1.0 - d * 2.0**-53)) * np.max(np.abs(phi), axis=1, initial=0.0)
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
    ball_radius: float = 1.0,
    tol: float | None = None,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> ReconstructionResult:
    """Find a vector reproducing the target codes inside the radius-R ball.

    Cyclic slab projections with interior margin `tol` (default
    1e-9*delta), then ball projection, until the integer codes verify or
    `max_iter` cycles pass.  `iterations` counts full cycles; a start point
    that already verifies returns unchanged with iterations=0.
    """
    return _pocs(build_cell(ensemble, codes, ball_radius), tol, max_iter, x0)


def pocs_on_support(
    ensemble: SensingEnsemble,
    codes: np.ndarray,
    support: np.ndarray,
    ball_radius: float = 1.0,
    tol: float | None = None,
    max_iter: int = 100_000,
    x0: np.ndarray | None = None,
) -> ReconstructionResult:
    """Same iteration restricted to coordinates in `support`; output is
    supported there."""
    return _pocs(build_cell(ensemble, codes, ball_radius, support), tol, max_iter, x0)


def qcs_enumerate(
    ensemble: SensingEnsemble,
    codes: np.ndarray,
    k: int,
    ball_radius: float = 1.0,
    tol: float | None = None,
    max_iter: int = 200,
    enumeration_cap: int = 100_000,
) -> ReconstructionResult:
    """First consistent k-sparse solution over lexicographic k-supports.

    Raises EnumerationCapError when C(n, k) exceeds `enumeration_cap`, and
    NoConsistentSolutionError when no support verifies within `max_iter`
    cycles each.  That error is not an infeasibility certificate: a
    feasible support that needs more than `max_iter` cycles fails the same
    way.  The default per-support budget is intentionally modest, since
    POCS cannot tell an infeasible support from a slow one.
    """
    n = ensemble.n
    if not 1 <= k <= n:
        raise ValueError(f"sparsity must satisfy 1 <= k <= n, got k={k}, n={n}")
    total = comb(n, k)
    if total > enumeration_cap:
        raise EnumerationCapError(
            f"support enumeration needs {total} candidates, above the cap {enumeration_cap}"
        )
    for subset in combinations(range(n), k):
        result = pocs_on_support(
            ensemble, codes, np.asarray(subset, dtype=np.intp), ball_radius, tol, max_iter
        )
        if result.consistent:
            return result
    raise NoConsistentSolutionError(
        f"no {k}-support of {total} verified within max_iter={max_iter} POCS cycles; "
        "this is not an infeasibility certificate (a larger max_iter may verify one)",
        total,
        max_iter,
    )


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
