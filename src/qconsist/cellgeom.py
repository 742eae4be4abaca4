"""Exact geometry of strict and relaxed consistency cells.

A consistency cell is the convex set of vectors u with ||u|| <= R (and
optionally supp(u) inside a fixed index set) whose quantized observation
under a given ensemble equals a given code vector.  Per measurement j the
constraint is a slab on the coordinate phi_j . u:

    lo_j <= phi_j . u < hi_j,   lo_j = delta*code_j - xi_j,  hi_j = lo_j + delta.

The relaxed cell at level r admits vectors whose codes differ from the
target by at most r unit steps in l1.  Every cell is built from an
ensemble, and keeps the sensing columns on its support once, as `phi`.
Membership has one test, verified_member: the ball norm, then the l1
distance of integer codes.

Rays from an interior point exit the cell in closed form: each slab with
directional gradient g = phi_j . d bounds t by (hi_j - w_j)/g for g > 0 or
(lo_j - w_j)/g for g < 0 (no bound for g = 0), the ball bounds t by the
positive root of ||x0 + t d|| = R, and the exit is the minimum.  For the
relaxed cell the exit is the time of the (r+1)-th grid-boundary crossing
accumulated over all measurements, or the ball exit if that comes first.
Crossing times per measurement form an arithmetic progression (first
boundary ahead, then every delta/|g|), so only the first r+1 terms of each
progression can matter.  Nor can any measurement outside the r+1 whose
first crossings come earliest: those r+1 first crossings all come no later
than the largest of them, and no other measurement crosses before it.  Each
direction therefore partitions (r+1)^2 candidates, whatever M is.

Width estimates are certified lower bounds: the witness point re-quantizes
to the cell's codes (integer equality; discrepancy <= r for relaxed cells)
after a relative 1e-12 pullback that keeps it strictly inside the
half-open slabs.  Where rounding defeats that pullback on a short exit,
the pullback doubles until the witness verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import _encode_values
from .randkit import Stream, gauss, substream
from .sensing import SensingEnsemble, SignalModel, sample_signal, sense

__all__ = [
    "ConsistencyCell",
    "WidthEstimate",
    "WorstCaseResult",
    "NotInCellError",
    "build_cell",
    "cell_contains",
    "verified_member",
    "ray_exit_strict",
    "ray_exit_relaxed",
    "estimate_width",
    "empirical_worst_case",
]

# Relative pullback applied to ray exits before emitting witnesses, so that
# integer re-encoding verifies strictly inside the half-open slabs.
_EXIT_MARGIN = 1e-12

# Norm slack granted when verifying witnesses against the closed ball; codes
# are always checked by exact integer equality.
_BALL_TOL = 1e-9


class NotInCellError(ValueError):
    """A point claimed to lie in the cell does not (integer-code verified)."""


@dataclass(frozen=True)
class ConsistencyCell:
    """Slab + ball + optional support description of one consistency cell.

    `support`, when set, restricts the cell to the subspace of vectors
    supported on those indices, and `phi` holds the sensing matrix's columns
    on it (all of `ensemble.phi` itself for a free cell), so `phi.shape[1]`
    is the active dimension.  The support columns are the F-order slice
    `ensemble.phi[:, support]`, built once: ray exits multiply with it as
    is, and POCS with its C-order copy.  The two layouts round some
    products differently in the last bit, and the artifacts depend on each
    keeping its own.  `dim` is the ambient dimension.
    """

    ensemble: SensingEnsemble
    codes: np.ndarray
    ball_radius: float
    support: np.ndarray | None
    phi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    dim: int

    @property
    def m(self) -> int:
        return self.codes.shape[0]

    @property
    def delta(self) -> float:
        return self.ensemble.spec.delta

    def on_support(self, u: np.ndarray) -> bool:
        """Whether a full-dimension vector is zero off the support."""
        if self.support is None:
            return True
        off = np.ones(self.dim, dtype=bool)
        off[self.support] = False
        return not np.any(u[off] != 0.0)

    def restrict(self, u: np.ndarray) -> np.ndarray:
        """Active coordinates of a full-dimension vector."""
        return u if self.support is None else u[self.support]

    def embed(self, u_act: np.ndarray) -> np.ndarray:
        """Full-dimension vector, zero off the support, from active coordinates."""
        if self.support is None:
            return u_act
        full = np.zeros(self.dim)
        full[self.support] = u_act
        return full


def build_cell(
    ensemble: SensingEnsemble,
    codes: np.ndarray,
    ball_radius: float = 1.0,
    support: np.ndarray | None = None,
) -> ConsistencyCell:
    """Cell descriptor for the given ensemble, target codes, and signal set."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.shape != (ensemble.m,):
        raise ValueError(f"codes must have shape ({ensemble.m},), got {codes.shape}")
    if not ball_radius > 0.0:
        raise ValueError(f"ball radius must be positive, got {ball_radius}")
    if support is not None:
        support = np.unique(np.asarray(support, dtype=np.intp))
        if support.size == 0 or support[0] < 0 or support[-1] >= ensemble.n:
            raise ValueError("support must be a nonempty subset of the coordinate indices")
    delta = ensemble.spec.delta
    lo = delta * codes.astype(np.float64) - ensemble.xi
    return ConsistencyCell(
        ensemble=ensemble,
        codes=codes,
        ball_radius=float(ball_radius),
        support=support,
        phi=ensemble.phi if support is None else ensemble.phi[:, support],
        lo=lo,
        hi=lo + delta,
        dim=ensemble.n,
    )


def verified_member(
    cell: ConsistencyCell, u: np.ndarray, r: int = 0, ball_tol: float = 0.0, phi: np.ndarray | None = None
) -> bool:
    """The membership test: ||u|| <= R + ball_tol and l1 code distance <= r.

    Codes are compared as integers.  `phi` defaults to the full sensing
    matrix; a caller working in active coordinates passes the support
    columns it multiplies with (see ConsistencyCell on their layout).
    """
    if float(np.linalg.norm(u)) > cell.ball_radius + ball_tol:
        return False
    phi = cell.ensemble.phi if phi is None else phi
    codes_u = _encode_values(phi @ u + cell.ensemble.xi, cell.delta)
    return int(np.abs(codes_u - cell.codes).sum()) <= r


def cell_contains(cell: ConsistencyCell, u: np.ndarray, r: int = 0, ball_tol: float = 0.0) -> bool:
    """Integer-verified membership of u in the (r-relaxed) cell."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (cell.dim,):
        raise ValueError(f"point has shape {u.shape}, expected ({cell.dim},)")
    return cell.on_support(u) and verified_member(cell, u, r, ball_tol)


def _ball_exits(x0: np.ndarray, directions: np.ndarray, radius: float) -> np.ndarray:
    # Positive root of ||x0 + t d||^2 = R^2 per unit column d; clamped at 0
    # for origins that sit on the sphere within rounding.
    c = x0 @ directions
    disc = c * c + (radius * radius - float(x0 @ x0))
    return np.maximum(-c + np.sqrt(np.maximum(disc, 0.0)), 0.0)


def _ray_exits(cell: ConsistencyCell, x0_act: np.ndarray, directions: np.ndarray, r: int) -> np.ndarray:
    """Exit times for unit direction columns, in active coordinates."""
    t_ball = _ball_exits(x0_act, directions, cell.ball_radius)
    w = cell.phi @ x0_act
    g = cell.phi @ directions
    # the slab end ahead of each ray; g == 0 rows never cross, and a
    # subnormal g may overflow the quotient to inf
    end = np.where(g > 0.0, (cell.hi - w)[:, None], (cell.lo - w)[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        first = np.where(g != 0.0, end / g, np.inf)
    # membership guarantees lo <= w < hi up to rounding; clamp the ulp-level
    # negatives that exact-boundary origins can produce
    first = np.maximum(first, 0.0)
    if r == 0:
        t_slab = first.min(axis=0)
        return np.minimum(t_slab, t_ball)
    # The r+1 earliest first crossings are r+1 crossings no later than the
    # largest of them, and every other row crosses no earlier than that; so
    # the (r+1)-th crossing overall comes from those r+1 rows alone.
    if r + 1 < cell.m:
        # row-major partition per direction: faster than along axis 0
        near = np.argpartition(first.T, r, axis=1)[:, : r + 1].T
        cols = np.arange(directions.shape[1])
        first, g = first[near, cols], g[near, cols]
    # First r+1 crossings per kept row; kth index r selects the (r+1)-th
    # smallest of them per direction.  The spacing is capped at the largest
    # double so that a g == 0 row (or a delta/|g| that overflows) adds
    # 0, not inf*0 = nan, to its first crossing.
    steps = np.arange(r + 1, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        spacing = np.minimum(cell.delta / np.abs(g), np.finfo(np.float64).max)
        candidates = first[:, :, None] + spacing[:, :, None] * steps
    flat = candidates.transpose(1, 0, 2).reshape(directions.shape[1], -1)
    t_cross = np.partition(flat, r, axis=1)[:, r]
    return np.minimum(t_cross, t_ball)


def _check_ray_inputs(cell: ConsistencyCell, x0: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x0 = np.asarray(x0, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if not cell_contains(cell, x0):
        raise NotInCellError("ray origin is not a member of the cell")
    if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    if not cell.on_support(d):
        raise ValueError("direction must be supported on the cell's support set")
    return cell.restrict(x0), cell.restrict(d)


def ray_exit_strict(cell: ConsistencyCell, x0: np.ndarray, d: np.ndarray) -> float:
    """sup{t >= 0 : x0 + t d stays in the strict cell}, in closed form."""
    x0_act, d_act = _check_ray_inputs(cell, x0, d)
    return float(_ray_exits(cell, x0_act, d_act[:, None], 0)[0])


def ray_exit_relaxed(cell: ConsistencyCell, x0: np.ndarray, d: np.ndarray, r: int) -> float:
    """sup{t >= 0 : at most r grid crossings along [x0, x0 + t d], inside the ball}."""
    if r < 0:
        raise ValueError(f"relaxation level must be >= 0, got {r}")
    x0_act, d_act = _check_ray_inputs(cell, x0, d)
    return float(_ray_exits(cell, x0_act, d_act[:, None], int(r))[0])


@dataclass(frozen=True)
class WidthEstimate:
    """Certified lower bound on the cell radius around `center`.

    `witness` lies in the cell (integer-code verified) at distance `value`
    from the center.
    """

    value: float
    witness: np.ndarray
    num_directions: int
    center: np.ndarray


def _random_directions(stream: Stream, dim: int, count: int) -> np.ndarray:
    # Drawn direction-major so that direction sets are nested as count grows
    # under a replayed stream.
    while True:
        a = gauss(stream, (count, dim))
        norms = np.linalg.norm(a, axis=1)
        if np.all(norms > 0.0):
            return (a / norms[:, None]).T


def estimate_width(
    cell: ConsistencyCell,
    center: np.ndarray,
    num_directions: int,
    stream: Stream,
    r: int = 0,
) -> WidthEstimate:
    """Directional lower bound on the (r-relaxed) cell radius around center.

    Shoots `num_directions` random unit directions plus every signed
    canonical axis of the active coordinates, keeps the farthest exit, and
    returns it with a verified witness.  The value never decreases when
    `num_directions` grows under a replayed stream (nested direction sets).
    A witness that rounding leaves outside the cell is pulled back twice as
    far and re-verified; the center itself verifies, so this ends.
    """
    if num_directions < 1:
        raise ValueError(f"need at least one direction, got {num_directions}")
    center = np.asarray(center, dtype=np.float64)
    if not cell_contains(cell, center):
        raise NotInCellError("width center is not a member of the cell")
    dim = cell.phi.shape[1]
    rand = _random_directions(stream, dim, num_directions)
    axes = np.hstack([np.eye(dim), -np.eye(dim)])
    directions = np.hstack([rand, axes])
    center_act = cell.restrict(center)
    exits = _ray_exits(cell, center_act, directions, int(r))
    margin = _EXIT_MARGIN
    while True:
        pulled = exits * max(1.0 - margin, 0.0)
        best = int(np.argmax(pulled))
        value = float(pulled[best])
        witness = cell.embed(center_act + value * directions[:, best])
        if cell_contains(cell, witness, r=int(r), ball_tol=_BALL_TOL):
            break
        margin *= 2.0
    return WidthEstimate(
        value=value,
        witness=witness,
        num_directions=directions.shape[1],
        center=center.copy(),
    )


@dataclass(frozen=True)
class WorstCaseResult:
    """Monte Carlo outer maximization over sampled signals."""

    max_width: float
    widths: np.ndarray


def empirical_worst_case(
    ensemble: SensingEnsemble,
    model: SignalModel,
    trials: int,
    num_directions: int,
    master_seed: int,
) -> WorstCaseResult:
    """Max width estimate over `trials` signals sampled from the model.

    Trial i draws from the substream (master_seed, i), so results are
    independent of execution order.  Sparse-model widths are measured
    inside the sampled signal's true support subspace.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    widths = np.zeros(trials)
    for i in range(trials):
        stream = substream(master_seed, i)
        signal = sample_signal(model, stream)
        obs = sense(ensemble, signal)
        cell = build_cell(ensemble, obs.codes, ball_radius=1.0, support=signal.support)
        widths[i] = estimate_width(cell, signal.x, num_directions, stream).value
    return WorstCaseResult(max_width=float(widths.max()), widths=widths)
