"""Exact geometry of strict and relaxed consistency cells.

A consistency cell is the convex set of vectors u with ||u|| <= R (and
optionally supp(u) inside a fixed index set) whose quantized observation
under a given ensemble equals a given code vector.  Per measurement j the
constraint is a slab on the coordinate phi_j . u:

    lo_j <= phi_j . u < hi_j,   lo_j = delta*code_j - xi_j,  hi_j = lo_j + delta.

The relaxed cell at level r admits vectors whose codes differ from the
target by at most r unit steps in l1.

Rays from an interior point exit the cell in closed form: each slab with
directional gradient g = phi_j . d bounds t by (hi_j - w_j)/g for g > 0 or
(lo_j - w_j)/g for g < 0 (no bound for g = 0), the ball bounds t by the
positive root of ||x0 + t d|| = R, and the exit is the minimum.  For the
relaxed cell the exit is the time of the (r+1)-th grid-boundary crossing
accumulated over all measurements, or the ball exit if that comes first.
Crossing times per measurement form an arithmetic progression (first
boundary ahead, then every delta/|g|), so only the first r+1 terms of each
progression can matter.

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
    "ball_cell",
    "cell_contains",
    "verified_member",
    "code_discrepancy",
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

    `ensemble` is None for the unconstrained ball (no slabs), used as the
    degenerate base case.  `support`, when set, restricts the cell to the
    subspace of vectors supported on those indices.  `dim` is the ambient
    dimension.
    """

    ensemble: SensingEnsemble | None
    codes: np.ndarray
    ball_radius: float
    support: np.ndarray | None
    lo: np.ndarray
    hi: np.ndarray
    dim: int

    @property
    def m(self) -> int:
        return self.codes.shape[0]

    @property
    def delta(self) -> float:
        return self.ensemble.spec.delta if self.ensemble is not None else float("nan")

    def active_phi(self) -> np.ndarray:
        """Rows restricted to the support coordinates (all columns if free)."""
        if self.ensemble is None:
            return np.zeros((0, self.active_dim()))
        if self.support is None:
            return self.ensemble.phi
        return self.ensemble.phi[:, self.support]

    def active_dim(self) -> int:
        return self.dim if self.support is None else int(self.support.shape[0])

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
        lo=lo,
        hi=lo + delta,
        dim=ensemble.n,
    )


def ball_cell(n: int, ball_radius: float = 1.0) -> ConsistencyCell:
    """Cell with no slab constraints: the radius-R ball in R^n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return ConsistencyCell(
        ensemble=None,
        codes=np.zeros(0, dtype=np.int64),
        ball_radius=float(ball_radius),
        support=None,
        lo=np.zeros(0),
        hi=np.zeros(0),
        dim=int(n),
    )


def code_discrepancy(cell: ConsistencyCell, u: np.ndarray, phi: np.ndarray | None = None) -> int:
    """l1 code distance between u's observation and the cell's target codes.

    `phi` defaults to the full sensing matrix; a caller working in active
    coordinates passes the support columns it multiplies with (a C-order
    copy and the F-order slice of the same columns round differently).
    """
    if cell.ensemble is None:
        return 0
    phi = cell.ensemble.phi if phi is None else phi
    codes_u = _encode_values(phi @ u + cell.ensemble.xi, cell.delta)
    return int(np.abs(codes_u - cell.codes).sum())


def verified_member(
    cell: ConsistencyCell, u: np.ndarray, r: int = 0, ball_tol: float = 0.0, phi: np.ndarray | None = None
) -> bool:
    """The membership test: ||u|| <= R + ball_tol and code discrepancy <= r.

    Codes are compared as integers; `u` and `phi` are as in code_discrepancy.
    """
    if float(np.linalg.norm(u)) > cell.ball_radius + ball_tol:
        return False
    return code_discrepancy(cell, u, phi) <= r


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
    if cell.m == 0:
        return t_ball
    phi = cell.active_phi()
    w = phi @ x0_act
    g = phi @ directions
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(
            g > 0.0,
            (cell.hi[:, None] - w[:, None]) / g,
            np.where(g < 0.0, (cell.lo[:, None] - w[:, None]) / g, np.inf),
        )
    # membership guarantees lo <= w < hi up to rounding; clamp the ulp-level
    # negatives that exact-boundary origins can produce
    first = np.maximum(first, 0.0)
    if r == 0:
        t_slab = first.min(axis=0)
        return np.minimum(t_slab, t_ball)
    with np.errstate(divide="ignore"):
        spacing = np.where(g != 0.0, cell.delta / np.abs(g), np.inf)
    # First r+1 crossings per measurement; the (r+1)-th smallest overall is
    # among them.  kth index r selects that order statistic per direction.
    steps = np.arange(r + 1, dtype=np.float64)
    candidates = first[:, :, None] + spacing[:, :, None] * steps
    # g == 0 rows produce inf + inf*0 = nan; those measurements never cross.
    candidates = np.where(np.isnan(candidates), np.inf, candidates)
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
    dim = cell.active_dim()
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
    r: int = 0,
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
        widths[i] = estimate_width(cell, signal.x, num_directions, stream, r=r).value
    return WorstCaseResult(max_width=float(widths.max()), widths=widths)
