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
directional gradient g = phi_j . d bounds t by its first crossing,
(hi_j - w_j)/g for g > 0 or (lo_j - w_j)/g for g < 0 (no bound for g = 0),
the ball bounds t by the positive root of ||x0 + t d|| = R, and the exit
is the minimum.  The kernel takes the first crossing as the larger of the
two quotients, with no case split, and gets the same double:
- lo_j <= hi_j, and subtraction rounds monotonically, so the computed gaps
  keep lo_j - w_j <= hi_j - w_j exactly; division by a g of fixed sign
  rounds monotonically too, so the larger quotient is the one the case
  split picks.  The two differ in bits yet compare equal only as +0 and
  -0, when both underflow, and the clamp at 0 below returns +0 for either.
- For g = 0 the quotients are -inf and +inf, so the row never crosses, on
  every row with lo_j - w_j < 0 < hi_j - w_j.  Only a row with
  hi_j - w_j <= 0 or lo_j - w_j >= 0, where the origin sits on a slab
  boundary or past it by rounding, can give -inf or nan (0/0); those rows
  are found in O(M), and only their g = 0 entries are set to inf.
- Membership guarantees lo <= w < hi only up to rounding, so crossings are
  clamped at 0.  For the strict exit the clamp follows the min over rows,
  with which it commutes, so it runs once per direction.

For the relaxed cell the exit is the time of the (r+1)-th grid-boundary
crossing accumulated over all measurements, or the ball exit if that comes
first.
Crossing times per measurement form an arithmetic progression (first
boundary ahead, then every delta/|g|), so only the first r+1 terms of each
progression can matter.  Nor can any measurement outside the r+1 whose
first crossings come earliest: those r+1 first crossings all come no later
than the largest of them, and no other measurement crosses before it.  Each
direction therefore partitions (r+1)^2 candidates, whatever M is.

On cells with more than _SCREEN_ROWS*(r+1)*dim rows, shot along enough
directions, a certified row screen first drops the rows that cannot decide
any exit.  Along a unit d, row j's
first crossing is at least its reach L_j = dist_j/||phi_j||, with
dist_j = min(hi_j - w_j, w_j - lo_j).  The exits over the probe, the
_PROBE_ROWS*(r+1)*dim rows of least reach, come per direction no earlier
than the exits over all rows, since the (r+1)-th crossing of a subset of
the candidates comes no earlier.  So U, the largest over all directions of
min(probe exit, ball exit), bounds every direction's exit, and a row whose
first crossing comes after U along every direction changes no exit.  The
rows with L_j*(1 - pad) <= U are kept and go through the exit code above.
g = phi @ directions stays one product, indexed by the kept rows, so every
candidate, and so every exit, is the same double as without the screen.

The pad, _SCREEN_PAD = 1e-8, makes "L_j*(1 - pad) > U in floating point"
imply "computed first crossing > U" for every d, with u = 2^-53 and n = dim:
- dist_j is the computed min of the two doubles hi - w and w - lo, and the
  slab end ahead of the ray is one of them (w - lo = -(lo - w) exactly), so
  |end| >= dist_j holds exactly.  The computed first crossing is end/g, the
  same double whether taken from the case split or as the larger quotient,
  so what follows holds for either form.  A dist_j <= 0 (an origin on a slab
  boundary, or past it by rounding) gives L_j <= 0, and U >= 0, so the row
  is kept.
- |fl(g)| <= (1 + n u)*||phi_j||*||d|| in any summation order, FMA or not;
  the computed norm sqrt(sum phi_jk^2) is at least ||phi_j||*(1 - (n/2 + 1)u);
  and the quotients dist/norm and end/g, the constant 1 - pad and the
  product L*(1 - pad) each round by at most u.  So, to first order in u,
  computed first >= computed L*(1 - pad) whenever
  (1 - pad)*||d|| <= 1 - (1.5n + 6)u.
- ray_exit_strict and ray_exit_relaxed accept a computed ||d|| within 1e-9
  of 1, and estimate_width's directions are unit to (n/2 + 2)u; so
  ||d|| <= 1 + 1e-9 + (n/2 + 2)u, and pad >= 1e-9 + (2n + 8)u is needed,
  which 1e-8 covers for every n below 4*10^7.  A bare 1e-9 is not enough.
- The relative bounds hold in the normal range.  Rows whose computed norm
  is below _TINY = 2^-500 (zero rows, whose L is inf or nan, and rows whose
  squares underflow) get L = 0 and are kept, and U is raised to at least
  _TINY.  A dropped row then has a normal L and first crossing, and
  products that underflow, a subnormal g among them, add at most
  n*2^-1074, far below u*||phi_j||*||d||, to g.

Width estimates are certified lower bounds: the witness point re-quantizes
to the cell's codes (integer equality; discrepancy <= r for relaxed cells)
after a relative 1e-12 pullback that keeps it strictly inside the
half-open slabs.  Where rounding defeats that pullback on a short exit,
the pullback doubles until the witness verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

# Row screen of _ray_exits (module docstring): it runs on cells with more
# than _SCREEN_ROWS * (r+1) * dim rows and calls with at least _SCREEN_PAIRS
# (row, direction) pairs, where it pays, and probes the _PROBE_ROWS * (r+1) *
# dim rows of least reach.  Below _SCREEN_PAIRS its dozen small numpy calls
# cost more than they save, and more still in the threaded campaign runner,
# where they hold the GIL that the large unscreened ones release.
# _SCREEN_PAD and _TINY make it exact.
_SCREEN_ROWS = 20
_SCREEN_PAIRS = 2**15
_PROBE_ROWS = 8
_SCREEN_PAD = 1e-8
_TINY = 2.0**-500


class NotInCellError(ValueError):
    """A point claimed to lie in the cell does not (integer-code verified)."""


@dataclass(frozen=True)
class ConsistencyCell:
    """Slab + ball + optional support description of one consistency cell.

    `support`, when set, restricts the cell to the subspace of vectors
    supported on those indices, and `phi` holds the sensing matrix's columns
    on it (all of `ensemble.phi` itself for a free cell), so `phi.shape[1]`
    is the active dimension.  It is C-contiguous like `ensemble.phi`, and
    membership, ray exits and the solvers multiply it with active
    coordinates.  `dim` is the ambient dimension.
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
        phi=ensemble.phi if support is None else ensemble.phi.take(support, axis=1),
        lo=lo,
        hi=lo + delta,
        dim=ensemble.n,
    )


def verified_member(cell: ConsistencyCell, u_act: np.ndarray, r: int = 0, ball_tol: float = 0.0) -> bool:
    """The membership test: ||u|| <= R + ball_tol and l1 code distance <= r.

    `u_act` holds the active coordinates of u (see ConsistencyCell), and
    its codes are those of cell.phi @ u_act + xi, compared as integers.
    """
    if float(np.linalg.norm(u_act)) > cell.ball_radius + ball_tol:
        return False
    codes_u = _encode_values(cell.phi @ u_act + cell.ensemble.xi, cell.delta)
    return int(np.abs(codes_u - cell.codes).sum()) <= r


def _check_level(r: int) -> int:
    if r < 0:
        raise ValueError(f"relaxation level must be >= 0, got {r}")
    return int(r)


def cell_contains(cell: ConsistencyCell, u: np.ndarray, r: int = 0, ball_tol: float = 0.0) -> bool:
    """Integer-verified membership of u in the (r-relaxed) cell."""
    r = _check_level(r)
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (cell.dim,):
        raise ValueError(f"point has shape {u.shape}, expected ({cell.dim},)")
    return cell.on_support(u) and verified_member(cell, cell.restrict(u), r, ball_tol)


def _ball_exits(x0: np.ndarray, directions: np.ndarray, radius: float) -> np.ndarray:
    # Positive root of ||x0 + t d||^2 = R^2 per unit column d; clamped at 0
    # for origins that sit on the sphere within rounding.
    c = x0 @ directions
    disc = c * c + (radius * radius - float(x0 @ x0))
    return np.maximum(-c + np.sqrt(np.maximum(disc, 0.0)), 0.0)


def _slab_exits(gap_hi: np.ndarray, gap_lo: np.ndarray, g: np.ndarray, delta: float, r: int) -> np.ndarray:
    """(r+1)-th slab crossing time per direction column, over the given rows.

    `gap_hi` and `gap_lo` are hi - w and lo - w per row, and g is phi . d per
    row and column; with no rows nothing crosses, and every time is inf.
    A row's first crossing is max(gap_hi/g, gap_lo/g), the slab end ahead
    of the ray over g, with inf where g == 0 on the rows of an origin on or
    past a slab boundary (module docstring).
    """
    # a subnormal g may overflow a quotient to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        first = np.divide(gap_hi[:, None], g)
        np.maximum(first, np.divide(gap_lo[:, None], g), out=first)
    # g == 0 gives +inf on rows with gap_lo < 0 < gap_hi
    edge = np.flatnonzero((gap_hi <= 0.0) | (gap_lo >= 0.0))
    if edge.size:
        first[edge] = np.where(g[edge] == 0.0, np.inf, first[edge])
    # membership guarantees lo <= w < hi up to rounding; clamp the ulp-level
    # negatives that exact-boundary origins can produce, after the min for r = 0
    if r == 0 or not g.shape[0]:
        return np.maximum(first.min(axis=0, initial=np.inf), 0.0)
    np.maximum(first, 0.0, out=first)
    # The r+1 earliest first crossings are r+1 crossings no later than the
    # largest of them, and every other row crosses no earlier than that; so
    # the (r+1)-th crossing overall comes from those r+1 rows alone.
    if r + 1 < g.shape[0]:
        # row-major partition per direction: faster than along axis 0
        near = np.argpartition(first.T, r, axis=1)[:, : r + 1].T
        cols = np.arange(g.shape[1])
        first, g = first[near, cols], g[near, cols]
    # First r+1 crossings per kept row; kth index r selects the (r+1)-th
    # smallest of them per direction.  The spacing is capped at the largest
    # double so that a g == 0 row (or a delta/|g| that overflows) adds
    # 0, not inf*0 = nan, to its first crossing.
    steps = np.arange(r + 1, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        spacing = np.minimum(delta / np.abs(g), np.finfo(np.float64).max)
        candidates = first[:, :, None] + spacing[:, :, None] * steps
    flat = candidates.transpose(1, 0, 2).reshape(g.shape[1], -1)
    return np.partition(flat, r, axis=1)[:, r]


def _screen_rows(
    cell: ConsistencyCell, gap_hi: np.ndarray, gap_lo: np.ndarray, g: np.ndarray, t_ball: np.ndarray, r: int
) -> np.ndarray:
    """Rows that can hold some direction's exit: the certified row screen.

    See the module docstring for the bound, the pad and the floors.
    """
    probe = _PROBE_ROWS * (r + 1) * cell.phi.shape[1]
    norms = np.sqrt(np.einsum("ij,ij->i", cell.phi, cell.phi))
    # reach = dist / ||phi_j||, a lower bound on the row's first crossing;
    # 0, so kept, for rows whose norm is below the floor
    reach = np.divide(np.minimum(gap_hi, -gap_lo), norms, out=np.zeros_like(gap_hi), where=norms >= _TINY)
    near = np.argpartition(reach, probe)[:probe]
    exits = np.minimum(_slab_exits(gap_hi[near], gap_lo[near], g[near], cell.delta, r), t_ball)
    bound = max(float(exits.max()), _TINY)
    # a dropped row crosses after every exit; a nan reach (inf/inf) is kept
    return np.flatnonzero(~(reach * (1.0 - _SCREEN_PAD) > bound))


def _ray_exits(cell: ConsistencyCell, x0_act: np.ndarray, directions: np.ndarray, r: int) -> np.ndarray:
    """Exit times for unit direction columns, in active coordinates."""
    t_ball = _ball_exits(x0_act, directions, cell.ball_radius)
    w = cell.phi @ x0_act
    # one product for all rows, so a screened row's g has the same bits
    g = cell.phi @ directions
    gap_hi, gap_lo = cell.hi - w, cell.lo - w
    if cell.m > _SCREEN_ROWS * (r + 1) * cell.phi.shape[1] and g.size >= _SCREEN_PAIRS:
        rows = _screen_rows(cell, gap_hi, gap_lo, g, t_ball, r)
        gap_hi, gap_lo, g = gap_hi[rows], gap_lo[rows], g[rows]
    return np.minimum(_slab_exits(gap_hi, gap_lo, g, cell.delta, r), t_ball)


def _check_ray_inputs(cell: ConsistencyCell, x0: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x0 = np.asarray(x0, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if not cell_contains(cell, x0):
        raise NotInCellError("ray origin is not a member of the cell")
    if not abs(float(np.linalg.norm(d)) - 1.0) <= 1e-9:  # NaN fails too
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
    x0_act, d_act = _check_ray_inputs(cell, x0, d)
    return float(_ray_exits(cell, x0_act, d_act[:, None], _check_level(r))[0])


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


@lru_cache(maxsize=4)
def _signed_axes(dim: int) -> np.ndarray:
    # [I, -I], one column per signed canonical axis; read-only, since every
    # estimate_width call with this dim shares it
    axes = np.hstack([np.eye(dim), -np.eye(dim)])
    axes.flags.writeable = False
    return axes


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
    r = _check_level(r)
    center = np.asarray(center, dtype=np.float64)
    if not cell_contains(cell, center):
        raise NotInCellError("width center is not a member of the cell")
    dim = cell.phi.shape[1]
    rand = _random_directions(stream, dim, num_directions)
    directions = np.hstack([rand, _signed_axes(dim)])
    center_act = cell.restrict(center)
    exits = _ray_exits(cell, center_act, directions, r)
    margin = _EXIT_MARGIN
    while True:
        pulled = exits * max(1.0 - margin, 0.0)
        best = int(np.argmax(pulled))
        value = float(pulled[best])
        witness = center_act + value * directions[:, best]
        if verified_member(cell, witness, r, _BALL_TOL):
            break
        margin *= 2.0
    return WidthEstimate(
        value=value,
        witness=cell.embed(witness),
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
