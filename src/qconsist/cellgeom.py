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
  with which it commutes, so it runs once per direction; for the relaxed
  exit it follows the choice of rows, below.

For the relaxed cell the exit is the time of the (r+1)-th grid-boundary
crossing accumulated over all measurements, or the ball exit if that comes
first.
Crossing times per measurement form an arithmetic progression (first
boundary ahead, then every delta/|g|), so only the first r+1 terms of each
progression can matter.  Nor can any measurement outside a set of r+1
whose first crossings are least: those r+1 first crossings all come no
later than the largest of them, and no other measurement crosses before
it.  So any such r+1 rows, whichever of tied rows they take, give the
same (r+1)-th crossing.  Each direction therefore partitions (r+1)^2
candidates, whatever M is.

On cells with at least _GROUP_SPAN*(r+1)*_GROUP_ROWS rows those r+1 rows
are found without a partition over all M.  The rows fall into groups of
_GROUP_ROWS consecutive rows, the last one shorter when _GROUP_ROWS does
not divide M, and each group's least first crossing is taken per
direction.  The r+1 groups of least minimum hold r+1 distinct rows, their
minima, that cross no later than the largest of those minima, and every
row of any other group crosses no earlier than its own group's minimum,
which is no less.  So r+1 least first crossings among the kept groups'
(r+1)*_GROUP_ROWS rows are r+1 least among all rows, and one partition of
the kept rows finds them; which of tied minima or tied rows it keeps
changes no exit, by the above.  Rows whose first crossing is inf (g = 0,
or a quotient that overflows) take part like any other.  The short
group's missing rows read inf: one is kept only when the (r+1)-th least
kept crossing is inf, and then it brings inf candidates, as the real row
it displaces would.  Filling them with a repeated row instead would count
that row's crossings twice.  On fewer rows the groups would keep more
than a 1/_GROUP_SPAN share of them, and one partition over all rows costs
no more.  Only the kept r+1 first crossings are clamped at 0: max(x, 0)
is nondecreasing, so r+1 least crossings stay r+1 least through the
clamp, and on a kept row it gives the double that clamping every row
first would give, +0 for -0 included.

On cells with more than _SCREEN_ROWS*(r+1)*dim rows, shot along enough
directions, a certified row screen leaves out the rows that cannot decide
any exit.  Along a unit d, row j's first crossing is at least its reach
L_j = dist_j/||phi_j||, with dist_j = min(hi_j - w_j, w_j - lo_j), and
each cell's rows are sorted by reach.  The exits over the probe, the first
_PROBE_ROWS*(r+1)*dim rows of that order, come per direction no earlier
than the exits over all rows, since the (r+1)-th crossing of a subset of
the candidates comes no earlier.  So U, the largest over the cell's
directions of min(probe exit, ball exit), bounds each of its exits.  The
kept rows are those with L_j*(1 - pad) <= U; a row left out crosses after
U along every direction.  Over any set of rows that holds the kept ones,
each direction's exit is the exit over all rows: if the exit over all
rows comes no later than U, its r+1 least candidates all lie on kept
rows; if later, the ball exit comes no later than U, and it is the exit
both ways.  L*(1 - pad) rounds monotonically in L, so the kept rows are a
prefix of the order.  When each cell's prefix fits in its probe, the
probe's exits are the exits; otherwise one more pass runs over the first
rows of every cell, as many as the longest prefix.  g = phi @ directions
stays one product, and the rows are gathered from it, so every candidate,
and so every exit, is the same double as without the screen.  A nan reach
(inf/inf) counts as 0, so that its row is kept: a sort would put it last.

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

Cells that share an ensemble can go through the exit kernel as a block:
the cell's codes, lo and hi carry a leading axis of B cells (phi too,
when their supports differ), and so do the ray origins and the direction
sets, with rows on axis -2.  Every product is then a stacked np.matmul,
which calls BLAS once per cell with that cell's shapes and strides, the
very call a lone cell makes; so w, g, x.d, x.x and the witnesses' codes
are the same doubles in a block as alone, and every other step is
elementwise or an exact min.  Folding the block into the columns of one
2-D product, phi @ [D_1 ... D_B], does not keep the bits: BLAS blocks
and orders its sums by the wider shape, and such products differed from
the per-cell ones in the last bit on 31 of 300 random shapes (OpenBLAS
0.3.31, x86-64), where the stacked ones differed on none.  The row
screen runs on a block as on a lone cell: reach, order, U and the kept
prefix are per cell, every cell's probe and second pass take the same
number of rows, and the pairs that decide whether it runs are counted over
the whole block.

Width estimates are certified lower bounds: the witness point re-quantizes
to the cell's codes (integer equality; discrepancy <= r for relaxed cells)
after a relative 1e-12 pullback that keeps it strictly inside the
half-open slabs.  Where rounding defeats that pullback on a short exit,
the pullback doubles until the witness verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantizer import _encode_values
from .randkit import Stream, gauss, substream
# sense is not called here; it stays importable from this module, where
# the benchmark's tracer (bench/spans.py) replaces it by name
from .sensing import SensingEnsemble, SignalModel, sample_signal, sense  # noqa: F401

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
# (row, direction) pairs over the lone cell or the whole block, where it
# pays, and probes each cell's _PROBE_ROWS * (r+1) * dim rows of least
# reach.  Below _SCREEN_PAIRS its dozen small numpy calls cost more than
# they save, and more still in the threaded campaign runner, where they
# hold the GIL that the large unscreened ones release.  _SCREEN_PAD and
# _TINY make it exact.
_SCREEN_ROWS = 20
_SCREEN_PAIRS = 2**15
_PROBE_ROWS = 8
_SCREEN_PAD = 1e-8
_TINY = 2.0**-500

# (row, direction) pairs per block of empirical_worst_case's cells: enough
# cells to share the per-call costs, few enough that a block's g stays in
# cache.  At C9's 99 x 134 pairs (2-vCPU x86-64, one BLAS thread, median
# of 7), blocks of 4 to 16 cells took 28.1-33.0 ms per 200 cells, one cell
# 47.3 ms and all 200 at once 44.2 ms.
_BLOCK_PAIRS = 2**17

# Row selection of relaxed exits (module docstring): cells with at least
# _GROUP_SPAN * (r+1) * _GROUP_ROWS rows keep the r+1 groups of
# _GROUP_ROWS consecutive rows with least minimum first crossing.  At 528
# directions (2-vCPU x86-64, median of 100), _slab_exits took 0.66-0.75 of
# the time of one partition over all rows at M = 256-1024, r = 1-4, and
# 0.75-0.96 at the cutoff; grouping at 1.2-3.2 times (r+1) * _GROUP_ROWS
# rows took 1.07-1.77 times as long.  Groups of 4 rows did as well on the
# relaxed-ladder workload, groups of 16 worse.
_GROUP_ROWS = 8
_GROUP_SPAN = 4


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
    coordinates.  `dim` is the ambient dimension.  The private exit and
    width kernels also take a block of cells on one ensemble: codes, lo and
    hi of shape (B, M), and phi (M, k) or, for differing supports, (B, M, k).
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
        return self.codes.shape[-1]

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
    phi = ensemble.phi if support is None else ensemble.phi.take(support, axis=1)
    return _cell(ensemble, codes, float(ball_radius), support, phi)


def _cell(
    ensemble: SensingEnsemble, codes: np.ndarray, ball_radius: float, support: np.ndarray | None, phi: np.ndarray
) -> ConsistencyCell:
    # the slab bounds of the codes, which may carry a block axis
    delta = ensemble.spec.delta
    lo = delta * codes.astype(np.float64) - ensemble.xi
    return ConsistencyCell(ensemble, codes, ball_radius, support, phi, lo, lo + delta, ensemble.n)


def _apply(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    # phi @ u per point of u (..., k): one gemv per point, as for a 1-D u
    return np.matmul(phi, u[..., None])[..., 0]


def _sq_norms(u: np.ndarray) -> np.ndarray:
    # u . u per point of u (..., k): one dot per point, as for a 1-D u
    return np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0]


def _codes(phi: np.ndarray, u: np.ndarray, xi: np.ndarray, delta: float) -> np.ndarray:
    return _encode_values(_apply(phi, u) + xi, delta)


def verified_member(
    cell: ConsistencyCell, u_act: np.ndarray, r: int = 0, ball_tol: float = 0.0
) -> np.bool_ | np.ndarray:
    """The membership test: ||u|| <= R + ball_tol and l1 code distance <= r.

    `u_act` holds the active coordinates of u (see ConsistencyCell), and
    its codes are those of cell.phi @ u_act + xi, compared as integers.
    On a block of cells, with one point per cell, it answers per cell.
    """
    outside = np.sqrt(_sq_norms(u_act)) > cell.ball_radius + ball_tol
    if outside.all():
        return ~outside
    codes_u = _codes(cell.phi, u_act, cell.ensemble.xi, cell.delta)
    return ~outside & (np.abs(codes_u - cell.codes).sum(axis=-1) <= r)


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
    return cell.on_support(u) and bool(verified_member(cell, cell.restrict(u), r, ball_tol))


def _ball_exits(x0: np.ndarray, directions: np.ndarray, radius: float) -> np.ndarray:
    # Positive root of ||x0 + t d||^2 = R^2 per unit column d; clamped at 0
    # for origins that sit on the sphere within rounding.
    c = np.matmul(x0[..., None, :], directions)[..., 0, :]
    disc = c * c + (radius * radius - _sq_norms(x0))[..., None]
    return np.maximum(-c + np.sqrt(np.maximum(disc, 0.0)), 0.0)


def _slab_exits(
    gap_hi: np.ndarray, gap_lo: np.ndarray, g: np.ndarray, delta: float, r: int, work: np.ndarray | None = None
) -> np.ndarray:
    """(r+1)-th slab crossing time per direction column, over the given rows.

    `gap_hi` and `gap_lo` are hi - w and lo - w per row, (..., M), and g is
    phi . d per row and column, (..., M, D); with no rows nothing crosses,
    and every time is inf.  A row's first crossing is
    max(gap_hi/g, gap_lo/g), the slab end ahead of the ray over g, with inf
    where g == 0 on the rows of an origin on or past a slab boundary
    (module docstring).  The two quotients go to `work`, two arrays shaped
    like g, when it is given.
    """
    # a subnormal g may overflow a quotient to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        first = np.divide(gap_hi[..., None], g, out=None if work is None else work[0])
        np.maximum(first, np.divide(gap_lo[..., None], g, out=None if work is None else work[1]), out=first)
    # g == 0 gives +inf on rows with gap_lo < 0 < gap_hi
    edge = (gap_hi <= 0.0) | (gap_lo >= 0.0)
    if edge.any():
        first[edge] = np.where(g[edge] == 0.0, np.inf, first[edge])
    # membership guarantees lo <= w < hi up to rounding; clamp the ulp-level
    # negatives that exact-boundary origins can produce, after the min for r = 0
    m = g.shape[-2]
    if r == 0 or not m:
        return np.maximum(first.min(axis=-2, initial=np.inf), 0.0)
    # Per direction, r+1 rows whose first crossings are least (module
    # docstring), direction-major: the rows of the r+1 groups of least
    # minimum, then the least r+1 of those.  Only they are clamped.
    if m >= _GROUP_SPAN * (r + 1) * _GROUP_ROWS:
        first, g = _nearest_groups(first, g, r)
    else:
        first, g = np.swapaxes(first, -1, -2), np.swapaxes(g, -1, -2)
    if first.shape[-1] > r + 1:
        near = np.argpartition(first, r, axis=-1)[..., : r + 1]
        first, g = np.take_along_axis(first, near, -1), np.take_along_axis(g, near, -1)
    first = np.maximum(first, 0.0)
    # First r+1 crossings per kept row; kth index r selects the (r+1)-th
    # smallest of them per direction.  The spacing is capped at the largest
    # double so that a g == 0 row (or a delta/|g| that overflows) adds
    # 0, not inf*0 = nan, to its first crossing.
    steps = np.arange(r + 1, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        spacing = np.minimum(delta / np.abs(g), np.finfo(np.float64).max)
        candidates = first[..., None] + spacing[..., None] * steps
    return np.partition(candidates.reshape(*first.shape[:-1], -1), r, axis=-1)[..., r]


def _nearest_groups(first: np.ndarray, g: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """First crossings and g, (..., D, (r+1)*_GROUP_ROWS), of the rows in
    the r+1 groups of _GROUP_ROWS consecutive rows whose least first
    crossing is least, per direction; the short tail group's missing rows
    read inf.
    """
    *lead, m, d = first.shape
    full = m - m % _GROUP_ROWS
    minima = first[..., :full, :].reshape(*lead, -1, _GROUP_ROWS, d).min(axis=-2)
    if full < m:
        minima = np.concatenate([minima, first[..., full:, :].min(axis=-2, keepdims=True)], axis=-2)
    groups = np.argpartition(np.swapaxes(minima, -1, -2), r, axis=-1)[..., : r + 1]
    rows = (groups[..., None] * _GROUP_ROWS + np.arange(_GROUP_ROWS)).reshape(*lead, d, -1)
    # flat index of (cell, row, direction) in the C-ordered arrays
    index = rows * d + (np.arange(math.prod(lead)).reshape(*lead, 1, 1) * (m * d) + np.arange(d)[:, None])
    if full == m:
        return first.reshape(-1).take(index), g.reshape(-1).take(index)
    # the tail group's missing rows read inf, never a repeated row
    past = rows >= m
    index[past] = 0
    return np.where(past, np.inf, first.reshape(-1).take(index)), g.reshape(-1).take(index)


def _screened_exits(
    cell: ConsistencyCell, gap_hi: np.ndarray, gap_lo: np.ndarray, g: np.ndarray, t_ball: np.ndarray, r: int
) -> np.ndarray:
    """Exits over a prefix of each cell's rows in order of reach that holds
    every row the certified row screen keeps; a lone cell or a block.

    See the module docstring for the bound, the prefix, the pad and the
    floors.
    """
    *lead, m, d = g.shape
    norms = np.sqrt(np.einsum("...ij,...ij->...i", cell.phi, cell.phi))
    # reach = dist / ||phi_j||, a lower bound on the row's first crossing;
    # 0, so kept, for rows whose norm is below the floor, and for a nan
    # reach (inf/inf), which argsort would put last
    with np.errstate(invalid="ignore"):
        reach = np.divide(np.minimum(gap_hi, -gap_lo), norms, out=np.zeros_like(gap_hi), where=norms >= _TINY)
    reach[np.isnan(reach)] = 0.0
    # index of each cell's rows in order of reach, among the rows of all cells
    order = np.argsort(reach, axis=-1) + np.arange(math.prod(lead)).reshape(*lead, 1) * m

    def exits_over(count: int) -> np.ndarray:
        near = order[..., :count]
        hi, lo = gap_hi.reshape(-1).take(near), gap_lo.reshape(-1).take(near)
        return np.minimum(_slab_exits(hi, lo, g.reshape(-1, d).take(near, axis=0), cell.delta, r), t_ball)

    probe = _PROBE_ROWS * (r + 1) * cell.phi.shape[-1]
    exits = exits_over(probe)
    bound = np.maximum(exits.max(axis=-1, keepdims=True), _TINY)
    # the kept rows, reach*(1 - pad) <= bound, are a prefix of the order
    kept = int((reach * (1.0 - _SCREEN_PAD) <= bound).sum(axis=-1).max())
    return exits if kept <= probe else exits_over(kept)


def _ray_exits(
    cell: ConsistencyCell, x0_act: np.ndarray, directions: np.ndarray, r: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Exit times for unit direction columns, in active coordinates.

    A lone cell takes x0 (k,) and directions (k, D) and gives (D,); a block
    takes x0 (B, k) and directions (B, k, D) and gives (B, D).  `work`,
    three arrays shaped like g = phi @ directions, holds g and the slab
    quotients when given, so that a loop over blocks reuses its memory.
    """
    t_ball = _ball_exits(x0_act, directions, cell.ball_radius)
    w = _apply(cell.phi, x0_act)
    # one product for all rows, so a screened row's g has the same bits
    g = np.matmul(cell.phi, directions, out=None if work is None else work[0])
    gap_hi, gap_lo = cell.hi - w, cell.lo - w
    if cell.m > _SCREEN_ROWS * (r + 1) * cell.phi.shape[-1] and g.size >= _SCREEN_PAIRS:
        return _screened_exits(cell, gap_hi, gap_lo, g, t_ball, r)
    return np.minimum(_slab_exits(gap_hi, gap_lo, g, cell.delta, r, None if work is None else work[1:]), t_ball)


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


@lru_cache(maxsize=4)
def _signed_axes(dim: int) -> np.ndarray:
    # [I, -I], one column per signed canonical axis; read-only, since every
    # direction set of this dim shares it
    axes = np.hstack([np.eye(dim), -np.eye(dim)])
    axes.flags.writeable = False
    return axes


def _directions(streams: list[Stream], dim: int, count: int) -> np.ndarray:
    """Each stream's direction set, (len(streams), dim, count + 2*dim):
    `count` random unit columns, then every signed canonical axis.

    The columns are drawn direction-major, so that direction sets are
    nested as count grows under a replayed stream.  A draw with a zero row
    is redrawn from its own stream, and all are normalized at once.
    """
    a = np.empty((len(streams), count, dim))
    for b, stream in enumerate(streams):
        a[b] = gauss(stream, (count, dim))
    while True:
        # np.linalg.norm(a, axis=-1), without its argument handling
        norms = np.sqrt((a * a).sum(axis=-1))
        if (norms > 0.0).all():
            break
        for b in np.flatnonzero(~(norms > 0.0).all(axis=-1)):
            a[b] = gauss(streams[b], (count, dim))
    directions = np.empty((len(streams), dim, count + 2 * dim))
    np.divide(np.swapaxes(a, -1, -2), norms[:, None, :], out=directions[..., :count])
    directions[..., count:] = _signed_axes(dim)
    return directions


def _check_directions(count: int) -> None:
    if count < 1:
        raise ValueError(f"need at least one direction, got {count}")


def _pick(a: np.ndarray, best: np.ndarray) -> np.ndarray:
    # a[..., best] per cell: a lone cell's column best, or column best[b]
    # of cell b's slice of a
    return a[..., best] if best.ndim == 0 else a[np.arange(best.size), ..., best]


def _farthest_members(
    cell: ConsistencyCell, centers: np.ndarray, directions: np.ndarray, r: int, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per cell, the farthest exit as a value and a verified witness.

    Takes a lone cell or a block, as _ray_exits does, and `work` goes to
    it.  Exits are pulled back by the relative _EXIT_MARGIN; a cell whose
    witness rounding leaves outside it is pulled back twice as far and
    re-verified, while the others keep their margin and so their witness.
    Every center is a member, and a margin of 1 or more gives back the
    center, so this ends.
    """
    exits = _ray_exits(cell, centers, directions, r, work)
    margin = _EXIT_MARGIN
    while True:
        pulled = exits * np.maximum(1.0 - margin, 0.0)
        best = pulled.argmax(axis=-1)
        values = _pick(pulled, best)
        witnesses = centers + values[..., None] * _pick(directions, best)
        verified = verified_member(cell, witnesses, r, _BALL_TOL)
        if verified.all():
            return values, witnesses
        margin = np.where(verified[..., None], margin, 2.0 * margin)


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
    _check_directions(num_directions)
    r = _check_level(r)
    center = np.asarray(center, dtype=np.float64)
    if not cell_contains(cell, center):
        raise NotInCellError("width center is not a member of the cell")
    directions = _directions([stream], cell.phi.shape[1], num_directions)[0]
    value, witness = _farthest_members(cell, cell.restrict(center), directions, r)
    return WidthEstimate(
        value=float(value),
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

    Trial i draws its signal and then its directions from the substream
    (master_seed, i), in that order, so results are independent of
    execution order; its width is the one estimate_width gives on the cell
    of the signal's codes, to the bit.  Sparse-model widths are measured
    inside the sampled signal's true support subspace.

    The trials go through the exit kernel in blocks of cells (module
    docstring), max(1, _BLOCK_PAIRS // (M*D)) at a time for M rows and D
    directions, and a block with enough pairs goes through the row screen.
    Each block draws its raw direction normals stream by stream and
    normalizes them at once.  The three (B, M, D) arrays of the exit
    kernel are allocated once per call: allocated per block, their pages
    went back to the system and were faulted in again for the next block
    (176,000 page faults in one C9 scan).  Each cell's witness is verified
    against that cell's integer codes.  The codes come from the product the
    exits use, so each center lies in its cell's slabs by construction;
    only the ball is checked.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_directions(num_directions)
    if model.n != ensemble.n:
        raise ValueError(f"signals have dimension {model.n}, the ensemble {ensemble.n}")
    dim = model.n if model.k is None else model.k
    count = num_directions + 2 * dim
    block = min(max(1, _BLOCK_PAIRS // (ensemble.m * count)), trials)
    work = np.empty((3, block, ensemble.m, count))
    widths = np.empty(trials)
    for start in range(0, trials, block):
        chunk = range(start, min(start + block, trials))
        streams = [substream(master_seed, i) for i in chunk]
        signals = [sample_signal(model, stream) for stream in streams]
        directions = _directions(streams, dim, num_directions)
        if model.sparse:
            supports = np.stack([s.support for s in signals])
            phi = np.stack([ensemble.phi.take(s.support, axis=1) for s in signals])
            centers = np.stack([s.x[s.support] for s in signals])
        else:
            supports, phi, centers = None, ensemble.phi, np.stack([s.x for s in signals])
        if np.any(np.sqrt(_sq_norms(centers)) > 1.0):
            raise NotInCellError("width center is not a member of the cell")
        cells = _cell(ensemble, _codes(phi, centers, ensemble.xi, ensemble.spec.delta), 1.0, supports, phi)
        widths[chunk.start : chunk.stop] = _farthest_members(cells, centers, directions, 0, work[:, : len(chunk)])[0]
    return WorstCaseResult(max_width=float(widths.max()), widths=widths)
