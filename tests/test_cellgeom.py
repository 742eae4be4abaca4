"""Cell geometry: membership, closed-form ray exits vs oracles, width estimates."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qconsist import cellgeom
from qconsist.cellgeom import (
    _BALL_TOL,
    NotInCellError,
    _ball_exits,
    _cell,
    _ray_exits,
    _random_directions,
    _screen_rows,
    build_cell,
    cell_contains,
    empirical_worst_case,
    estimate_width,
    ray_exit_relaxed,
    ray_exit_strict,
)
from qconsist.quantizer import QuantizerSpec, _encode_values
from qconsist.randkit import Stream, substream
from qconsist.reconstruct import pocs_consistent
from qconsist.sensing import SensingEnsemble, SignalModel, gen_ensemble, sample_signal, sense

UNIT = QuantizerSpec(1.0)


def manual_ensemble(phi, xi, delta=1.0, seed=0):
    return SensingEnsemble(phi=np.asarray(phi, float), xi=np.asarray(xi, float), spec=QuantizerSpec(delta), seed=seed)


def test_build_cell_contains_the_sensed_signal():
    ens = gen_ensemble(32, 4, UNIT, 10)
    sig = sample_signal(SignalModel.unit_ball(4), Stream(11))
    cell = build_cell(ens, sense(ens, sig).codes)
    assert cell_contains(cell, sig.x)


def test_one_dimensional_cell_construction():
    ens = manual_ensemble([[1.0]], [0.0])
    cell = build_cell(ens, np.array([0]))
    assert cell.lo[0] == 0.0 and cell.hi[0] == 1.0
    assert cell_contains(cell, np.array([0.5]))
    assert cell_contains(cell, np.array([0.0]))  # half-open: left edge belongs
    assert not cell_contains(cell, np.array([-0.1]))
    assert not cell_contains(cell, np.array([1.0]))  # right edge is the next cell


def test_ray_exit_hand_geometry():
    ens = manual_ensemble([[1.0, 0.0]], [0.0])
    cell = build_cell(ens, np.array([0]))
    x0 = np.array([0.5, 0.0])
    assert ray_exit_strict(cell, x0, np.array([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)
    assert ray_exit_strict(cell, x0, np.array([0.0, 1.0])) == pytest.approx(math.sqrt(0.75), abs=1e-12)


def test_ray_exit_preconditions():
    ens = manual_ensemble([[1.0, 0.0]], [0.0])
    cell = build_cell(ens, np.array([0]))
    with pytest.raises(NotInCellError):
        ray_exit_strict(cell, np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        ray_exit_strict(cell, np.array([0.5, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ray_exit_relaxed(cell, np.array([0.5, 0.0]), np.array([1.0, 0.0]), -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda cell, x: cell_contains(cell, x, r=-1),
        lambda cell, x: ray_exit_relaxed(cell, x, np.array([1.0, 0.0]), -1),
        lambda cell, x: estimate_width(cell, x, 8, Stream(3), r=-1),
    ],
    ids=["cell_contains", "ray_exit_relaxed", "estimate_width"],
)
def test_negative_relaxation_level_raises(call):
    cell = build_cell(manual_ensemble([[1.0, 0.0]], [0.0]), np.array([0]))
    with pytest.raises(ValueError, match="relaxation level must be >= 0, got -1"):
        call(cell, np.array([0.5, 0.0]))


def test_nan_direction_raises():
    ens = gen_ensemble(16, 2, UNIT, 10)
    sig = sample_signal(SignalModel.unit_ball(2), Stream(11))
    cell = build_cell(ens, sense(ens, sig).codes)
    with pytest.raises(ValueError, match="unit vector"):
        ray_exit_strict(cell, sig.x, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match="unit vector"):
        ray_exit_relaxed(cell, sig.x, np.array([np.nan, np.nan]), 2)


@given(
    d=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    slot=st.integers(0, 2),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    r=st.integers(0, 3),
)
def test_non_finite_direction_always_raises(d, slot, bad, r):
    ens = gen_ensemble(16, 3, UNIT, 12)
    sig = sample_signal(SignalModel.unit_ball(3), Stream(13))
    cell = build_cell(ens, sense(ens, sig).codes)
    d[slot] = bad
    with pytest.raises(ValueError, match="unit vector"):
        if r == 0:
            ray_exit_strict(cell, sig.x, np.array(d))
        else:
            ray_exit_relaxed(cell, sig.x, np.array(d), r)


def bisect_exit(cell, x0, d, r=0):
    def member(t: float) -> bool:
        return cell_contains(cell, x0 + t * d, r=r)

    hi = 1.0
    while member(hi):
        hi *= 2.0
        assert hi < 64.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_strict_exit_matches_bisection_oracle():
    stream = Stream(77)
    for seed in range(25):
        ens = gen_ensemble(12, 3, QuantizerSpec(0.7), 100 + seed)
        sig = sample_signal(SignalModel.unit_ball(3), Stream(200 + seed))
        cell = build_cell(ens, sense(ens, sig).codes)
        d = stream.rng.standard_normal(3)
        d /= np.linalg.norm(d)
        exact = ray_exit_strict(cell, sig.x, d)
        oracle = bisect_exit(cell, sig.x, d)
        assert abs(exact - oracle) < 1e-9 * max(1.0, exact)


def test_relaxed_exit_zero_equals_strict():
    ens = gen_ensemble(10, 2, UNIT, 5)
    sig = sample_signal(SignalModel.unit_ball(2), Stream(6))
    cell = build_cell(ens, sense(ens, sig).codes)
    d = np.array([0.6, 0.8])
    assert ray_exit_relaxed(cell, sig.x, d, 0) == ray_exit_strict(cell, sig.x, d)


def test_relaxed_exit_saturates_at_ball():
    ens = gen_ensemble(6, 2, UNIT, 5)
    sig = sample_signal(SignalModel.unit_ball(2), Stream(6))
    cell = build_cell(ens, sense(ens, sig).codes)
    d = np.array([1.0, 0.0])
    c = float(sig.x @ d)
    t_ball = -c + math.sqrt(c * c + 1.0 - float(sig.x @ sig.x))
    assert ray_exit_relaxed(cell, sig.x, d, 10_000) == pytest.approx(t_ball, rel=1e-12)


def test_relaxed_exit_matches_fine_grid_oracle():
    step = 1e-5
    for seed in range(8):
        ens = gen_ensemble(5, 2, QuantizerSpec(0.6), 300 + seed)
        sig = sample_signal(SignalModel.unit_ball(2), Stream(400 + seed))
        obs = sense(ens, sig)
        cell = build_cell(ens, obs.codes)
        rng = np.random.default_rng(seed)
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        exact = ray_exit_relaxed(cell, sig.x, d, 2)
        # crawl the ray and count code changes directly
        ts = np.arange(0.0, exact + 50 * step, step)
        points = sig.x[None, :] + ts[:, None] * d[None, :]
        vals = points @ ens.phi.T + ens.xi[None, :]
        codes = np.floor(vals / 0.6).astype(np.int64)
        disc = np.abs(codes - obs.codes[None, :]).sum(axis=1)
        inside_ball = np.linalg.norm(points, axis=1) <= 1.0
        ok = (disc <= 2) & inside_ball
        first_bad = int(np.argmin(ok)) if not ok.all() else len(ts)
        oracle = ts[first_bad - 1]
        assert abs(exact - oracle) <= 2 * step


def test_relaxed_exit_past_a_row_with_subnormal_gradient_is_the_ball_exit():
    # g = 1e-310 along the first axis: the row never crosses, yet delta/|g|
    # overflows to inf, and inf*0 must not turn its first candidate into nan
    ens = manual_ensemble([[1e-310, 1.0]], [0.0])
    cell = build_cell(ens, np.array([0]))
    x0, d = np.array([0.0, 0.3]), np.array([1.0, 0.0])
    for r in range(3):
        assert ray_exit_relaxed(cell, x0, d, r) == math.sqrt(1.0 - 0.3**2)


def test_relaxed_nesting_over_r():
    ens = gen_ensemble(12, 3, UNIT, 50)
    sig = sample_signal(SignalModel.unit_ball(3), Stream(51))
    cell = build_cell(ens, sense(ens, sig).codes)
    stream = Stream(52)
    for _ in range(50):
        d = stream.rng.standard_normal(3)
        d /= np.linalg.norm(d)
        exits = [ray_exit_relaxed(cell, sig.x, d, r) for r in range(4)]
        assert all(a <= b + 1e-15 for a, b in zip(exits, exits[1:]))


def test_width_of_unconstrained_ball():
    # one slab, [-50, 50) on the first coordinate, that never binds
    cell = build_cell(manual_ensemble([[1.0, 0.0, 0.0]], [50.0], 100.0), [0])
    est = estimate_width(cell, np.zeros(3), 1, Stream(1))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    est = estimate_width(cell, np.zeros(3), 64, Stream(2))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_cell_phi_is_the_support_slice_or_the_ensemble_matrix():
    # every product with a cell's phi is rounded in the one C-order layout
    ens = gen_ensemble(16, 5, UNIT, 8)
    support = np.array([0, 3])
    cell = build_cell(ens, np.zeros(16), support=support)
    assert np.array_equal(cell.phi, ens.phi[:, support])
    assert cell.phi.flags.c_contiguous
    assert build_cell(ens, np.zeros(16)).phi is ens.phi


def test_ensemble_layout_does_not_change_widths_or_pocs_results():
    # an F-order phi is stored C-order, so its cells round every product as
    # the original's do
    for seed in range(40):
        ens = gen_ensemble(256, 8, UNIT, seed)
        ens_f = SensingEnsemble(phi=np.asfortranarray(ens.phi), xi=ens.xi, spec=ens.spec, seed=seed)
        sig = sample_signal(SignalModel.unit_ball(8), Stream(seed))
        codes = sense(ens, sig).codes
        a, b = (estimate_width(build_cell(e, codes), sig.x, 256, Stream(seed)) for e in (ens, ens_f))
        assert a.value == b.value and np.array_equal(a.witness, b.witness)
        if seed < 4:
            a, b = (pocs_consistent(e, codes) for e in (ens, ens_f))
            assert np.array_equal(a.x_star, b.x_star)
            assert (a.iterations, a.consistent, a.residual) == (b.iterations, b.consistent, b.residual)


def test_width_of_unit_interval_cell():
    ens = manual_ensemble([[1.0]], [0.0])
    cell = build_cell(ens, np.array([0]))
    est = estimate_width(cell, np.array([0.5]), 8, Stream(3))
    assert est.value == pytest.approx(0.5, rel=1e-9)


def exact_width_2d(cell, center):
    """Vertex-enumeration oracle: max distance from center over the closed cell."""
    ens = cell.ensemble
    radius = cell.ball_radius
    lines = []
    for j in range(ens.m):
        lines.append((ens.phi[j], cell.lo[j]))
        lines.append((ens.phi[j], cell.hi[j]))

    def feasible(point, tol=1e-9):
        if np.linalg.norm(point) > radius + tol:
            return False
        y = ens.phi @ point
        return bool(np.all(y >= cell.lo - tol) and np.all(y <= cell.hi + tol))

    candidates = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a = np.array([lines[i][0], lines[j][0]])
            b = np.array([lines[i][1], lines[j][1]])
            if abs(np.linalg.det(a)) < 1e-12:
                continue
            point = np.linalg.solve(a, b)
            if feasible(point):
                candidates.append(point)
    for normal, offset in lines:
        nn = float(normal @ normal)
        base = (offset / nn) * normal
        rem = radius**2 - offset**2 / nn
        if rem < 0.0:
            continue
        perp = np.array([-normal[1], normal[0]]) / math.sqrt(nn)
        for sign in (1.0, -1.0):
            point = base + sign * math.sqrt(rem) * perp
            if feasible(point):
                candidates.append(point)
    if np.linalg.norm(center) > 0.0:
        point = -radius * center / np.linalg.norm(center)
        if feasible(point):
            candidates.append(point)
    assert candidates, "oracle found no cell vertices"
    return max(float(np.linalg.norm(p - center)) for p in candidates)


def test_width_against_2d_vertex_oracle():
    for seed in range(10):
        ens = gen_ensemble(4, 2, QuantizerSpec(0.8), 500 + seed)
        sig = sample_signal(SignalModel.unit_ball(2), Stream(600 + seed))
        cell = build_cell(ens, sense(ens, sig).codes)
        oracle = exact_width_2d(cell, sig.x)
        est = estimate_width(cell, sig.x, 4096, Stream(700 + seed))
        assert est.value <= oracle + 1e-9
        assert est.value >= 0.98 * oracle


def test_width_monotone_in_direction_count():
    ens = gen_ensemble(24, 4, UNIT, 9)
    sig = sample_signal(SignalModel.unit_ball(4), Stream(10))
    cell = build_cell(ens, sense(ens, sig).codes)
    small = estimate_width(cell, sig.x, 64, Stream(11))
    large = estimate_width(cell, sig.x, 256, Stream(11))
    assert large.value >= small.value


def test_width_witness_verifies():
    ens = gen_ensemble(40, 5, QuantizerSpec(0.5), 13)
    sig = sample_signal(SignalModel.unit_ball(5), Stream(14))
    cell = build_cell(ens, sense(ens, sig).codes)
    est = estimate_width(cell, sig.x, 128, Stream(15))
    assert cell_contains(cell, est.witness, ball_tol=_BALL_TOL)
    assert abs(np.linalg.norm(est.witness - est.center) - est.value) < 1e-9
    relaxed = estimate_width(cell, sig.x, 128, Stream(15), r=3)
    assert cell_contains(cell, relaxed.witness, r=3, ball_tol=_BALL_TOL)
    assert relaxed.value >= est.value


def test_width_witness_pulled_back_off_a_code_boundary():
    # The 1e-12 relative pullback of this 0.0039 exit leaves the first
    # witness exactly on a code boundary (row 145 reads 2.0 against code 1);
    # the estimate must pull it back further instead of raising.
    ens = gen_ensemble(1024, 8, UNIT, 16633635121299751535)
    stream = Stream(9731549754719636562)
    sig = sample_signal(SignalModel(8, None), stream)
    cell = build_cell(ens, sense(ens, sig).codes, 1.0, sig.support)
    est = estimate_width(cell, sig.x, 512, stream)
    assert cell_contains(cell, est.witness, ball_tol=_BALL_TOL)
    assert abs(np.linalg.norm(est.witness - sig.x) - est.value) < 1e-15
    assert 0.0038 < est.value < 0.0040


def test_width_rejects_outside_center():
    ens = gen_ensemble(8, 2, UNIT, 16)
    sig = sample_signal(SignalModel.unit_ball(2), Stream(17))
    cell = build_cell(ens, sense(ens, sig).codes)
    with pytest.raises(NotInCellError):
        estimate_width(cell, sig.x + 5.0, 16, Stream(18))


def test_support_restricted_cell():
    ens = gen_ensemble(48, 10, UNIT, 19)
    sig = sample_signal(SignalModel.sparse_ball(10, 2), Stream(20))
    obs = sense(ens, sig)
    cell = build_cell(ens, obs.codes, support=sig.support)
    assert cell_contains(cell, sig.x)
    off_support = np.zeros(10)
    off_support[[i for i in range(10) if i not in sig.support][0]] = 1e-6
    assert not cell_contains(cell, sig.x + off_support)
    est = estimate_width(cell, sig.x, 64, Stream(21))
    mask = np.ones(10, dtype=bool)
    mask[sig.support] = False
    assert np.all(est.witness[mask] == 0.0)


def test_empirical_worst_case_single_trial_reduces_to_estimate():
    ens = gen_ensemble(32, 4, UNIT, 22)
    model = SignalModel.unit_ball(4)
    result = empirical_worst_case(ens, model, 1, 32, master_seed=23)
    stream = substream(23, 0)
    sig = sample_signal(model, stream)
    cell = build_cell(ens, sense(ens, sig).codes)
    direct = estimate_width(cell, sig.x, 32, stream)
    assert result.max_width == direct.value
    assert result.widths.shape == (1,)


def test_empirical_worst_case_shrinks_well_inside_ball():
    ens = gen_ensemble(512, 8, UNIT, 24)
    result = empirical_worst_case(ens, SignalModel.unit_ball(8), 50, 64, master_seed=25)
    assert result.max_width == result.widths.max()
    assert result.max_width < 1.0


def per_trial_worst_case(ensemble, model, trials, num_directions, master_seed):
    """Reference: one sense, build_cell and estimate_width per trial."""
    widths = []
    for i in range(trials):
        stream = substream(master_seed, i)
        signal = sample_signal(model, stream)
        cell = build_cell(ensemble, sense(ensemble, signal).codes, 1.0, signal.support)
        widths.append(estimate_width(cell, signal.x, num_directions, stream).value)
    return np.array(widths)


def widths_or_error(run):
    try:
        return run().tobytes()
    except NotInCellError:
        return NotInCellError


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.none() | st.integers(1, 5),
    m=st.integers(1, 48) | st.integers(400, 600),
    count=st.integers(1, 24) | st.just(64),
    trials=st.integers(1, 11),
    block=st.none() | st.integers(1, 4),
    delta=st.sampled_from([0.05, 0.3, 1.0]),
    seeds=st.tuples(st.integers(0, 2**63), st.integers(0, 2**63)),
)
@example(n=3, k=None, m=99, count=128, trials=23, block=None, delta=1.0, seeds=(5, 6))
@example(n=5, k=2, m=500, count=64, trials=3, block=2, delta=0.3, seeds=(7, 8))
def test_worst_case_equals_the_per_trial_loop(n, k, m, count, trials, block, delta, seeds):
    # M from 400 with 64 directions puts cells past _SCREEN_PAIRS, so they go
    # alone through the row screen; `block` sets B, and most trial counts
    # are not a multiple of it.  The first example is C9's shape, in blocks
    # of the default size.
    model = SignalModel(n, None if k is None else min(k, n))
    ens = gen_ensemble(m, n, QuantizerSpec(delta), seeds[0])
    pairs = m * (count + 2 * (model.k or n))
    block_pairs = cellgeom._BLOCK_PAIRS if block is None else block * pairs
    with mock.patch.object(cellgeom, "_BLOCK_PAIRS", block_pairs):
        batched = widths_or_error(lambda: empirical_worst_case(ens, model, trials, count, seeds[1]).widths)
    assert batched == widths_or_error(lambda: per_trial_worst_case(ens, model, trials, count, seeds[1]))


def test_worst_case_checks_the_direction_count_before_drawing():
    def no_draws(*args):
        raise AssertionError("drew a signal")

    ens = gen_ensemble(8, 2, UNIT, 3)
    with mock.patch.object(cellgeom, "sample_signal", no_draws):
        with pytest.raises(ValueError, match="need at least one direction, got 0"):
            empirical_worst_case(ens, SignalModel.unit_ball(2), 4, 0, master_seed=1)


def test_median_width_shrinks_with_m():
    def median_width(m: int) -> float:
        ens_seed = 2600 + m
        widths = []
        for trial in range(12):
            ens = gen_ensemble(m, 4, UNIT, ens_seed + trial)
            stream = substream(2700 + m, trial)
            sig = sample_signal(SignalModel.unit_ball(4), stream)
            cell = build_cell(ens, sense(ens, sig).codes)
            widths.append(estimate_width(cell, sig.x, 64, stream).value)
        return float(np.median(widths))

    assert median_width(256) < median_width(32)


def tensor_ray_exits(cell, x0_act, directions, r):
    """Oracle: the (r+1)-th crossing over all M rows' first r+1 crossings,
    from the full (M, D, r+1) candidate tensor."""
    c = x0_act @ directions
    disc = c * c + (cell.ball_radius**2 - float(x0_act @ x0_act))
    t_ball = np.maximum(-c + np.sqrt(np.maximum(disc, 0.0)), 0.0)
    phi = cell.phi
    w = phi @ x0_act
    g = phi @ directions
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(
            g > 0.0,
            (cell.hi[:, None] - w[:, None]) / g,
            np.where(g < 0.0, (cell.lo[:, None] - w[:, None]) / g, np.inf),
        )
        first = np.maximum(first, 0.0)
        spacing = np.where(g != 0.0, cell.delta / np.abs(g), np.inf)
        candidates = first[:, :, None] + spacing[:, :, None] * np.arange(r + 1, dtype=np.float64)
    candidates = np.where(np.isnan(candidates), np.inf, candidates)
    flat = candidates.transpose(1, 0, 2).reshape(directions.shape[1], -1)
    return np.minimum(np.partition(flat, r, axis=1)[:, r], t_ball)


@st.composite
def ray_instances(draw):
    """(cell, origin, directions) on a dyadic lattice or from gen_ensemble.

    Lattice instances draw up to 8 rows from a few small values, zeros
    included, so signed-axis directions meet rows with g = 0 and some rows
    are zero; the rows are then repeated up to 256 times, so that repeated
    rows tie their first crossings and cells reach past the row screen's
    cutoff.  Dyadic origins and dithers put origins exactly on slab
    boundaries.  Random instances (M <= 96, or 256 to 1024) exercise the
    partition and the screen over many rows; 128 random directions carry
    large cells past the screen's cutoff on (row, direction) pairs.  Either
    may restrict the cell to a support, and the directions may have norm
    1 +- 1e-9, at the edge of what ray_exit_strict accepts.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 0.25])
        rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=8))
        delta = draw(st.sampled_from([0.25, 0.5, 1.0]))
        xi = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=len(rows), max_size=len(rows)))
        repeats = draw(st.sampled_from([1, 2, 64, 256]))
        ens = manual_ensemble(np.tile(rows, (repeats, 1)), np.tile(xi, repeats) * delta, delta)
        x0 = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, -0.25, 0.5]), min_size=n, max_size=n)))
    else:
        delta = draw(st.sampled_from([0.05, 0.3, 1.0]))
        m = draw(st.integers(1, 96) | st.integers(256, 1024))
        ens = gen_ensemble(m, n, QuantizerSpec(delta), draw(st.integers(0, 2**63)))
        x0 = sample_signal(SignalModel.unit_ball(n), Stream(draw(st.integers(0, 2**63)))).x
    support = None
    if n > 1 and draw(st.booleans()):
        support = np.asarray(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))))
        off = np.ones(n, dtype=bool)
        off[support] = False
        x0 = np.where(off, 0.0, x0)
    codes = _encode_values(ens.phi @ x0 + ens.xi, ens.spec.delta)
    cell = build_cell(ens, codes, 1.0, support)
    dim = cell.phi.shape[1]
    count = draw(st.integers(1, 16) | st.just(128))
    rand = _random_directions(Stream(draw(st.integers(0, 2**63))), dim, count)
    scale = draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]))
    return cell, cell.restrict(x0), np.hstack([rand, np.eye(dim), -np.eye(dim)]) * scale


def norm_edge_tie():
    """512 copies of the row (3/4, 3/4), with the origin at its slab's centre,
    shot along +-d with ||d|| = 1 + 1e-9, at the edge of the norms
    ray_exit_strict accepts.  Every first crossing is the reach over ||d||,
    just under the reach, so the screen drops every row without a pad, and
    with a pad of 1e-9 too: here the rounding of g, the row norm and the
    quotients eats the 1.1e-16 that a 1e-9 pad leaves above ||d|| - 1."""
    ens = manual_ensemble(np.full((512, 2), 0.75), np.zeros(512), 0.375)
    x = np.array([0.25, 0.0])
    cell = build_cell(ens, _encode_values(ens.phi @ x + ens.xi, 0.375))
    d = np.full((2, 64), (1.0 + 1e-9) / math.sqrt(2.0))
    return cell, x, np.hstack([d, -d])


def origin_on_a_slab_end(end):
    """Rows e1 and e2 with the origin's first coordinate exactly on row 0's
    `end` slab end, shot along every signed axis, so that row 0 has g = 0
    along +-e2.  On "hi" the origin is still a member: with xi = 0.1,
    fl(fl(-1 - 0.1) + 1) + 0.1 rounds below 0, so it encodes as -1, whose
    slab's computed hi it equals."""
    if end == "lo":
        ens = manual_ensemble(np.eye(2), [0.0, 0.0], 0.5)
        x = np.array([0.5, 0.25])
    else:
        ens = manual_ensemble(np.eye(2), [0.1, 0.1], 1.0)
        x = np.array([-1.1 + 1.0, 0.0])
    cell = build_cell(ens, _encode_values(ens.phi @ x + ens.xi, ens.spec.delta))
    assert (cell.lo if end == "lo" else cell.hi)[0] == x[0]
    return cell, x, np.hstack([np.eye(2), -np.eye(2)])


@settings(max_examples=200)
@given(ray_instances(), st.integers(0, 5))
@example(norm_edge_tie(), 0)
@example(norm_edge_tie(), 5)
@example(origin_on_a_slab_end("lo"), 0)
@example(origin_on_a_slab_end("hi"), 0)
def test_ray_exits_equal_the_full_candidate_tensor(instance, r):
    cell, x0_act, directions = instance
    exits = _ray_exits(cell, x0_act, directions, r)
    assert exits.tobytes() == tensor_ray_exits(cell, x0_act, directions, r).tobytes()


def around(cell, x_act, directions):
    """A ray instance on `cell`'s ensemble and support, from another origin."""
    codes = _encode_values(cell.phi @ x_act + cell.ensemble.xi, cell.delta)
    return build_cell(cell.ensemble, codes, 1.0, cell.support), x_act, directions


def zero_row_instance():
    """A zero row, which has g = 0 along every direction, and the rows e1
    and e2, which have g = 0 along the other axis, shot along every signed
    axis from an origin on row 1's lo slab end."""
    ens = manual_ensemble([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.25], 0.5)
    x = np.array([0.5, -0.25])
    cell = build_cell(ens, _encode_values(ens.phi @ x + ens.xi, 0.5))
    assert cell.lo[1] == x[0]
    return cell, x, np.hstack([np.eye(2), -np.eye(2)])


def block_around(instance, origins):
    cell, x, directions = instance
    return [instance] + [around(cell, np.asarray(o, float), directions[:, ::-1]) for o in origins]


@st.composite
def ray_blocks(draw):
    """Up to four ray instances on one ray_instances draw's ensemble and
    support: the draw itself, then origins at dyadic multiples of its own
    (the origin itself, so a repeated cell, among them), each shot along a
    rolled, possibly negated copy of its directions; and whether the block
    shares one phi or stacks a copy per cell, as cells of differing
    supports do."""
    cell, x0, directions = draw(ray_instances())
    members = [(cell, x0, directions)]
    for _ in range(draw(st.integers(0, 3))):
        scale = draw(st.sampled_from([1.0, 0.5, 0.0, -0.5, -1.0]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        shift = draw(st.integers(0, directions.shape[1] - 1))
        members.append(around(cell, scale * x0, sign * np.roll(directions, shift, axis=1)))
    return members, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(ray_blocks(), st.integers(0, 5))
@example((block_around(origin_on_a_slab_end("lo"), [[0.25, 0.5], [-0.5, 0.0]]), True), 0)
@example((block_around(origin_on_a_slab_end("hi"), [[0.1, 0.0], [0.0, 0.0]]), False), 0)
@example((block_around(zero_row_instance(), [[0.0, 0.0], [-0.5, 0.25]]), True), 0)
@example((block_around(zero_row_instance(), [[0.25, 0.25]]), False), 3)
@example(([norm_edge_tie(), norm_edge_tie()], True), 0)
def test_block_ray_exits_equal_each_cells_own(blocked, r):
    members, shared_phi = blocked
    cells, origins, directions = (list(v) for v in zip(*members))
    phi = cells[0].phi if shared_phi else np.stack([c.phi for c in cells])
    block = _cell(cells[0].ensemble, np.stack([c.codes for c in cells]), 1.0, cells[0].support, phi)
    origins, directions = np.stack(origins), np.stack(directions)
    work = np.full((3, len(cells), block.m, directions.shape[2]), np.nan)
    for exits in (_ray_exits(block, origins, directions, r), _ray_exits(block, origins, directions, r, work)):
        for b, (cell, x0, d) in enumerate(members):
            assert exits[b].tobytes() == _ray_exits(cell, x0, d, r).tobytes()


def test_row_screen_keeps_few_rows_of_a_large_cell():
    ens = gen_ensemble(1024, 8, UNIT, 31)
    sig = sample_signal(SignalModel.unit_ball(8), Stream(32))
    cell = build_cell(ens, sense(ens, sig).codes)
    directions = np.hstack([_random_directions(Stream(33), 8, 512), np.eye(8), -np.eye(8)])
    w = cell.phi @ sig.x
    g = cell.phi @ directions
    rows = _screen_rows(cell, cell.hi - w, cell.lo - w, g, _ball_exits(sig.x, directions, 1.0), 0)
    assert 0 < rows.size < 0.1 * cell.m
    assert _ray_exits(cell, sig.x, directions, 0).tobytes() == tensor_ray_exits(cell, sig.x, directions, 0).tobytes()
