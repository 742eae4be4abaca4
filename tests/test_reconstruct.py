"""Feasibility solvers: fixed points, convergence, enumeration, baseline."""

import math
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qconsist.cellgeom import _BALL_TOL, build_cell, cell_contains, verified_member
from qconsist.quantizer import QuantizerSpec, _encode_values
from qconsist.randkit import Stream
from qconsist.reconstruct import (
    _DENSE_SHARE,
    EnumerationCapError,
    NoConsistentSolutionError,
    SingularMatrixError,
    _infeasibility_screen,
    linear_baseline,
    pocs_consistent,
    pocs_on_support,
    qcs_enumerate,
)
from qconsist.sensing import SensingEnsemble, SignalModel, gen_ensemble, sample_signal, sense

UNIT = QuantizerSpec(1.0)


def manual_ensemble(phi, xi, delta=1.0):
    return SensingEnsemble(phi=np.asarray(phi, float), xi=np.asarray(xi, float), spec=QuantizerSpec(delta), seed=0)


def is_consistent(ens, codes, u):
    got = _encode_values(ens.phi @ u + ens.xi, ens.spec.delta)
    return np.array_equal(got, np.asarray(codes)) and np.linalg.norm(u) <= 1.0 + 1e-9


def test_consistent_start_is_a_fixed_point():
    ens = gen_ensemble(16, 3, UNIT, 1)
    sig = sample_signal(SignalModel.unit_ball(3), Stream(2))
    codes = sense(ens, sig).codes
    result = pocs_consistent(ens, codes, x0=sig.x)
    assert result.consistent
    assert result.iterations == 0
    assert np.array_equal(result.x_star, sig.x)


def test_single_slab_projection():
    ens = manual_ensemble([[1.0]], [0.0])
    result = pocs_consistent(ens, np.array([0]), x0=np.array([5.0]))
    assert result.consistent
    assert 0.0 < result.x_star[0] < 1.0
    assert result.residual == 0.0


def test_pocs_converges_on_random_instances():
    successes = 0
    for seed in range(100):
        ens = gen_ensemble(64, 8, UNIT, 1000 + seed)
        sig = sample_signal(SignalModel.unit_ball(8), Stream(2000 + seed))
        codes = sense(ens, sig).codes
        result = pocs_consistent(ens, codes, max_iter=10_000)
        if result.consistent and is_consistent(ens, codes, result.x_star):
            successes += 1
    assert successes == 100


def test_pocs_distance_to_member_is_fejer_monotone():
    ens = gen_ensemble(48, 6, UNIT, 3)
    sig = sample_signal(SignalModel.unit_ball(6), Stream(4))
    codes = sense(ens, sig).codes
    u = np.zeros(6)
    distances = [np.linalg.norm(u - sig.x)]
    for _ in range(40):
        result = pocs_consistent(ens, codes, max_iter=1, x0=u)
        u = result.x_star
        distances.append(np.linalg.norm(u - sig.x))
        if result.consistent:
            break
    for a, b in zip(distances, distances[1:]):
        assert b <= a + 1e-12


def test_pocs_on_full_support_matches_plain():
    ens = gen_ensemble(32, 5, UNIT, 5)
    sig = sample_signal(SignalModel.unit_ball(5), Stream(6))
    codes = sense(ens, sig).codes
    plain = pocs_consistent(ens, codes)
    restricted = pocs_on_support(ens, codes, np.arange(5))
    assert np.array_equal(plain.x_star, restricted.x_star)
    assert plain.iterations == restricted.iterations


def test_pocs_on_true_support_recovers():
    for seed in range(100):
        ens = gen_ensemble(40, 10, UNIT, 3000 + seed)
        sig = sample_signal(SignalModel.sparse_ball(10, 2), Stream(4000 + seed))
        codes = sense(ens, sig).codes
        result = pocs_on_support(ens, codes, sig.support, max_iter=2_000)
        assert result.consistent
        mask = np.ones(10, dtype=bool)
        mask[sig.support] = False
        assert np.all(result.x_star[mask] == 0.0)


def test_pocs_reports_failure_on_uninformative_support():
    # Second coordinate is invisible to the measurements, whose slab excludes 0,
    # so no vector supported on {1} can be consistent.
    ens = manual_ensemble([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])
    codes = _encode_values(ens.phi @ np.array([0.8, 0.0]) + ens.xi, 1.0)
    result = pocs_on_support(ens, codes, np.array([1]), max_iter=500)
    assert not result.consistent
    assert result.residual > 0.0


def test_enumerate_finds_sparse_solutions():
    for seed in range(100):
        ens = gen_ensemble(40, 10, UNIT, 5000 + seed)
        sig = sample_signal(SignalModel.sparse_ball(10, 2), Stream(6000 + seed))
        codes = sense(ens, sig).codes
        result = qcs_enumerate(ens, codes, 2)
        assert result.consistent
        assert np.count_nonzero(result.x_star) <= 2
        assert is_consistent(ens, codes, result.x_star)


def test_enumerate_cap():
    ens = gen_ensemble(8, 10, UNIT, 7)
    codes = sense(ens, np.zeros(10)).codes
    with pytest.raises(EnumerationCapError):
        qcs_enumerate(ens, codes, 2, enumeration_cap=44)  # C(10,2) = 45
    result = qcs_enumerate(ens, codes, 2, enumeration_cap=45)
    assert result.consistent


def test_enumerate_full_support_equals_plain_pocs():
    ens = gen_ensemble(24, 4, UNIT, 8)
    sig = sample_signal(SignalModel.unit_ball(4), Stream(9))
    codes = sense(ens, sig).codes
    by_enum = qcs_enumerate(ens, codes, 4, max_iter=10_000)
    plain = pocs_consistent(ens, codes, max_iter=10_000)
    assert by_enum.consistent and plain.consistent
    assert np.array_equal(by_enum.x_star, plain.x_star)


def test_enumerate_raises_when_nothing_is_consistent():
    # A dense, well-separated signal in R^3 sensed densely: no 1-sparse vector
    # can reproduce all codes.
    ens = gen_ensemble(60, 3, QuantizerSpec(0.1), 10)
    x = np.array([0.5, -0.5, 0.5])
    codes = sense(ens, x).codes
    with pytest.raises(NoConsistentSolutionError) as info:
        qcs_enumerate(ens, codes, 1, max_iter=200)
    # every support is certified infeasible, so the error is a proof
    assert (info.value.supports, info.value.certified) == (3, 3)
    assert "no 1-sparse vector in the radius-1 ball" in str(info.value)
    assert "all 3 supports are certified infeasible" in str(info.value)
    assert "not an infeasibility certificate" not in str(info.value)


def test_enumeration_failure_names_the_cycle_cap():
    # The true support {0, 9} verifies after 351 POCS cycles, so the default
    # 200-cycle cap fails on a feasible instance: the error must say that
    # it ran out of cycles, not that no solution exists.
    ens = gen_ensemble(40, 10, UNIT, 7848261063727613129)
    sig = sample_signal(SignalModel.sparse_ball(10, 2), Stream(12605518005071551451))
    codes = sense(ens, sig).codes
    with pytest.raises(NoConsistentSolutionError, match="within max_iter=200 POCS cycles") as info:
        qcs_enumerate(ens, codes, 2)
    assert "not an infeasibility certificate" in str(info.value)
    assert (info.value.supports, info.value.max_iter) == (45, 200)
    assert 0 < info.value.certified < 45
    result = qcs_enumerate(ens, codes, 2, max_iter=400)
    assert result.consistent
    assert is_consistent(ens, codes, result.x_star)


def test_linear_baseline_identity():
    ens = manual_ensemble(np.eye(2), [0.0, 0.0])
    codes = sense(ens, np.array([0.2, 0.7])).codes
    assert np.allclose(linear_baseline(ens, codes), [0.5, 0.5], atol=1e-12)


def test_linear_baseline_unquantized_limit():
    delta = 1e-9
    ens = gen_ensemble(32, 4, QuantizerSpec(delta), 11)
    sig = sample_signal(SignalModel.unit_ball(4), Stream(12))
    codes = sense(ens, sig).codes
    recovered = linear_baseline(ens, codes)
    assert np.linalg.norm(recovered - sig.x) < 1e-6


def test_linear_baseline_errors():
    ens = gen_ensemble(3, 5, UNIT, 13)
    with pytest.raises(ValueError):
        linear_baseline(ens, np.zeros(3, dtype=np.int64))
    rank_deficient = manual_ensemble([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [0.0, 0.0, 0.0])
    with pytest.raises(SingularMatrixError):
        linear_baseline(rank_deficient, np.zeros(3, dtype=np.int64))


def test_linear_baseline_rmse_decays_like_inverse_sqrt():
    # Median error over trials vs M should fit a slope near -1/2 in log-log.
    medians = []
    m_values = (64, 256, 1024, 4096)
    for m in m_values:
        errors = []
        for trial in range(12):
            ens = gen_ensemble(m, 8, UNIT, 7000 + 31 * m + trial)
            sig = sample_signal(SignalModel.unit_ball(8), Stream(8000 + 31 * m + trial))
            codes = sense(ens, sig).codes
            errors.append(np.linalg.norm(sig.x - linear_baseline(ens, codes)))
        medians.append(np.median(errors))
    slope = np.polyfit(np.log(m_values), np.log(medians), 1)[0]
    assert -0.65 < slope < -0.35


def scalar_pocs(cell, tol=None, max_iter=100_000, x0=None):
    """Oracle: every cycle steps through every row by its own dot product.

    Returns (x_star, iterations, consistent, residual) and the number of
    rows that moved u in each cycle.
    """
    margin = 1e-9 * cell.delta if tol is None else float(tol)
    phi = cell.phi
    row_norm2 = np.einsum("ij,ij->i", phi, phi)
    u = np.zeros(cell.phi.shape[1]) if x0 is None else cell.restrict(np.asarray(x0, dtype=np.float64)).copy()

    def verified(v):
        return verified_member(cell, v, ball_tol=_BALL_TOL)

    def max_violation(v):
        y = phi @ v
        slab = max(0.0, float(np.max(cell.lo - y, initial=0.0)), float(np.max(y - cell.hi, initial=0.0)))
        return max(slab, float(np.linalg.norm(v)) - cell.ball_radius, 0.0)

    moved = []
    if verified(u):
        return (cell.embed(u), 0, True, max_violation(u)), moved
    iterations = 0
    consistent = False
    target_lo = cell.lo + margin
    target_hi = cell.hi - margin
    for iterations in range(1, max_iter + 1):
        moved.append(0)
        for j in range(cell.m):
            y = float(phi[j] @ u)
            c = min(max(y, target_lo[j]), target_hi[j])
            if y != c:
                if row_norm2[j] == 0.0:
                    continue
                u -= ((y - c) / row_norm2[j]) * phi[j]
                moved[-1] += 1
        changed = moved[-1] > 0
        nrm = float(np.linalg.norm(u))
        if nrm > cell.ball_radius:
            u *= cell.ball_radius / nrm
            changed = True
        if verified(u):
            consistent = True
            break
        if not changed:
            break
    return (cell.embed(u), iterations, consistent, max_violation(u)), moved


def assert_matches_scalar_pocs(ens, codes, support, tol, max_iter, x0):
    if support is None:
        got = pocs_consistent(ens, codes, tol=tol, max_iter=max_iter, x0=x0)
    else:
        got = pocs_on_support(ens, codes, support, tol=tol, max_iter=max_iter, x0=x0)
    (x_star, iterations, consistent, residual), moved = scalar_pocs(build_cell(ens, codes, 1.0, support), tol, max_iter, x0)
    assert np.array_equal(got.x_star, x_star)
    assert (got.iterations, got.consistent, got.residual) == (iterations, consistent, residual)
    return moved


@st.composite
def pocs_instances(draw):
    """(ensemble, codes, support, tol, max_iter, x0) for one POCS solve.

    Lattice instances draw dyadic rows, dithers, margins and points, so
    products land exactly on slab ends; a zeroed column makes supports whose
    rows all have row_norm2 == 0, and a start point may sit exactly on row
    0's lower target end.  Random instances draw delta log-uniform in
    [1e-6, 4] and a support that may miss the signal's, so that POCS can get
    stuck or run out of a small max_iter.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        delta = draw(st.sampled_from([0.25, 0.5, 1.0]))
        values = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 0.25])
        points = st.lists(st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5]), min_size=n, max_size=n)
        phi = np.asarray(draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=8)))
        phi = np.vstack([phi, phi[: draw(st.integers(0, len(phi)))]])
        if draw(st.booleans()):
            phi[:, draw(st.integers(0, n - 1))] = 0.0
        xi = delta * np.asarray(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), min_size=len(phi), max_size=len(phi))))
        tol = delta * draw(st.sampled_from([0.125, 0.25]))
        truth = np.asarray(draw(points))
        codes = _encode_values(phi @ truth + xi, delta)
        x0 = np.asarray(draw(points)) if draw(st.booleans()) else None
        if x0 is not None and draw(st.booleans()):
            # put x0 on row 0's lower target end: delta*code - xi + tol
            v = float(phi[0] @ x0) - tol
            codes[0] = math.ceil(v / delta)
            xi[0] = delta * codes[0] - v
        ens = manual_ensemble(phi, xi, delta)
    else:
        delta = 10.0 ** draw(st.floats(-6.0, math.log10(4.0)))
        ens = gen_ensemble(draw(st.integers(1, 120)), n, QuantizerSpec(delta), draw(st.integers(0, 2**63)))
        if draw(st.booleans()):
            repeats = draw(st.integers(1, ens.m))
            ens = manual_ensemble(np.vstack([ens.phi, ens.phi[:repeats]]), np.concatenate([ens.xi, ens.xi[:repeats]]), delta)
        model = SignalModel.sparse_ball(n, draw(st.integers(1, n)))
        codes = sense(ens, sample_signal(model, Stream(draw(st.integers(0, 2**63))))).codes
        tol = draw(st.sampled_from([None, delta * 1e-3]))
        x0 = sample_signal(SignalModel.unit_ball(n), Stream(draw(st.integers(0, 2**63)))).x if draw(st.booleans()) else None
    support = None
    if draw(st.booleans()):
        support = np.asarray(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    return ens, codes, support, tol, draw(st.integers(1, 300)), x0


@given(pocs_instances())
@example((manual_ensemble([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), np.array([0, 1]), None, 0.125, 50, np.array([0.125, 0.5])))
@example((manual_ensemble([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0]), np.array([0, 1]), np.array([1]), None, 500, None))
def test_screened_pocs_equals_the_scalar_loop(instance):
    assert_matches_scalar_pocs(*instance)


@pytest.mark.parametrize(
    "m, n, k, seed, support, max_iter, returns",
    [
        (128, 8, 8, 9128, None, 100_000, False),  # feasible: moves on many rows, then on few
        (40, 10, 2, 5001, (4, 9), 200, True),  # infeasible enumeration supports: few, then many again
        (40, 10, 2, 5013, (2, 3), 200, True),
    ],
)
def test_screened_pocs_equals_the_scalar_loop_across_dense_and_screened_cycles(m, n, k, seed, support, max_iter, returns):
    ens = gen_ensemble(m, n, UNIT, seed)
    codes = sense(ens, sample_signal(SignalModel.sparse_ball(n, k), Stream(seed + 1000))).codes
    support = None if support is None else np.asarray(support)
    moved = assert_matches_scalar_pocs(ens, codes, support, None, max_iter, None)
    dense = [count >= m * _DENSE_SHARE for count in moved]
    assert dense[0] and not all(dense)
    assert any(not a and b for a, b in zip(dense, dense[1:])) == returns


def test_screened_pocs_equals_the_scalar_loop_on_repeated_rows():
    # The repeat of a row just stepped onto its slab end lies a few ulps from
    # that end, where two dot products of the row and u round differently:
    # a screen without its pad would skip rows the exact step moves.
    for seed in range(9000, 9010):
        ens = gen_ensemble(32, 4, QuantizerSpec(1e-3), seed)
        ens = manual_ensemble(np.vstack([ens.phi, ens.phi[:8]]), np.concatenate([ens.xi, ens.xi[:8]]), 1e-3)
        codes = sense(ens, sample_signal(SignalModel.unit_ball(4), Stream(seed + 1000))).codes
        assert_matches_scalar_pocs(ens, codes, None, None, 300, None)


def plain_enumerate(ens, codes, k, max_iter=200):
    """Oracle: POCS on every k-support in order, with no screen."""
    supports = list(combinations(range(ens.n), k))
    for support in supports:
        result = pocs_on_support(ens, codes, np.asarray(support), max_iter=max_iter)
        if result.consistent:
            return result
    raise NoConsistentSolutionError("no support verified", len(supports), max_iter, 0)


def assert_matches_plain_enumerate(ens, codes, k, max_iter=200):
    try:
        want = plain_enumerate(ens, codes, k, max_iter)
    except NoConsistentSolutionError as exc:
        with pytest.raises(NoConsistentSolutionError) as info:
            qcs_enumerate(ens, codes, k, max_iter=max_iter)
        assert (info.value.supports, info.value.max_iter) == (exc.supports, exc.max_iter)
        return
    got = qcs_enumerate(ens, codes, k, max_iter=max_iter)
    assert np.array_equal(got.x_star, want.x_star)
    assert (got.iterations, got.consistent, got.residual) == (want.iterations, want.consistent, want.residual)


def certified_supports(ens, codes, k):
    certified = _infeasibility_screen(build_cell(ens, codes), k)
    return [support for support in combinations(range(ens.n), k) if certified(support)]


@st.composite
def enumeration_instances(draw):
    """(ensemble, codes, k) with n <= 4, k <= 2 and M in [2, 40].

    delta is 1e-6, 1, or log-uniform in [1e-6, 4]; the codes are those of a
    k-sparse signal, or those moved one step on one row, which often leaves
    no consistent k-sparse vector at all.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, 2)))
    delta = draw(st.sampled_from([1e-6, 1.0, None])) or 10.0 ** draw(st.floats(-6.0, math.log10(4.0)))
    ens = gen_ensemble(draw(st.integers(2, 40)), n, QuantizerSpec(delta), draw(st.integers(0, 2**63)))
    codes = sense(ens, sample_signal(SignalModel.sparse_ball(n, k), Stream(draw(st.integers(0, 2**63))))).codes
    if draw(st.booleans()):
        codes[draw(st.integers(0, ens.m - 1))] += draw(st.sampled_from([-1, 1]))
    return ens, codes, k


def grid_members(ens, codes, support, points=101):
    """Points of a grid over [-1, 1]^k on the support that pass cell_contains."""
    cell = build_cell(ens, codes, 1.0, np.asarray(support))
    axis = np.linspace(-1.0, 1.0, points)
    grid = np.stack(np.meshgrid(*[axis] * len(support)), axis=-1).reshape(-1, len(support))
    grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
    # rounding moves a code by at most one step: keep every near miss for the exact test
    near = np.all(np.abs(_encode_values(grid @ cell.phi.T + ens.xi, ens.spec.delta) - codes) <= 1, axis=1)
    return [x for x in (cell.embed(u) for u in grid[near]) if cell_contains(cell, x, ball_tol=_BALL_TOL)]


@settings(max_examples=20)
@given(enumeration_instances(), st.integers(0, 5))
def test_certified_supports_never_verify_under_pocs(instance, pick):
    # one certified support per instance: each runs the whole 5000-cycle cap
    ens, codes, k = instance
    certified = certified_supports(ens, codes, k)
    if certified:
        support = certified[pick % len(certified)]
        assert not pocs_on_support(ens, codes, np.asarray(support), max_iter=5000).consistent


@given(enumeration_instances().filter(lambda instance: instance[0].n <= 3))
def test_certified_supports_hold_no_grid_point(instance):
    ens, codes, k = instance
    for support in certified_supports(ens, codes, k):
        assert grid_members(ens, codes, support) == []


@settings(max_examples=200)
@given(st.floats(0.1, 10.0), st.floats(1e-3, 1.0), st.integers(1, 20))
def test_a_support_with_a_verified_point_is_never_certified(s, delta, j):
    # Rows s and -s with s*u = j*delta make the cell one point in exact
    # arithmetic, or none: only the rounding margins keep the certificate
    # from ruling out the point u that verifies.
    u = j * delta / s
    ens = manual_ensemble([[s], [-s]], [0.0, 0.0], delta)
    codes = _encode_values(ens.phi @ [u] + ens.xi, delta)
    cell = build_cell(ens, codes)
    if verified_member(cell, np.array([u]), ball_tol=_BALL_TOL):
        assert not _infeasibility_screen(cell, 1)((0,))


@given(enumeration_instances())
def test_screened_enumeration_equals_the_plain_loop(instance):
    assert_matches_plain_enumerate(*instance)


def test_screened_enumeration_equals_the_plain_loop_on_the_slow_instances():
    for seed in range(5):
        ens = gen_ensemble(40, 10, UNIT, 5000 + seed)
        codes = sense(ens, sample_signal(SignalModel.sparse_ball(10, 2), Stream(6000 + seed))).codes
        assert_matches_plain_enumerate(ens, codes, 2)


def enumerate_quietly(ens, codes, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_plain_enumerate(ens, codes, k)


def test_screen_falls_through_on_a_zero_column():
    # Column 0 is invisible to both rows: its 1x1 Gram matrix is singular, so
    # support {0} gets POCS (which cannot verify it) and support {1} verifies.
    ens = manual_ensemble([[0.0, 1.0], [0.0, 2.0]], [0.0, 0.0])
    codes = _encode_values(ens.phi @ np.array([0.0, 0.8]) + ens.xi, 1.0)
    assert certified_supports(ens, codes, 1) == []
    enumerate_quietly(ens, codes, 1)
    result = qcs_enumerate(ens, codes, 1)
    assert result.consistent and result.x_star[0] == 0.0


def test_screen_falls_through_on_repeated_columns():
    # Columns 0 and 1 are equal integers, so the Gram matrix of {0, 1} is
    # exactly singular; the signal lies on column 0, so {0, 1} is feasible.
    rows = np.random.default_rng(77).integers(-3, 4, size=(16, 3)).astype(float)
    rows[:, 1] = rows[:, 0]
    ens = manual_ensemble(rows, np.full(16, 0.25))
    codes = _encode_values(ens.phi @ np.array([0.3, 0.0, 0.0]) + ens.xi, 1.0)
    assert (0, 1) not in certified_supports(ens, codes, 2)
    enumerate_quietly(ens, codes, 2)
    assert qcs_enumerate(ens, codes, 2).consistent


def test_screen_falls_through_near_the_code_guard():
    # Rows scaled by 2**60 put codes within a factor of 8 of the 2**62 guard,
    # where one code step is below the rounding of the cell bounds.  The
    # signal's support {1} is not certified and still gets POCS; the other
    # columns miss the codes by ~1e18, which the certificate still proves.
    ens = gen_ensemble(12, 3, UNIT, 55)
    ens = manual_ensemble(ens.phi * 2.0**60, ens.xi)
    codes = _encode_values(ens.phi @ np.array([0.0, 0.6, 0.0]) + ens.xi, 1.0)
    assert np.abs(codes).max() > 2**59
    assert certified_supports(ens, codes, 1) == [(0,), (2,)]
    enumerate_quietly(ens, codes, 1)


def test_screen_memory_stays_linear_in_n_at_k_1():
    # C(4000, 1) supports pass the default cap; an n x n Gram matrix would
    # take 128 MB, while each support needs only its M x k columns.  The
    # signal sits on the last column, so every support is tried.
    ens = gen_ensemble(40, 4000, UNIT, 11)
    x = np.zeros(4000)
    x[-1] = 0.6
    codes = sense(ens, x).codes
    tracemalloc.start()
    try:
        result = qcs_enumerate(ens, codes, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.consistent and np.flatnonzero(result.x_star).tolist() == [3999]
    assert peak < 8 * 2**20
