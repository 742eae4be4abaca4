"""Feasibility solvers: convergence, certificates, enumeration, baseline."""

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
from qconsist import reconstruct
from qconsist.randkit import Stream
from qconsist.reconstruct import (
    EnumerationCapError,
    NoConsistentSolutionError,
    SingularMatrixError,
    _farkas,
    _least_squares_residual,
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


def test_single_slab_projection():
    # the start 0 lies on the slab's lower end, which no returned point may
    ens = manual_ensemble([[1.0]], [0.0])
    result = pocs_consistent(ens, np.array([0]))
    assert result.consistent
    assert 0.0 < result.x_star[0] < 1.0
    assert result.residual == 0.0


def test_pocs_converges_on_random_instances():
    successes = 0
    for seed in range(100):
        ens = gen_ensemble(64, 8, UNIT, 1000 + seed)
        sig = sample_signal(SignalModel.unit_ball(8), Stream(2000 + seed))
        codes = sense(ens, sig).codes
        result = pocs_consistent(ens, codes)
        if result.consistent and is_consistent(ens, codes, result.x_star):
            successes += 1
    assert successes == 100


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
        result = pocs_on_support(ens, codes, sig.support)
        assert result.consistent
        mask = np.ones(10, dtype=bool)
        mask[sig.support] = False
        assert np.all(result.x_star[mask] == 0.0)


def test_pocs_reports_failure_on_uninformative_support():
    # Second coordinate is invisible to the measurements, whose slab excludes 0,
    # so no vector supported on {1} can be consistent.
    ens = manual_ensemble([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])
    codes = _encode_values(ens.phi @ np.array([0.8, 0.0]) + ens.xi, 1.0)
    result = pocs_on_support(ens, codes, np.array([1]))
    assert not result.consistent and result.proved_empty
    assert result.residual > 0.0


def test_an_empty_cell_ends_with_a_certificate():
    # codes three steps off on one row of a dense, fine cell leave no point
    ens = gen_ensemble(60, 3, QuantizerSpec(0.1), 10)
    codes = sense(ens, np.array([0.5, -0.5, 0.5])).codes
    codes[0] += 3
    result = pocs_consistent(ens, codes)
    assert not result.consistent and result.proved_empty
    assert result.iterations < 100


def test_enumerate_finds_sparse_solutions():
    for seed in range(100):
        ens = gen_ensemble(40, 10, UNIT, 5000 + seed)
        sig = sample_signal(SignalModel.sparse_ball(10, 2), Stream(6000 + seed))
        codes = sense(ens, sig).codes
        result = qcs_enumerate(ens, codes, 2)
        assert result.consistent
        assert np.count_nonzero(result.x_star) <= 2
        assert is_consistent(ens, codes, result.x_star)


def test_enumerate_cap(monkeypatch):
    ens = gen_ensemble(8, 10, UNIT, 7)
    codes = sense(ens, np.zeros(10)).codes
    monkeypatch.setattr(reconstruct, "_ENUMERATION_CAP", 44)
    with pytest.raises(EnumerationCapError, match="needs 45 candidates, above the cap 44"):
        qcs_enumerate(ens, codes, 2)  # C(10,2) = 45
    monkeypatch.setattr(reconstruct, "_ENUMERATION_CAP", 45)
    result = qcs_enumerate(ens, codes, 2)
    assert result.consistent


def test_enumerate_full_support_equals_plain_pocs():
    ens = gen_ensemble(24, 4, UNIT, 8)
    sig = sample_signal(SignalModel.unit_ball(4), Stream(9))
    codes = sense(ens, sig).codes
    by_enum = qcs_enumerate(ens, codes, 4)
    plain = pocs_consistent(ens, codes)
    assert by_enum.consistent and plain.consistent
    assert np.array_equal(by_enum.x_star, plain.x_star)


def test_enumerate_raises_when_nothing_is_consistent():
    # A dense, well-separated signal in R^3 sensed densely: no 1-sparse vector
    # can reproduce all codes.
    ens = gen_ensemble(60, 3, QuantizerSpec(0.1), 10)
    x = np.array([0.5, -0.5, 0.5])
    codes = sense(ens, x).codes
    with pytest.raises(NoConsistentSolutionError) as info:
        qcs_enumerate(ens, codes, 1)
    # every support is certified infeasible, so the error is a proof
    assert (info.value.supports, info.value.certified) == (3, 3)
    assert "no 1-sparse vector in the radius-1 ball" in str(info.value)
    assert "all 3 supports are certified infeasible" in str(info.value)
    assert "not an infeasibility certificate" not in str(info.value)


@pytest.mark.parametrize(
    "m, n, ensemble_seed, signal_seed",
    [(40, 10, 7848261063727613129, 12605518005071551451), (100, 16, 5003, 6003)],
)
def test_enumeration_finds_the_supports_that_need_many_steps(m, n, ensemble_seed, signal_seed):
    # The true supports {0, 9} and {1, 10} took 351 and 236 cyclic-projection
    # passes, past the 200 per support that the default cap allowed them.
    ens = gen_ensemble(m, n, UNIT, ensemble_seed)
    sig = sample_signal(SignalModel.sparse_ball(n, 2), Stream(signal_seed))
    codes = sense(ens, sig).codes
    result = qcs_enumerate(ens, codes, 2)
    assert result.consistent
    assert np.flatnonzero(result.x_star).tolist() == sig.support.tolist()
    assert cell_contains(build_cell(ens, codes), result.x_star)


def test_enumeration_failure_names_the_undecided_supports():
    # No point of the one support left keeps a slack of 0.3 and verifies,
    # and no certificate rules it out: the stop rule leaves it undecided.
    ens = gen_ensemble(40, 10, UNIT, 5003)
    codes = sense(ens, sample_signal(SignalModel.sparse_ball(10, 2), Stream(6003))).codes
    with pytest.raises(NoConsistentSolutionError) as info:
        qcs_enumerate(ens, codes, 2, tol=0.3)
    message = str(info.value)
    assert (info.value.supports, info.value.certified) == (45, 44)
    assert "44 certified infeasible and 1 undecided, with no point of slack 0.3 verified" in message
    assert "not an infeasibility certificate" in message and "max_iter" not in message


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


@st.composite
def pocs_instances(draw):
    """(ensemble, codes, support, tol) for one barrier solve.

    Lattice instances draw dyadic rows, dithers, margins and points, so
    products land exactly on slab ends; a zeroed column makes supports whose
    rows all have row_norm2 == 0, and row 0's lower or upper slab end may
    pass through the origin, where the barrier starts.  Random instances
    draw delta log-uniform in [1e-6, 4] and a support that may miss the
    signal's, so that the solver may find the cell empty or stop undecided.
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
        codes = _encode_values(phi @ np.asarray(draw(points)) + xi, delta)
        if draw(st.booleans()):
            # xi_0 = delta*code_0 puts row 0's slab end delta*code_0 - xi_0 at
            # 0; dithers in [0, delta) leave code 0 (lower end) or -1 (upper)
            codes[0], xi[0] = draw(st.sampled_from([0, -1])), 0.0
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
    support = None
    if draw(st.booleans()):
        support = np.asarray(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    return ens, codes, support, tol


def slack(cell, x):
    """The least distance of cell.phi @ x inside the slabs [lo, hi]."""
    ax = cell.phi @ cell.restrict(x)
    return float(min(np.min(ax - cell.lo), np.min(cell.hi - ax)))


def step_bound(m, margin):
    """Newton steps the stop rule allows a solve on M rows: at most 50 per
    round, with t = 1e4 * 20**j in round j, until the gap (2M + 1)/t is at
    most the margin, tol or its default 1e-9*delta."""
    return 50 * (1 + max(0, math.ceil(math.log((2 * m + 1) / (1e4 * margin), 20))))


@given(pocs_instances())
@example((manual_ensemble([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]), np.array([0, 1]), None, 0.125))
@example((manual_ensemble([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0]), np.array([0, 1]), np.array([1]), None))
@example((manual_ensemble([[1.0], [2.0]], [0.0, 0.0]), np.array([0, 0]), None, 0.25))
def test_solver_results_verify_or_are_certified(instance):
    ens, codes, support, tol = instance
    if support is None:
        result = pocs_consistent(ens, codes, tol=tol)
    else:
        result = pocs_on_support(ens, codes, support, tol=tol)
    cell = build_cell(ens, codes, 1.0, support)
    margin = 1e-9 * ens.spec.delta if tol is None else tol
    assert result.iterations <= step_bound(ens.m, margin) and cell.on_support(result.x_star)
    if result.consistent:
        assert cell_contains(cell, result.x_star, ball_tol=_BALL_TOL)
        assert slack(cell, result.x_star) >= margin
    if result.proved_empty:
        assert not result.consistent
        if cell.phi.shape[1] <= 2:
            assert grid_members(ens, codes, np.arange(ens.n) if support is None else support) == []


def plain_enumerate(ens, codes, k):
    """Oracle: the barrier on every k-support in order, with no screen."""
    supports = list(combinations(range(ens.n), k))
    for support in supports:
        result = pocs_on_support(ens, codes, np.asarray(support))
        if result.consistent:
            return result
    raise NoConsistentSolutionError("no support verified", len(supports), 0)


def assert_matches_plain_enumerate(ens, codes, k):
    try:
        want = plain_enumerate(ens, codes, k)
    except NoConsistentSolutionError as exc:
        with pytest.raises(NoConsistentSolutionError) as info:
            qcs_enumerate(ens, codes, k)
        assert info.value.supports == exc.supports
        return
    got = qcs_enumerate(ens, codes, k)
    assert np.array_equal(got.x_star, want.x_star)
    assert (got.iterations, got.consistent, got.residual) == (want.iterations, want.consistent, want.residual)


def certified_supports(ens, codes, k):
    """The supports that stage 1 of qcs_enumerate certifies."""
    cell = build_cell(ens, codes)
    certified = _farkas(cell, k)
    c = cell.lo + cell.delta / 2.0
    found = []
    for support in combinations(range(ens.n), k):
        a = ens.phi[:, list(support)]
        if certified(a, _least_squares_residual(a, c)):
            found.append(support)
    return found


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


@given(enumeration_instances())
def test_every_support_solve_stays_within_the_step_bound(instance):
    ens, codes, k = instance
    for support in combinations(range(ens.n), k):
        assert pocs_on_support(ens, codes, np.asarray(support)).iterations <= step_bound(ens.m, 1e-9 * ens.spec.delta)


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
    # one certified support per instance, which the barrier must not verify
    ens, codes, k = instance
    certified = certified_supports(ens, codes, k)
    if certified:
        support = certified[pick % len(certified)]
        assert not pocs_on_support(ens, codes, np.asarray(support)).consistent


@given(enumeration_instances().filter(lambda instance: instance[0].n <= 3))
def test_certified_supports_hold_no_grid_point(instance):
    # both certificates: stage 1's least-squares y and the barrier's duals
    ens, codes, k = instance
    by_duals = [s for s in combinations(range(ens.n), k) if pocs_on_support(ens, codes, np.asarray(s)).proved_empty]
    for support in set(certified_supports(ens, codes, k)) | set(by_duals):
        assert grid_members(ens, codes, support) == []


@st.composite
def duals(draw, a):
    """Some y in R^M for the certificate on the columns `a`.

    Small integer vectors hit the thin directions of lattice cells, at a
    drawn scale that may be near the ends of the double range, and floats
    the rest; half of them are projected off the column space of `a`,
    which drops the ball term rho ||a^T y|| from the certificate.
    """
    m = a.shape[0]
    if draw(st.booleans()):
        scale = 2.0 ** draw(st.one_of(st.integers(-20, 20), st.integers(-1070, 1020)))
        y = scale * np.asarray(draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)), float)
    else:
        y = np.asarray(draw(st.lists(st.floats(-1e6, 1e6), min_size=m, max_size=m)))
    if draw(st.booleans()):
        y = y - a @ np.linalg.lstsq(a, y, rcond=None)[0]
    return y


def test_a_tiny_dual_keeps_the_ball_term():
    # u = 1 verifies on rows 1 and -1.  With y = (2**-900, 0) the square of
    # a^T y underflows, and a norm that lost it would drop rho ||a^T y||
    # from the certificate and rule u out.
    ens = manual_ensemble([[1.0], [-1.0]], [0.0, 0.0])
    cell = build_cell(ens, _encode_values(ens.phi @ [1.0] + ens.xi, 1.0))
    assert verified_member(cell, np.array([1.0]), ball_tol=_BALL_TOL)
    certified = _farkas(cell, 1)
    for scale in (2.0**-1070, 2.0**-900, 1.0, 2.0**900):
        assert not certified(cell.phi, np.array([scale, 0.0]))


@given(enumeration_instances(), st.data())
def test_no_dual_certifies_a_support_with_a_verified_point(instance, data):
    ens, codes, k = instance
    certified = _farkas(build_cell(ens, codes), k)
    for support in combinations(range(ens.n), k):
        if pocs_on_support(ens, codes, np.asarray(support)).consistent:
            a = ens.phi[:, list(support)]
            for y in data.draw(st.lists(duals(a), min_size=1, max_size=4)):
                assert not certified(a, y)


@settings(max_examples=200)
@given(st.floats(0.1, 10.0), st.floats(1e-3, 1.0), st.integers(1, 20), st.data())
def test_a_support_with_a_verified_point_is_never_certified(s, delta, j, data):
    # Rows s and -s with s*u = j*delta make the cell one point in exact
    # arithmetic, or none: only the rounding margins keep the certificate
    # from ruling out the point u that verifies, with the least-squares y
    # or any other.
    u = j * delta / s
    ens = manual_ensemble([[s], [-s]], [0.0, 0.0], delta)
    codes = _encode_values(ens.phi @ [u] + ens.xi, delta)
    cell = build_cell(ens, codes)
    if verified_member(cell, np.array([u]), ball_tol=_BALL_TOL):
        assert certified_supports(ens, codes, 1) == []
        certified = _farkas(cell, 1)
        for y in [np.ones(2)] + data.draw(st.lists(duals(cell.phi), min_size=1, max_size=4)):
            assert not certified(cell.phi, y)


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
    # support {0} gets the barrier (which cannot verify it) and support {1} verifies.
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
    # signal's support {1} is not certified and still gets the barrier; the other
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
