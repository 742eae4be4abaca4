"""Property tests of the one integer-verified membership test.

Every consistent solver result and every width witness must pass
cell_contains on the cell built from the same instance.  Tiny delta makes
ray exits and slabs short, where rounding puts points on code boundaries.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from qconsist.cellgeom import _BALL_TOL, build_cell, cell_contains, estimate_width
from qconsist.quantizer import QuantizerSpec
from qconsist.randkit import Stream
from qconsist.reconstruct import pocs_consistent, pocs_on_support
from qconsist.sensing import SensingEnsemble, Signal, SignalModel, gen_ensemble, sample_signal, sense

UNIT = QuantizerSpec(1.0)


def scaled(ensemble, factor):
    """The ensemble with every row multiplied by `factor`."""
    return SensingEnsemble(phi=ensemble.phi * factor, xi=ensemble.xi, spec=ensemble.spec, seed=ensemble.seed)


# column 0 is invisible to every row
ZERO_COLUMN = SensingEnsemble(
    phi=np.array([[0.0, 1.0], [0.0, -2.0], [0.0, 0.5]]), xi=np.array([0.1, 0.7, 0.3]), spec=UNIT, seed=0
)
# codes within a factor of 2**14 (verifiable) and 2**2 (below rounding) of the 2**62 guard
NEAR_GUARD = [scaled(gen_ensemble(12, 3, UNIT, 55), 2.0**e) for e in (48, 60)]


@st.composite
def instances(draw):
    """(ensemble, signal, stream): n <= 6, M <= 64, delta log-uniform in
    [1e-6, 4], unit-ball signals or sparse ones with a support-restricted cell."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 64))
    delta = math.exp(draw(st.floats(math.log(1e-6), math.log(4.0))))
    k = draw(st.one_of(st.none(), st.integers(1, n)))
    ensemble = gen_ensemble(m, n, QuantizerSpec(delta), draw(st.integers(0, 2**63)))
    stream = Stream(draw(st.integers(0, 2**63)))
    return ensemble, sample_signal(SignalModel(n, k), stream), stream


@given(instances())
@example((ZERO_COLUMN, Signal(np.array([0.3, 0.8]), np.array([0, 1])), Stream(0)))
@example((ZERO_COLUMN, Signal(np.array([0.0, 0.8])), Stream(0)))
@example((NEAR_GUARD[0], Signal(np.array([0.0, 0.6, 0.0])), Stream(0)))
@example((NEAR_GUARD[0], Signal(np.array([0.0, 0.6, 0.0]), np.array([1])), Stream(0)))
@example((NEAR_GUARD[1], Signal(np.array([0.0, 0.6, 0.0]), np.array([1])), Stream(0)))
def test_consistent_pocs_results_are_cell_members(instance):
    ensemble, signal, _ = instance
    codes = sense(ensemble, signal).codes
    if signal.support is None:
        result = pocs_consistent(ensemble, codes)
    else:
        result = pocs_on_support(ensemble, codes, signal.support)
    if result.consistent:
        cell = build_cell(ensemble, codes, 1.0, signal.support)
        assert cell_contains(cell, result.x_star, ball_tol=_BALL_TOL)


@given(instances(), st.sampled_from([0, 2]))
def test_width_witnesses_are_cell_members_at_the_reported_distance(instance, r):
    ensemble, signal, stream = instance
    cell = build_cell(ensemble, sense(ensemble, signal).codes, 1.0, signal.support)
    est = estimate_width(cell, signal.x, 16, stream, r=r)
    assert cell_contains(cell, est.witness, r, ball_tol=_BALL_TOL)
    assert abs(float(np.linalg.norm(est.witness - signal.x)) - est.value) <= 1e-12
