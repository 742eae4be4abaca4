"""Property tests of the one integer-verified membership test.

Every consistent POCS result and every width witness must pass
cell_contains on the cell built from the same instance.  Tiny delta makes
ray exits and slabs short, where rounding puts points on code boundaries.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qconsist.cellgeom import _BALL_TOL, build_cell, cell_contains, estimate_width
from qconsist.quantizer import QuantizerSpec
from qconsist.randkit import Stream
from qconsist.reconstruct import pocs_consistent, pocs_on_support
from qconsist.sensing import SignalModel, gen_ensemble, sample_signal, sense


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
def test_consistent_pocs_results_are_cell_members(instance):
    ensemble, signal, _ = instance
    codes = sense(ensemble, signal).codes
    if signal.support is None:
        result = pocs_consistent(ensemble, codes, max_iter=200)
    else:
        result = pocs_on_support(ensemble, codes, signal.support, max_iter=200)
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
