"""Stream determinism, substream independence, and distribution self-checks."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from qconsist.randkit import Stream, derive_stream, gauss, substream, uniform, unit_sphere


def test_derive_stream_is_pure_and_deterministic():
    first = derive_stream(123, 0)
    assert derive_stream(123, 0) == first
    assert derive_stream(123, 1) != first


def test_derive_stream_has_no_collisions_over_1e4_indices():
    seeds = {derive_stream(99, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def test_derive_stream_rejects_out_of_range():
    with pytest.raises(ValueError):
        derive_stream(-1, 0)
    with pytest.raises(ValueError):
        derive_stream(0, 2**64)


def test_replay_is_bit_identical():
    a = gauss(Stream(7), 1000)
    b = gauss(Stream(7), 1000)
    assert np.array_equal(a, b)
    ua = uniform(Stream(7), 0.0, 2.0, 1000)
    ub = uniform(Stream(7), 0.0, 2.0, 1000)
    assert np.array_equal(ua, ub)


def test_gauss_moments():
    n = 1_000_000
    samples = gauss(Stream(2024), n)
    assert abs(samples.mean()) < 4.0 / math.sqrt(n)
    assert abs(samples.var() - 1.0) < 0.01


def test_uniform_range_and_moments():
    delta = 0.7
    n = 1_000_000
    draws = uniform(Stream(5), 0.0, delta, n)
    assert np.all((draws >= 0.0) & (draws < delta))
    stderr = delta / math.sqrt(12.0) / math.sqrt(n)
    assert abs(draws.mean() - delta / 2.0) < 3.0 * stderr


def test_uniform_rejects_empty_range():
    with pytest.raises(ValueError):
        uniform(Stream(1), 1.0, 1.0)
    with pytest.raises(ValueError):
        uniform(Stream(1), 2.0, -1.0)


def test_unit_sphere_dimension_one_is_sign():
    values = {float(unit_sphere(Stream(seed), 1)[0]) for seed in range(20)}
    assert values <= {-1.0, 1.0}
    assert len(values) == 2


def test_unit_sphere_norm():
    v = unit_sphere(Stream(3), 3)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        unit_sphere(Stream(3), 0)


def test_unit_sphere_angles_uniform_in_2d():
    stream = Stream(31)
    points = np.array([unit_sphere(stream, 2) for _ in range(100_000)])
    angles = np.arctan2(points[:, 1], points[:, 0])  # [-pi, pi)
    counts, _ = np.histogram(angles, bins=36, range=(-math.pi, math.pi))
    assert stats.chisquare(counts).pvalue > 0.001


def test_parallel_substreams_match_serial():
    # Streams are index-keyed, so execution order and thread count are irrelevant.
    def draw(i: int) -> np.ndarray:
        return gauss(substream(77, i), 64)

    serial = [draw(i) for i in range(32)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(draw, range(32)))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_stream_is_philox_keyed_with_the_seed(seed):
    # Stream hands Philox its key through a seed sequence instead of key=;
    # a numpy that takes the key differently fails here, not in the numbers.
    reference = np.random.Generator(np.random.Philox(key=seed))
    stream = Stream(seed)
    # repr shows every field, and each array's values and dtype
    assert repr(stream.rng.bit_generator.state) == repr(reference.bit_generator.state)
    assert gauss(stream, 1000).tobytes() == reference.standard_normal(1000).tobytes()
