"""Deterministic, index-keyed random streams.

Every stochastic operation in this package draws from a :class:`Stream`,
created either directly from a 64-bit seed or through
:func:`derive_stream`, which maps (master seed, task index) to an
independent substream seed.  Substreams are keyed by index, never by draw
order, so running tasks serially or across threads yields bit-identical
per-task output.

Pinned generator choices (these define reproducibility of every reported
number, for a given numpy version):

* bit generator: numpy Philox (counter-based), keyed with the 64-bit seed:
  key words (seed, 0) and counter 0, the state ``Philox(key=seed)`` starts
  in.  The key reaches Philox as a seed sequence that returns those two
  words, since ``Philox(key=seed)`` also builds an unused ``SeedSequence()``
  from OS entropy, two thirds of the 14 us a stream took (2-vCPU x86-64);
* standard normals: ``Generator.standard_normal`` (numpy's ziggurat);
* uniforms: ``Generator.random`` scaled to the requested interval.

Seed derivation uses the SplitMix64 finalizer, a bijection on 64-bit
integers.  ``derive_stream(master, i)`` finalizes ``mix(master) + i``, so
for a fixed master distinct indices below 2**64 can never collide.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Stream", "derive_stream", "substream", "gauss", "uniform", "unit_sphere"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer (bijective on 64-bit integers)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_stream(master: int, index: int) -> int:
    """Seed for substream `index` under `master`.

    Pure; injective over indices in [0, 2**64) for a fixed master, since
    the pre-mix offsets are distinct mod 2**64 and the finalizer is a
    bijection.
    """
    if not 0 <= master <= _MASK64:
        raise ValueError(f"master seed must be a 64-bit unsigned integer, got {master}")
    if not 0 <= index <= _MASK64:
        raise ValueError(f"stream index must be a 64-bit unsigned integer, got {index}")
    return _mix64((_mix64((master + _GOLDEN) & _MASK64) + index) & _MASK64)


@lru_cache(maxsize=1)
def _key_sequence() -> type:
    """The type of Philox's key words (seed, 0) as a seed sequence (module
    docstring), made on first use, so that importing this module does not
    import numpy.random (about 13 ms), which numpy loads only when asked."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, seed: int):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            return np.array([self.seed, 0], dtype=np.uint64)

    return Key


class Stream:
    """A single-owner random stream.

    Streams are cheap to create; make one per task and never share a live
    stream across threads.  Independence across tasks comes from
    :func:`derive_stream`, not from locking.
    """

    __slots__ = ("seed", "rng")

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self.rng = np.random.Generator(np.random.Philox(_key_sequence()(self.seed)))


def substream(master: int, index: int) -> Stream:
    """Stream for task `index` under `master` (see :func:`derive_stream`)."""
    return Stream(derive_stream(master, index))


def gauss(stream: Stream, size=None):
    """Standard normal draw(s): a float if size is None, else an ndarray."""
    return stream.rng.standard_normal(size)


def uniform(stream: Stream, a: float, b: float, size=None):
    """Uniform draw(s) on [a, b).  Requires a < b."""
    if not a < b:
        raise ValueError(f"uniform requires a < b, got [{a}, {b})")
    return a + (b - a) * stream.rng.random(size)


def unit_sphere(stream: Stream, n: int) -> np.ndarray:
    """Uniform random point on the unit sphere in R^n (normalized Gaussian)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    while True:
        g = stream.rng.standard_normal(n)
        norm = float(np.linalg.norm(g))
        if norm > 0.0:  # zero draw has probability 0; loop keeps the contract exact
            return g / norm
