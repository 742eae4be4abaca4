"""Gaussian sensing ensembles, signal models, and the quantized sensing map.

An ensemble is a Gaussian matrix with rows acting as linear functionals, a
uniform dither vector, and a quantizer resolution.  Sensing a signal x
produces the integer codes of phi @ x + xi; all randomness lives in
ensemble generation and signal sampling, never in `sense` itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .quantizer import QuantizedObservation, QuantizerSpec, sense_quantize
from .randkit import Stream, gauss, uniform, unit_sphere

__all__ = [
    "SensingEnsemble",
    "SignalModel",
    "Signal",
    "gen_ensemble",
    "sample_signal",
    "sense",
    "save_ensemble",
    "load_ensemble",
]


@dataclass(frozen=True)
class SignalModel:
    """Admissible signal set: the unit ball, or k-sparse vectors in it.

    k is None for the full unit ball; otherwise signals have at most k
    nonzero entries and unit-ball norm.
    """

    n: int
    k: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"signal dimension must be >= 1, got {self.n}")
        if self.k is not None and not 1 <= self.k <= self.n:
            raise ValueError(f"sparsity must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")

    @classmethod
    def unit_ball(cls, n: int) -> "SignalModel":
        return cls(n=n)

    @classmethod
    def sparse_ball(cls, n: int, k: int) -> "SignalModel":
        return cls(n=n, k=k)

    @property
    def sparse(self) -> bool:
        return self.k is not None


@dataclass(frozen=True)
class Signal:
    """A sampled signal; `support` is set for sparse-model samples."""

    x: np.ndarray
    support: np.ndarray | None = None


@dataclass(frozen=True)
class SensingEnsemble:
    """One sensing instance: matrix rows `phi`, dither `xi`, resolution, seed.

    `phi` is stored C-contiguous, the one layout every product with it is
    rounded in.  Immutable after creation; safe to share read-only across
    threads.
    """

    phi: np.ndarray
    xi: np.ndarray
    spec: QuantizerSpec
    seed: int

    def __post_init__(self):
        phi = np.ascontiguousarray(self.phi, dtype=np.float64)
        xi = np.asarray(self.xi, dtype=np.float64)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "xi", xi)
        if phi.ndim != 2 or phi.shape[0] < 1 or phi.shape[1] < 1:
            raise ValueError(f"phi must be a nonempty 2-D matrix, got shape {phi.shape}")
        if xi.shape != (phi.shape[0],):
            raise ValueError(f"xi must have one entry per row of phi, got {xi.shape}")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi entries must be finite")
        if np.any(xi < 0.0) or np.any(xi >= self.spec.delta):
            raise ValueError("dither entries must lie in [0, delta)")

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n(self) -> int:
        return self.phi.shape[1]


def gen_ensemble(m: int, n: int, spec: QuantizerSpec, seed: int) -> SensingEnsemble:
    """Draw phi ~ iid standard normal (m x n) and xi ~ iid U[0, delta).

    Draw order is fixed (phi row-major first, then xi) so a seed pins the
    ensemble exactly.
    """
    if m < 1 or n < 1:
        raise ValueError(f"ensemble dimensions must be >= 1, got m={m}, n={n}")
    stream = Stream(seed)
    phi = gauss(stream, (m, n))
    xi = uniform(stream, 0.0, spec.delta, m)
    return SensingEnsemble(phi=phi, xi=xi, spec=spec, seed=seed)


def _ball_point(stream: Stream, n: int) -> np.ndarray:
    # Uniform on the unit ball: uniform direction times U^(1/n) radius.
    direction = unit_sphere(stream, n)
    radius = uniform(stream, 0.0, 1.0) ** (1.0 / n)
    return radius * direction


def sample_signal(model: SignalModel, stream: Stream) -> Signal:
    """Sample a signal from the model.

    Unit ball: uniform on the ball.  Sparse: support uniform among k-subsets,
    coefficients uniform on the k-dimensional unit ball placed on the support.
    """
    if not model.sparse:
        return Signal(x=_ball_point(stream, model.n))
    support = np.sort(stream.rng.choice(model.n, size=model.k, replace=False))
    coeffs = _ball_point(stream, model.k)
    x = np.zeros(model.n)
    x[support] = coeffs
    return Signal(x=x, support=support)


def sense(ensemble: SensingEnsemble, signal: Signal | np.ndarray) -> QuantizedObservation:
    """Quantized observation of a signal under the ensemble: codes of phi@x + xi."""
    x = signal.x if isinstance(signal, Signal) else np.asarray(signal, dtype=np.float64)
    if x.shape != (ensemble.n,):
        raise ValueError(f"signal has shape {x.shape}, expected ({ensemble.n},)")
    return sense_quantize(ensemble.phi @ x, ensemble.xi, ensemble.spec)


# Binary ensemble dump: header of four little-endian 64-bit fields
# (m: u64, n: u64, delta: f64, seed: u64), then phi row-major as f64,
# then xi as f64.
_HEADER = struct.Struct("<QQdQ")


def save_ensemble(path, ensemble: SensingEnsemble) -> None:
    """Write the ensemble in the fixed little-endian binary layout."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(ensemble.m, ensemble.n, ensemble.spec.delta, ensemble.seed))
        fh.write(np.ascontiguousarray(ensemble.phi, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ensemble.xi, dtype="<f8").tobytes())


def load_ensemble(path) -> SensingEnsemble:
    """Read an ensemble written by :func:`save_ensemble`."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated ensemble file: short header")
        m, n, delta, seed = _HEADER.unpack(header)
        body = fh.read()
    want = (m * n + m) * 8
    if len(body) != want:
        raise ValueError(f"truncated ensemble file: expected {want} payload bytes, got {len(body)}")
    flat = np.frombuffer(body, dtype="<f8")
    phi = flat[: m * n].reshape(m, n).copy()
    xi = flat[m * n :].copy()
    return SensingEnsemble(phi=phi, xi=xi, spec=QuantizerSpec(delta), seed=seed)
