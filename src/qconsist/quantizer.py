"""Uniform midrise quantization with dither, in exact integer-code arithmetic.

The scalar quantizer at resolution delta maps a value v to the cell index
``floor(v / delta)``; the decoded value is the cell midpoint
``delta * (code + 1/2)``.  Cells are half-open ``[k*delta, (k+1)*delta)``:
an input landing exactly on a boundary belongs to the upper cell.  Codes
are stored as signed 64-bit integers and all consistency comparisons are
integer comparisons, so no floating-point equality ever decides whether
two observations agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerSpec",
    "QuantizedObservation",
    "IncompatibleObservationsError",
    "encode",
    "decode",
    "sense_quantize",
    "l1_discrepancy",
    "quantization_error",
]

# Values with |v/delta| at or above this limit refuse to quantize rather
# than silently wrap the int64 code.
_CODE_LIMIT = 2.0**62


class IncompatibleObservationsError(ValueError):
    """Observations differ in length or resolution and cannot be compared."""


@dataclass(frozen=True)
class QuantizerSpec:
    """Resolution of the scalar quantizer (measurement units)."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be a positive finite real, got {self.delta}")


@dataclass(frozen=True)
class QuantizedObservation:
    """Integer quantization codes; the lossless form of an observation.

    Entry j decodes to ``delta * (codes[j] + 1/2)``.
    """

    codes: np.ndarray
    delta: float

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 1:
            raise ValueError(f"codes must be a 1-D vector, got shape {codes.shape}")
        QuantizerSpec(self.delta)

    def __len__(self) -> int:
        return self.codes.shape[0]

    def decoded(self) -> np.ndarray:
        """Midpoint values delta*(codes + 1/2)."""
        return self.delta * (self.codes.astype(np.float64) + 0.5)


def _encode_values(values: np.ndarray, delta: float) -> np.ndarray:
    scaled = np.array(values, dtype=np.float64)
    scaled /= delta
    # one guard pass; NaN fails it too, and only then is the cause looked up
    if not np.all(np.abs(scaled) < _CODE_LIMIT):
        if not np.all(np.isfinite(scaled)):
            raise ValueError("cannot quantize non-finite values")
        raise ValueError("input magnitude exceeds the 2**62 code guard; refusing to wrap")
    return np.floor(scaled, out=scaled).astype(np.int64)


def encode(lam: float, spec: QuantizerSpec) -> int:
    """Cell index floor(lam/delta) of a scalar value."""
    return int(_encode_values(np.asarray([lam]), spec.delta)[0])


def decode(code: int, spec: QuantizerSpec) -> float:
    """Midpoint value delta*(code + 1/2) of a cell index."""
    return spec.delta * (float(code) + 0.5)


def sense_quantize(y: np.ndarray, dither: np.ndarray, spec: QuantizerSpec) -> QuantizedObservation:
    """Quantize y + dither componentwise into integer codes.

    `dither` entries must lie in [0, delta).
    """
    y = np.asarray(y, dtype=np.float64)
    dither = np.asarray(dither, dtype=np.float64)
    if y.shape != dither.shape or y.ndim != 1:
        raise ValueError(f"y and dither must be 1-D vectors of equal length, got {y.shape} and {dither.shape}")
    if np.any(dither < 0.0) or np.any(dither >= spec.delta):
        raise ValueError("dither entries must lie in [0, delta)")
    return QuantizedObservation(_encode_values(y + dither, spec.delta), spec.delta)


def l1_discrepancy(a: QuantizedObservation, b: QuantizedObservation) -> int:
    """Number of unit code steps separating two observations.

    This is sum_j |a_j - b_j| over integer codes, i.e. the l1 distance of
    the decoded vectors divided by delta, computed exactly.
    """
    if a.delta != b.delta:
        raise IncompatibleObservationsError(f"resolutions differ: {a.delta} vs {b.delta}")
    if len(a) != len(b):
        raise IncompatibleObservationsError(f"lengths differ: {len(a)} vs {len(b)}")
    return int(np.abs(a.codes - b.codes).sum())


def quantization_error(y: np.ndarray, dither: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Additive noise decode(encode(y + dither)) - dither - y, entrywise.

    With dither ~ U[0, delta) each entry is distributed uniformly over an
    interval of width delta centered at 0, independently of y.  Under the
    half-open cell convention the exact range is (-delta/2, +delta/2]: the
    +delta/2 end is attained precisely when y + dither lands on a cell
    boundary (e.g. y = 0 with zero dither), a probability-zero event for
    continuous dither.
    """
    obs = sense_quantize(y, dither, spec)
    return obs.decoded() - np.asarray(dither, dtype=np.float64) - np.asarray(y, dtype=np.float64)
