"""Scalar-signal primitives: Euclidean norms, differentiation, spectra.

Everything downstream (the seven features) consumes these three operations,
so their numerical conventions are pinned here once: second-order central
differences with first-order one-sided ends, and zero-padded FFT magnitudes
with power-of-two lengths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooShortError, ValidationError


@dataclass(frozen=True)
class ScalarSeries:
    """A real-valued signal on a uniform clock (e.g. a_Norm or w_Norm)."""

    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValidationError(f"series must be 1-D and non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("series contains non-finite values")
        if not self.sample_rate_hz > 0:
            raise ValidationError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def duration_s(self) -> float:
        return len(self.values) / self.sample_rate_hz


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum with uniformly spaced bins from 0 Hz."""

    freqs_hz: np.ndarray
    magnitudes: np.ndarray


def euclidean_norm(triax: np.ndarray, sample_rate_hz: float) -> ScalarSeries:
    """Row-wise Euclidean norm of an N x 3 signal.

    Parameters
    ----------
    triax : ndarray, shape (N, 3)
        Tri-axial samples (acceleration or angular velocity), as held by a
        `SensorStream`, which has already checked the shape and finiteness.
    sample_rate_hz : float
        Sampling rate carried over to the scalar series.

    Returns
    -------
    ScalarSeries
        sqrt((x^2 + y^2) + z^2) per row, summed in that order, which is the
        order of ``np.sum(triax * triax, axis=1)``; non-negative by
        construction, and invariant under any common rotation of the three
        axes.
    """
    # three whole-column adds: a reduction along the length-3 axis is 3x slower
    sq = triax.T * triax.T
    return ScalarSeries(np.sqrt(sq[0] + sq[1] + sq[2]), sample_rate_hz)


def derivative(series: ScalarSeries) -> ScalarSeries:
    """Numerical time derivative, same length as the input.

    With dx = 1 / rate, interior points are the second-order central
    differences (x[i+1] - x[i-1]) / (2 * dx), and the two endpoints the
    first-order one-sided differences (x[1] - x[0]) / dx and
    (x[-1] - x[-2]) / dx. This is the stencil, and the floating-point
    arithmetic, of ``np.gradient(x, dx)``, bit for bit. Needs at least 3
    samples.
    """
    n = len(series)
    if n < 3:
        raise TooShortError(f"derivative needs >= 3 samples, got {n}")
    x = series.values
    dx = 1.0 / series.sample_rate_hz
    out = np.empty(n)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dx)
    out[0] = (x[1] - x[0]) / dx
    out[-1] = (x[-1] - x[-2]) / dx
    return ScalarSeries(out, series.sample_rate_hz)


def fft_length(n_samples: int, pad_level: int) -> int:
    """Padded transform length: 2 ** (ceil(log2 N) + pad_level)."""
    return 2 ** (int(math.ceil(math.log2(n_samples))) + pad_level)


def magnitude_spectrum(series: ScalarSeries, pad_level: int = 4) -> Spectrum:
    """One-sided DFT magnitude of the raw (unwindowed) series.

    The series is zero-padded to ``fft_length(N, pad_level)`` points before
    the transform; padding buys frequency resolution, which the adaptive
    spectral-arc-length cutoff depends on. Only bins at non-negative
    frequencies are returned.

    Parameters
    ----------
    series : ScalarSeries
        At least 2 samples.
    pad_level : int
        Extra powers of two beyond the next power of two >= N. 0 keeps the
        minimal power-of-two length.

    Returns
    -------
    Spectrum
        freqs_hz[k] = k * rate / n_fft for k = 0 .. n_fft/2.
    """
    n = len(series)
    if n < 2:
        raise TooShortError(f"spectrum needs >= 2 samples, got {n}")
    n_fft = fft_length(n, pad_level)
    mags = np.abs(np.fft.rfft(series.values, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / series.sample_rate_hz)
    return Spectrum(freqs_hz=freqs, magnitudes=mags)
