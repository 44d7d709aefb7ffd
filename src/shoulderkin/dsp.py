"""Scalar-signal primitives: Euclidean norms, differentiation, spectra.

Everything downstream (the seven features) consumes these three operations,
so their numerical conventions are pinned here once: second-order central
differences with first-order one-sided ends, and zero-padded FFT magnitudes
with power-of-two lengths. The kernels take plain 1-D float arrays and do
not re-check them: each states its minimum length, and the caller checks
it (the features in `features` do, before they call in here).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum with uniformly spaced bins from 0 Hz."""

    freqs_hz: np.ndarray
    magnitudes: np.ndarray


def euclidean_norm(triax: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm of an N x 3 signal.

    Parameters
    ----------
    triax : ndarray, shape (N, 3)
        Tri-axial samples (acceleration or angular velocity), as held by a
        `SensorStream`, which has already checked the shape and finiteness.

    Returns
    -------
    ndarray, shape (N,)
        sqrt((x^2 + y^2) + z^2) per row, summed in that order, which is the
        order of ``np.sum(triax * triax, axis=1)``; non-negative by
        construction, and invariant under any common rotation of the three
        axes. A finite sample above about 1e154 squares to inf, so the
        caller checks the result's finiteness where it matters.
    """
    # three whole-column adds: a reduction along the length-3 axis is 3x slower
    sq = triax.T * triax.T
    return np.sqrt(sq[0] + sq[1] + sq[2])


def derivative(x: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Numerical time derivative of a 1-D array, same length as the input.

    With dx = 1 / rate, interior points are the second-order central
    differences (x[i+1] - x[i-1]) / (2 * dx), and the two endpoints the
    first-order one-sided differences (x[1] - x[0]) / dx and
    (x[-1] - x[-2]) / dx. This is the stencil, and the floating-point
    arithmetic, of ``np.gradient(x, dx)``, bit for bit. Needs at least 3
    samples; the caller checks.
    """
    dx = 1.0 / sample_rate_hz
    out = np.empty(len(x))
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dx)
    out[0] = (x[1] - x[0]) / dx
    out[-1] = (x[-1] - x[-2]) / dx
    return out


def fft_length(n_samples: int, pad_level: int) -> int:
    """Padded transform length: 2 ** (ceil(log2 N) + pad_level)."""
    return 2 ** (int(math.ceil(math.log2(n_samples))) + pad_level)


def magnitude_spectrum(x: np.ndarray, sample_rate_hz: float, pad_level: int = 4) -> Spectrum:
    """One-sided DFT magnitude of the raw (unwindowed) 1-D array `x`.

    The signal is zero-padded to ``fft_length(N, pad_level)`` points before
    the transform; padding buys frequency resolution, which the adaptive
    spectral-arc-length cutoff depends on. Only bins at non-negative
    frequencies are returned.

    Parameters
    ----------
    x : ndarray, shape (N,)
        At least 2 samples; the caller checks.
    sample_rate_hz : float
        Sampling rate of `x`.
    pad_level : int
        Extra powers of two beyond the next power of two >= N. 0 keeps the
        minimal power-of-two length.

    Returns
    -------
    Spectrum
        freqs_hz[k] = k * rate / n_fft for k = 0 .. n_fft/2.
    """
    n_fft = fft_length(len(x), pad_level)
    mags = np.abs(np.fft.rfft(x, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
    return Spectrum(freqs_hz=freqs, magnitudes=mags)
