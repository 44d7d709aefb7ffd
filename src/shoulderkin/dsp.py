"""Scalar-signal primitives: Euclidean norms, differentiation, spectra.

Everything downstream (the seven features) consumes these three operations,
so their numerical conventions are pinned here once: second-order central
differences with first-order one-sided ends, and zero-padded FFT magnitudes
with power-of-two lengths, taken only for the bins up to a cutoff. The
kernels take plain 1-D float arrays and do not re-check them: each states
its minimum length, and the caller checks it (the features in `features`
do, before they call in here).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# loaded with this module, so a helper forked after the import inherits it
from numpy.fft import rfft


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum, bins uniformly spaced from 0 Hz.

    magnitudes
        The magnitudes of the first ``len(magnitudes)`` bins: those at or
        below the cutoff the spectrum was taken with.
    n_fft
        The transform length, so the full spectrum has n_fft // 2 + 1 bins.
    bin_hz
        The bin spacing, rate / n_fft as `np.fft.rfftfreq` computes it:
        bin k is at ``k * bin_hz``.
    """

    magnitudes: np.ndarray
    n_fft: int
    bin_hz: float

    @property
    def freqs_hz(self) -> np.ndarray:
        """Every bin's frequency, kept or not: ``np.fft.rfftfreq`` bit for bit.

        Built on each call, never by the pipeline itself.
        """
        return np.arange(self.n_fft // 2 + 1) * self.bin_hz


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


def _bins_at_or_below(max_hz: float, bin_hz: float, n_bins: int) -> int:
    """How many of k = 0 .. n_bins - 1 have ``k * bin_hz <= max_hz``.

    The products rise with k, so these bins are a prefix, and the count is
    ``np.searchsorted(k * bin_hz, max_hz, side="right")``. It is found from
    the quotient and then stepped to the exact boundary. Needs
    ``max_hz >= 0``; the caller checks.
    """
    last = n_bins - 1
    if last * bin_hz <= max_hz:
        return n_bins  # also where max_hz is inf or the spacing is 0
    # bin_hz > 0 and max_hz < last * bin_hz here, so the quotient is finite
    k = int(max_hz / bin_hz)
    while k * bin_hz > max_hz:
        k -= 1
    while (k + 1) * bin_hz <= max_hz:
        k += 1
    return k + 1


def magnitude_spectrum(
    x: np.ndarray, sample_rate_hz: float, pad_level: int, max_hz: float = math.inf
) -> Spectrum:
    """One-sided DFT magnitude of the raw (unwindowed) 1-D array `x`.

    The signal is zero-padded to ``fft_length(N, pad_level)`` points before
    the transform; padding buys frequency resolution, which the adaptive
    spectral-arc-length cutoff depends on. The magnitude is taken only of
    the bins at non-negative frequencies up to `max_hz`: the same values,
    bit for bit, as the first bins of ``np.abs`` over the whole transform.

    Parameters
    ----------
    x : ndarray, shape (N,)
        At least 2 samples; the caller checks.
    sample_rate_hz : float
        Sampling rate of `x`.
    pad_level : int
        Extra powers of two beyond the next power of two >= N. 0 keeps the
        minimal power-of-two length.
    max_hz : float
        Highest frequency kept, at least 0; the caller checks. The default
        keeps every bin.

    Returns
    -------
    Spectrum
        magnitudes[k] for each k = 0 .. n_fft/2 with freqs_hz[k] =
        k * rate / n_fft <= max_hz.
    """
    n_fft = fft_length(len(x), pad_level)
    # rfftfreq's spacing, in its arithmetic
    bin_hz = 1.0 / (n_fft * (1.0 / sample_rate_hz))
    n_below = _bins_at_or_below(max_hz, bin_hz, n_fft // 2 + 1)
    mags = np.abs(rfft(x, n=n_fft)[:n_below])
    return Spectrum(magnitudes=mags, n_fft=n_fft, bin_hz=bin_hz)
