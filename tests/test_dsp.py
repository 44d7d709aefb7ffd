"""Norms, derivatives, and magnitude spectra against closed-form oracles."""

import numpy as np
import pytest

from shoulderkin import TooShortError, ValidationError
from shoulderkin.dsp import (
    ScalarSeries,
    derivative,
    euclidean_norm,
    fft_length,
    magnitude_spectrum,
)


def random_rotation(rng):
    """A uniformly random 3x3 rotation matrix (QR of a Gaussian draw)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def direct_dft_magnitude(values, n_fft):
    """O(N^2) one-sided DFT magnitude, the reference for the fast path."""
    k = np.arange(n_fft // 2 + 1)
    n = np.arange(len(values))
    basis = np.exp(-2j * np.pi * np.outer(k, n) / n_fft)
    return np.abs(basis @ values)


class TestScalarSeries:
    def test_duration(self):
        s = ScalarSeries(np.zeros(256), 128.0)
        assert s.duration_s == 2.0
        assert len(s) == 256

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            ScalarSeries(np.zeros((4, 2)), 128.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ScalarSeries(np.array([1.0, np.nan]), 128.0)

    def test_values_read_only(self):
        s = ScalarSeries(np.ones(4), 128.0)
        with pytest.raises(ValueError):
            s.values[0] = 2.0


class TestEuclideanNorm:
    def test_known_values(self):
        triax = np.array([[3.0, 4.0, 0.0], [1.0, 2.0, 2.0]])
        out = euclidean_norm(triax, 128.0)
        assert np.allclose(out.values, [5.0, 3.0])

    def test_rotation_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            triax = rng.normal(size=(64, 3))
            rot = random_rotation(rng)
            base = euclidean_norm(triax, 128.0).values
            turned = euclidean_norm(triax @ rot.T, 128.0).values
            assert np.max(np.abs(base - turned)) < 1e-12


class TestDerivative:
    def test_matches_analytic_derivative_of_cubic(self):
        # Central differences are exact for polynomials up to degree 2 and
        # carry an O(h^2) error on a cubic; check against the analytic slope.
        rate = 128.0
        t = np.arange(256) / rate
        series = ScalarSeries(t**3 - 2.0 * t, rate)
        got = derivative(series).values
        want = 3.0 * t**2 - 2.0
        assert np.max(np.abs(got[1:-1] - want[1:-1])) < 1e-3

    def test_exact_on_quadratic_interior(self):
        rate = 64.0
        t = np.arange(100) / rate
        series = ScalarSeries(5.0 * t**2 + t + 3.0, rate)
        got = derivative(series).values
        want = 10.0 * t + 1.0
        assert np.max(np.abs(got[1:-1] - want[1:-1])) < 1e-9

    def test_one_sided_ends(self):
        rate = 2.0
        series = ScalarSeries(np.array([0.0, 1.0, 4.0]), rate)
        got = derivative(series).values
        # ends: first-order one-sided; middle: central.
        assert got[0] == pytest.approx((1.0 - 0.0) * rate)
        assert got[1] == pytest.approx((4.0 - 0.0) * rate / 2.0)
        assert got[2] == pytest.approx((4.0 - 1.0) * rate)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            derivative(ScalarSeries(np.array([1.0, 2.0]), 128.0))


class TestFftLength:
    def test_powers_of_two(self):
        assert fft_length(128, 0) == 128
        assert fft_length(128, 4) == 2048
        assert fft_length(129, 0) == 256
        assert fft_length(1, 0) == 1
        assert fft_length(3, 2) == 16


class TestMagnitudeSpectrum:
    def test_dc_bin_is_sum(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=100)
        spec = magnitude_spectrum(ScalarSeries(values, 128.0), pad_level=2)
        assert spec.magnitudes[0] == pytest.approx(abs(values.sum()), rel=1e-12)

    def test_pure_tone_lands_on_its_bin(self):
        rate = 128.0
        n = 128
        t = np.arange(n) / rate
        values = np.sin(2.0 * np.pi * 8.0 * t)
        spec = magnitude_spectrum(ScalarSeries(values, rate), pad_level=0)
        k = int(np.argmax(spec.magnitudes))
        assert spec.freqs_hz[k] == pytest.approx(8.0)
        assert spec.magnitudes[k] == pytest.approx(n / 2.0, rel=1e-9)

    def test_freq_grid(self):
        spec = magnitude_spectrum(ScalarSeries(np.ones(64), 128.0), pad_level=1)
        n_fft = 128
        assert len(spec.freqs_hz) == n_fft // 2 + 1
        assert spec.freqs_hz[0] == 0.0
        assert spec.freqs_hz[1] == pytest.approx(128.0 / n_fft)
        assert spec.freqs_hz[-1] == pytest.approx(64.0)

    def test_matches_direct_dft_random_lengths(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 200))
            pad = int(rng.integers(0, 3))
            values = rng.normal(size=n)
            spec = magnitude_spectrum(ScalarSeries(values, 128.0), pad_level=pad)
            want = direct_dft_magnitude(values, fft_length(n, pad))
            scale = np.max(want) + 1e-30
            assert np.max(np.abs(spec.magnitudes - want)) / scale < 1e-10

    def test_too_short(self):
        with pytest.raises(TooShortError):
            magnitude_spectrum(ScalarSeries(np.array([1.0]), 128.0))
