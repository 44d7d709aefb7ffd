"""Norms, derivatives, and magnitude spectra against closed-form oracles."""

import numpy as np
import pytest

from builders import random_rotation
from cell_oracle import direct_dft_magnitude, rfft_magnitude
from shoulderkin.dsp import derivative, euclidean_norm, fft_length, magnitude_spectrum


class TestEuclideanNorm:
    def test_known_values(self):
        triax = np.array([[3.0, 4.0, 0.0], [1.0, 2.0, 2.0]])
        out = euclidean_norm(triax)
        assert np.allclose(out, [5.0, 3.0])

    def test_rotation_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            triax = rng.normal(size=(64, 3))
            rot = random_rotation(rng)
            base = euclidean_norm(triax)
            turned = euclidean_norm(triax @ rot.T)
            assert np.max(np.abs(base - turned)) < 1e-12


class TestDerivative:
    def test_matches_analytic_derivative_of_cubic(self):
        # Central differences are exact for polynomials up to degree 2 and
        # carry an O(h^2) error on a cubic; check against the analytic slope.
        rate = 128.0
        t = np.arange(256) / rate
        got = derivative(t**3 - 2.0 * t, rate)
        want = 3.0 * t**2 - 2.0
        assert np.max(np.abs(got[1:-1] - want[1:-1])) < 1e-3

    def test_exact_on_quadratic_interior(self):
        rate = 64.0
        t = np.arange(100) / rate
        got = derivative(5.0 * t**2 + t + 3.0, rate)
        want = 10.0 * t + 1.0
        assert np.max(np.abs(got[1:-1] - want[1:-1])) < 1e-9

    def test_one_sided_ends(self):
        rate = 2.0
        got = derivative(np.array([0.0, 1.0, 4.0]), rate)
        # ends: first-order one-sided; middle: central.
        assert got[0] == pytest.approx((1.0 - 0.0) * rate)
        assert got[1] == pytest.approx((4.0 - 0.0) * rate / 2.0)
        assert got[2] == pytest.approx((4.0 - 1.0) * rate)


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
        spec = magnitude_spectrum(values, 128.0, pad_level=2)
        assert spec.magnitudes[0] == pytest.approx(abs(values.sum()), rel=1e-12)

    def test_pure_tone_lands_on_its_bin(self):
        rate = 128.0
        n = 128
        t = np.arange(n) / rate
        values = np.sin(2.0 * np.pi * 8.0 * t)
        spec = magnitude_spectrum(values, rate, pad_level=0)
        k = int(np.argmax(spec.magnitudes))
        assert spec.freqs_hz[k] == pytest.approx(8.0)
        assert spec.magnitudes[k] == pytest.approx(n / 2.0, rel=1e-9)

    def test_freq_grid(self):
        spec = magnitude_spectrum(np.ones(64), 128.0, pad_level=1)
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
            spec = magnitude_spectrum(values, 128.0, pad_level=pad)
            want = direct_dft_magnitude(values, fft_length(n, pad))
            scale = np.max(want) + 1e-30
            assert np.max(np.abs(spec.magnitudes - want)) / scale < 1e-10

    @pytest.mark.parametrize("rate", [128.0, 1e-300, 1e300, 7.5e15, 1e-320])
    @pytest.mark.parametrize("pad", range(9))
    def test_kept_bins_are_the_full_spectrum_up_to_the_cutoff(self, pad, rate):
        # the bins kept are those rfftfreq puts at or below max_hz, and their
        # magnitudes are the full spectrum's, bit for bit; at 1e-320 Hz the
        # spacing underflows to 0, so every bin is at 0 Hz
        values = np.random.default_rng(pad).normal(1.0, 1.0, 100)
        n_fft = fft_length(len(values), pad)
        freqs = np.fft.rfftfreq(n_fft, d=1.0 / rate)
        full = rfft_magnitude(values, n_fft)
        cutoffs = [np.inf, 2.0 * freqs[-1], np.finfo(float).max, 10.0]
        for k in (0, 1, 2, n_fft // 6, n_fft // 2 - 1, n_fft // 2):
            at = freqs[k]
            cutoffs += [at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf)]
        for max_hz in filter(lambda hz: hz >= 0.0, cutoffs):
            spec = magnitude_spectrum(values, rate, pad, max_hz)
            n_below = np.searchsorted(freqs, max_hz, side="right")
            assert len(spec.magnitudes) == n_below, max_hz
            assert spec.magnitudes.tobytes() == full[:n_below].tobytes()
            assert spec.bin_hz == freqs[1]

    @pytest.mark.parametrize("rate", [128.0, 1e-300, 1e300, 7.5e15, 1e-320])
    @pytest.mark.parametrize("pad", range(9))
    def test_freqs_hz_is_every_bin_whatever_the_cutoff(self, pad, rate):
        # perfbench/spans.py `_count_spectrum` counts dsp.fft_points as
        # 2 * (len(freqs_hz) - 1): the transform's points, not the bins kept
        n = 100
        n_fft = fft_length(n, pad)
        spec = magnitude_spectrum(np.ones(n), rate, pad, 10.0)
        assert len(spec.freqs_hz) == n_fft // 2 + 1
        assert spec.freqs_hz.tobytes() == np.fft.rfftfreq(n_fft, d=1.0 / rate).tobytes()
