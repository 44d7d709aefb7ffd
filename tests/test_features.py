"""The seven features against brute-force, analytic, and dual-route oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from shoulderkin import (
    DegenerateSignalError,
    FeatureError,
    FeatureParams,
    ParseError,
    TooShortError,
    ValidationError,
    extract_cohort,
    read_matrix,
    write_matrix,
)
from shoulderkin import features
from shoulderkin.dsp import fft_length
from shoulderkin.features import (
    SPARC_MAX_FFT_POINTS,
    SPARC_MAX_PAD_LEVEL,
    angular_velocity_range,
    extract_all,
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    power_index,
    session_windows,
    spectral_arc_length,
)
from shoulderkin.formats import (
    MATRIX_HEADER,
    FeatureRow,
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    TaskKind,
)
from shoulderkin.model import GRAVITY_MS2, SegmentLabel, SensorStream, assemble_session
from shoulderkin.synth import synth_segment

RATE = 128.0


def series(values):
    return np.asarray(values, dtype=float)


def crossing_oracle(values):
    """Literal restatement of the crossing rule as a state machine."""
    dev = np.asarray(values, dtype=float) - np.mean(values)
    count = 0
    last = 0
    for d in dev:
        s = 0 if d == 0 else (1 if d > 0 else -1)
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def prominence_oracle(values, frac):
    """Peak count over strict single-sample maxima, prominence by definition.

    Only valid for signals without equal neighbours (random floats), where
    every local maximum occupies exactly one sample.
    """
    v = np.asarray(values, dtype=float)
    spread = v.max() - v.min()
    if spread == 0.0:
        return 0
    count = 0
    for p in range(1, len(v) - 1):
        if not (v[p - 1] < v[p] > v[p + 1]):
            continue
        higher_left = [i for i in range(p) if v[i] > v[p]]
        lo = higher_left[-1] + 1 if higher_left else 0
        higher_right = [i for i in range(p + 1, len(v)) if v[i] > v[p]]
        hi = higher_right[0] if higher_right else len(v)
        base = max(v[lo:p].min() if lo < p else v[p], v[p + 1 : hi].min())
        if v[p] - base >= frac * spread:
            count += 1
    return count


def sparc_direct(values, rate, params):
    """Spectral arc length through a direct O(N^2) DFT instead of the FFT."""
    values = np.asarray(values, dtype=float)
    n_fft = fft_length(len(values), params.sparc_pad_level)
    k = np.arange(n_fft // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(len(values))) / n_fft)
    mags = np.abs(basis @ values)
    freqs = k * rate / n_fft
    vhat = mags / mags[0]
    keep = freqs <= params.sparc_max_cutoff_hz
    vhat, freqs = vhat[keep], freqs[keep]
    above = np.nonzero(vhat >= params.sparc_amp_threshold)[0]
    f_sel = freqs[above[0] : above[-1] + 1]
    v_sel = vhat[above[0] : above[-1] + 1]
    if len(f_sel) < 2:
        return 0.0
    span = f_sel[-1] - f_sel[0]
    return -float(np.sum(np.sqrt((np.diff(f_sel) / span) ** 2 + np.diff(v_sel) ** 2)))


def min_jerk_pulse(n, amp=1.0):
    tau = np.linspace(0.0, 1.0, n, endpoint=False)
    return amp * (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / 1.875


def min_jerk_samples(duration_s, rate):
    """The pulse 30 tau^2 - 60 tau^3 + 30 tau^4 on duration * rate + 1 samples, both ends included."""
    tau = np.linspace(0.0, 1.0, round(duration_s * rate) + 1)
    return 30 * tau**2 - 60 * tau**3 + 30 * tau**4


def continuous_min_jerk_sparc(params):
    """SPARC of the same pulse as a continuous 1 s signal, by Gauss-Legendre quadrature.

    Its spectrum P(f) is the integral of p(tau) exp(-2 pi i f tau) over
    [0, 1], and P(0) = 1. The cutoff fc is the highest frequency up to the
    ceiling where |P| reaches the threshold, and the value is minus the arc
    length of |P| over [0, fc], with the frequency axis divided by fc, as
    Balasubramanian et al. (JNER 2015) define it.
    """
    x, w = np.polynomial.legendre.leggauss(128)
    tau, weights = (x + 1) / 2, w / 2
    p = 30 * tau**2 - 60 * tau**3 + 30 * tau**4

    def spectrum(f):
        """|P| and its derivative in f."""
        waves = np.exp(-2j * np.pi * np.outer(np.atleast_1d(f), tau))
        value, slope = waves @ (weights * p), waves @ (weights * p * -2j * np.pi * tau)
        return np.abs(value), (np.conj(value) * slope).real / np.abs(value)

    grid = np.linspace(0.0, params.sparc_max_cutoff_hz, 10_001)
    last = np.flatnonzero(spectrum(grid)[0] >= params.sparc_amp_threshold)[-1]
    lo, hi = grid[last], grid[last + 1]
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if spectrum(mid)[0][0] >= params.sparc_amp_threshold else (lo, mid)
    x, w = np.polynomial.legendre.leggauss(200)
    slope = spectrum((x + 1) / 2 * lo)[1]
    return -float(np.sum(w / 2 * lo * np.sqrt(1 / lo**2 + slope**2)))


class TestFeatureParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("peak_prominence_frac", 0.0),
            ("peak_prominence_frac", 1.0),
            ("sparc_amp_threshold", 0.0),
            ("sparc_max_cutoff_hz", 0.0),
            ("sparc_pad_level", -1),
            ("sparc_pad_level", 2.5),
            ("sparc_pad_level", SPARC_MAX_PAD_LEVEL + 1),
            ("min_segment_s", 0.0),
            ("min_segment_s", math.inf),
            ("min_segment_s", math.nan),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FeatureParams(**{field: value})

    @pytest.mark.parametrize("pad", [4.0, np.float64(2.0), True, False, "4"])
    def test_pad_level_must_be_an_integer(self, pad):
        # a float, bool or text pad level would fail later, in the FFT length
        with pytest.raises(ValidationError, match="sparc_pad_level must be an integer"):
            FeatureParams(sparc_pad_level=pad)
        assert FeatureParams(sparc_pad_level=np.int64(4)).sparc_pad_level == 4

    def test_pad_level_bounds_accepted(self):
        # constructing the params runs no FFT, so the top level is cheap here
        assert FeatureParams(sparc_pad_level=0).sparc_pad_level == 0
        assert FeatureParams(sparc_pad_level=SPARC_MAX_PAD_LEVEL).sparc_pad_level == SPARC_MAX_PAD_LEVEL


class TestMeanCrossingCount:
    def test_alternating_example(self):
        assert mean_crossing_count(series([0.0, 2.0, 0.0, 2.0])) == 3

    def test_one_hertz_sine_four_seconds(self):
        values = np.sin(2.0 * np.pi * np.arange(512) / 128.0)
        assert mean_crossing_count(series(values)) == 8

    def test_touch_and_return_does_not_count(self):
        # mean of [0,1,0,3] is 1: the middle 1 sits on the mean and the
        # signal returns below, so only the final climb to 3 crosses.
        assert mean_crossing_count(series([0.0, 1.0, 0.0, 3.0])) == 1

    def test_constant_has_no_crossings(self):
        assert mean_crossing_count(series([4.0] * 16)) == 0

    def test_matches_state_machine_on_random_signals(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            values = rng.normal(size=n)
            assert mean_crossing_count(series(values)) == crossing_oracle(values)

    def test_matches_state_machine_with_exact_ties(self):
        # Integer antisymmetric signals have an exactly-zero mean, so the
        # injected zeros are exact mean hits exercising the tie rule.
        rng = np.random.default_rng(29)
        for _ in range(200):
            half = rng.integers(-3, 4, size=int(rng.integers(2, 30))).astype(float)
            values = np.concatenate([half, -half, np.zeros(int(rng.integers(0, 4)))])
            rng.shuffle(values)
            assert abs(np.mean(values)) < 1e-12
            assert mean_crossing_count(series(values)) == crossing_oracle(values)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            mean_crossing_count(series([1.0]))


class TestPeakCount:
    def test_constant_is_zero(self):
        assert peak_count(series([2.0] * 32)) == 0

    def test_plateau_counts_once(self):
        assert peak_count(series([0.0, 1.0, 1.0, 1.0, 0.0])) == 1

    def test_edges_never_count(self):
        assert peak_count(series([5.0, 0.0, 5.0])) == 0

    def test_ripple_below_prominence_excluded(self):
        # A unit triangle with a small bump on the descending slope: the
        # bump is a genuine strict local maximum, but its ~2% prominence
        # sits under the 5% floor and only a looser floor admits it.
        values = np.concatenate([np.linspace(0, 1, 50), np.linspace(1, 0, 50)[1:]])
        values[52] += 0.04
        assert peak_count(series(values)) == 1
        loose = FeatureParams(peak_prominence_frac=0.01)
        assert peak_count(series(values), loose) == 2

    def test_matches_brute_force_on_random_signals(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(3, 120))
            values = rng.normal(size=n)
            frac = float(rng.uniform(0.02, 0.3))
            got = peak_count(series(values), FeatureParams(peak_prominence_frac=frac))
            assert got == prominence_oracle(values, frac)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            peak_count(series([1.0, 2.0]))


class TestSpectralArcLength:
    def test_matches_direct_transform_route(self):
        rng = np.random.default_rng(37)
        params = FeatureParams()
        for _ in range(25):
            n = int(rng.integers(64, 257))
            values = np.abs(rng.normal(2.0, 1.0, size=n))
            got = spectral_arc_length(series(values), RATE, params)
            want = sparc_direct(values, RATE, params)
            assert got == pytest.approx(want, abs=1e-9)

    def test_amplitude_scale_invariant(self):
        rng = np.random.default_rng(41)
        values = np.abs(rng.normal(2.0, 1.0, size=200))
        base = spectral_arc_length(series(values), RATE)
        for c in (0.1, 2.0, 100.0):
            scaled = spectral_arc_length(series(c * values), RATE)
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_infinite_cutoff_is_no_ceiling(self):
        # the bins then run up to the Nyquist frequency, and SPARC stays finite
        values = np.abs(np.random.default_rng(43).normal(2.0, 1.0, size=200))
        unbounded, nyquist = (
            spectral_arc_length(series(values), RATE, FeatureParams(sparc_max_cutoff_hz=cutoff))
            for cutoff in (math.inf, RATE / 2)
        )
        assert math.isfinite(unbounded) and unbounded == nyquist

    def test_two_submovements_rougher_than_one(self):
        one = min_jerk_pulse(256)
        two = np.concatenate([min_jerk_pulse(96), np.zeros(64), min_jerk_pulse(96)])
        s_one = spectral_arc_length(series(one), RATE)
        s_two = spectral_arc_length(series(two), RATE)
        assert s_two < s_one < 0.0

    @pytest.mark.parametrize("rate", [64.0, 128.0, 256.0])
    @pytest.mark.parametrize("duration_s", [0.5, 1.0, 2.0])
    def test_minimum_jerk_pulse_at_pad_4(self, duration_s, rate):
        # duration * rate is a power of two, so the padded bins lie 1/32 of
        # a cycle per pulse apart; the cutoff, about 1.67 cycles per pulse,
        # is under the 10 Hz ceiling, and the arc length divides the
        # frequency axis by it: the value depends on neither rate nor duration
        got = spectral_arc_length(min_jerk_samples(duration_s, rate), rate)
        assert -1.404841 < got < -1.404836

    def test_padding_never_raises_the_value(self):
        # finer bins trace more of the same spectrum's arc
        pulse = min_jerk_samples(1.0, RATE)
        values = [
            spectral_arc_length(pulse, RATE, FeatureParams(sparc_pad_level=level))
            for level in range(SPARC_MAX_PAD_LEVEL + 1)
        ]
        assert all(finer <= coarser for coarser, finer in zip(values, values[1:]))
        assert values[0] == pytest.approx(-1.34703, abs=1e-5)
        assert values[-1] == pytest.approx(-1.40805, abs=1e-5)

    def test_pad_8_is_near_the_continuous_pulse(self):
        params = FeatureParams(sparc_pad_level=8)
        want = continuous_min_jerk_sparc(params)
        assert want == pytest.approx(-1.4081776, abs=1e-6)
        got = spectral_arc_length(min_jerk_samples(1.0, RATE), RATE, params)
        assert abs(got - want) < 2e-4

    def test_selection_spans_across_an_interior_dip(self):
        # DC lobe plus a 6 Hz tone at 25% relative magnitude: between the
        # lobes the normalized spectrum dips under the 5% threshold, and
        # the span rule keeps everything out to the far lobe anyway.
        t = np.arange(256) / RATE
        values = 1.0 + 0.5 * np.cos(2.0 * np.pi * 6.0 * t)
        params = FeatureParams()
        from shoulderkin.dsp import magnitude_spectrum

        spec = magnitude_spectrum(series(values), RATE, params.sparc_pad_level)
        vhat = spec.magnitudes / spec.magnitudes[0]
        keep = spec.freqs_hz <= params.sparc_max_cutoff_hz
        vhat = vhat[keep]
        above = np.nonzero(vhat >= params.sparc_amp_threshold)[0]
        interior = vhat[above[0] : above[-1] + 1]
        assert interior.min() < params.sparc_amp_threshold  # a genuine dip
        got = spectral_arc_length(series(values), RATE, params)
        want = sparc_direct(values, RATE, params)
        assert got == pytest.approx(want, abs=1e-9)
        # crossing the dip twice costs at least the two vertical excursions
        assert got < -1.3

    def test_constant_signal_has_no_arc(self):
        # power-of-two length and no padding keep the constant's transform
        # on a single bin, so the selection collapses to one point.
        params = FeatureParams(sparc_pad_level=0)
        assert spectral_arc_length(series(np.full(256, 3.0)), RATE, params) == 0.0

    def test_all_zero_signal_is_degenerate(self):
        with pytest.raises(DegenerateSignalError, match="zero DC"):
            spectral_arc_length(series(np.zeros(128)), RATE)

    def test_min_duration_gate(self):
        with pytest.raises(TooShortError):
            spectral_arc_length(series(np.ones(16)), RATE)  # 0.125 s < 0.25 s

    def test_too_short(self):
        with pytest.raises(TooShortError):
            spectral_arc_length(series([1.0]), RATE)

    def test_spectrum_spanning_no_frequency_is_degenerate(self):
        # at 1e-306 Hz the bin spacing underflows and every bin sits at 0 Hz
        values = np.abs(np.random.default_rng(47).normal(2.0, 1.0, size=40))
        params = FeatureParams(min_segment_s=1e-300)
        with pytest.raises(DegenerateSignalError, match="no frequency"):
            spectral_arc_length(series(values), 1e-306, params)

    def test_transform_over_the_cap_fails_before_allocating(self):
        # 65,537 samples need 2**17 points, times 2**4 at pad level 4
        values = np.abs(np.random.default_rng(71).normal(2.0, 1.0, size=65537))
        assert fft_length(len(values), 4) == 2 * SPARC_MAX_FFT_POINTS
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateSignalError) as exc_info:
                spectral_arc_length(values, RATE, FeatureParams(sparc_pad_level=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the transform alone would be 2**20 complex bins, 16 MB
        assert peak < 1_000_000
        assert str(exc_info.value) == (
            "sparc transform of 2097152 points at pad level 4 "
            "exceeds the cap of 1048576 points"
        )

    def test_transform_at_the_cap_is_computed(self):
        values = np.abs(np.random.default_rng(71).normal(2.0, 1.0, size=65536))
        assert fft_length(len(values), 4) == SPARC_MAX_FFT_POINTS
        assert spectral_arc_length(values, RATE, FeatureParams(sparc_pad_level=4)) < 0.0

    def test_transform_over_the_cap_fails_the_cell(self):
        rng = np.random.default_rng(73)
        session = build_session(rng, n=65537)
        with pytest.raises(FeatureError, match="S01 WH/complete/arm") as exc_info:
            extract_all(
                session_windows(session), TaskKind.WH, SegmentKind.COMPLETE, Placement.ARM
            )
        assert "exceeds the cap" in str(exc_info.value.__cause__)


class TestLogDimensionlessJerk:
    def test_matches_analytic_quadrature(self):
        # x(t) = 5 + 2 sin(2 pi t) over [0, 2): peak lands exactly on a
        # sample (t = 0.25), jerk is 4 pi cos(2 pi t), and the squared-jerk
        # integral over two full periods is 16 pi^2.
        t = np.arange(256) / RATE
        values = 5.0 + 2.0 * np.sin(2.0 * np.pi * t)
        want = -math.log(2.0 / 49.0 * 16.0 * math.pi**2)
        got = log_dimensionless_jerk(series(values), RATE)
        assert got == pytest.approx(want, abs=0.01)

    def test_amplitude_scale_invariant(self):
        rng = np.random.default_rng(43)
        values = np.abs(rng.normal(3.0, 1.0, size=300))
        base = log_dimensionless_jerk(series(values), RATE)
        # below 1.5e-154 the peak squared underflows
        for c in (0.1, 2.0, 100.0, 1e-155, 1e-160):
            scaled = log_dimensionless_jerk(series(c * values), RATE)
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_smoother_signal_scores_higher(self):
        t = np.arange(512) / RATE
        slow = 10.0 + np.sin(2.0 * np.pi * 1.0 * t)
        fast = 10.0 + np.sin(2.0 * np.pi * 6.0 * t)
        assert log_dimensionless_jerk(series(slow), RATE) > log_dimensionless_jerk(
            series(fast), RATE
        )

    def test_zero_signal_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            log_dimensionless_jerk(series(np.zeros(64)), RATE)

    def test_rate_invariant_at_extreme_rates(self):
        # at 1e-160 Hz the squared jerk is subnormal, at 1e-300 Hz it is 0,
        # and at 1e300 Hz it overflows: each is computed at 1 Hz instead
        values = np.abs(np.random.default_rng(79).normal(3.0, 1.0, size=40))
        base = log_dimensionless_jerk(series(values), RATE)
        for rate in (1e-300, 1e-160, 1e300):
            assert log_dimensionless_jerk(series(values), rate) == pytest.approx(base, rel=1e-9)

    def test_jerk_overflowing_at_one_hertz_is_scaled(self):
        # steps between 0 and 1.3e154: the squared jerk overflows at 1 Hz too,
        # so the fallback also scales the peak, and no warning is printed
        values = np.zeros(9)
        values[2::4] = values[3::4] = 1.3e154
        want = log_dimensionless_jerk(values / 1.3e154, RATE)
        for rate in (1.0, RATE, 1e300):
            assert log_dimensionless_jerk(values, rate) == pytest.approx(want, rel=1e-12)

    def test_constant_signal_degenerate(self):
        for rate in (RATE, 1e-300, 1e-160, 1e300):
            with pytest.raises(DegenerateSignalError, match="constant signal"):
                log_dimensionless_jerk(series(np.full(64, 2.0)), rate)

    def test_ratio_underflow_degenerate(self):
        # the jerk is one ulp of a 1.34e154 peak, so at 7.5e15 Hz the ratio
        # T / peak^2 * integral underflows to 0; it is computed at 1 Hz with
        # the peak scaled exactly, and gets the value 128 Hz gives
        values = series([1.34e154, np.nextafter(1.34e154, 0.0), np.nextafter(1.34e154, 0.0)])
        at_128 = log_dimensionless_jerk(values, RATE)
        assert at_128 == pytest.approx(72.1507, abs=1e-4)
        assert log_dimensionless_jerk(values, 7.5e15) == pytest.approx(at_128, rel=1e-14)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            log_dimensionless_jerk(series([1.0, 2.0]), RATE)

    def test_minimum_jerk_speed_approaches_the_closed_form(self):
        # the min-jerk speed polynomial p(tau) has integral of p'^2 = 120/7
        # over [0, 1] and peak 1.875, so the continuous value is
        # -ln(120 / (7 * 1.875^2)) for any duration and amplitude
        closed_form = -math.log(120.0 / (7.0 * 1.875**2))
        pulse = (0.0, 1.0, 90.0, (1, 0, 0))
        measured = {64: -1.5968, 128: -1.5913, 256: -1.5881, 1024: -1.5853}
        gaps = []
        for rate, want in measured.items():
            # the noise-free x gyro of one pulse on rate + 1 samples
            rng = np.random.default_rng(0)
            speed = synth_segment([pulse], (rate + 1) / rate, rate, 0.0, 0.0, rng).gyro[:, 0]
            assert len(speed) == rate + 1
            got = log_dimensionless_jerk(speed, rate)
            assert got == pytest.approx(want, abs=5e-5)
            gaps.append(closed_form - got)
        assert all(0 < b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_differentiates_the_norm_not_the_vector(self):
        # |a| is exactly g in every sample while a turns from axis to axis:
        # d|a|/dt is 0, so the cell is degenerate, though |da/dt| is not 0
        n = 640
        accel = GRAVITY_MS2 * np.eye(3)[np.arange(n) % 3]
        assert np.linalg.norm(np.diff(accel, axis=0), axis=1).min() > 0
        gyro = np.random.default_rng(97).normal(0.0, 30.0, (n, 3))
        stream = SensorStream(accel=accel, gyro=gyro, sample_rate_hz=RATE)
        labels = {TaskKind.WH: SegmentLabel(s1=0, e1=160, e2=320, e3=n)}
        session = assemble_session("G01", Group.HEALTHY, "left", {Placement.WRIST: stream}, labels)
        windows = session_windows(session)
        with pytest.raises(FeatureError, match="dimensionless jerk is undefined: constant signal"):
            extract_all(windows, TaskKind.WH, SegmentKind.COMPLETE, Placement.WRIST)

    def test_peak_includes_gravity(self):
        # at 1 Hz the jerk of [12, 16, 12, 12] is [4, 0, -2, 0], so the
        # squared-jerk integral is 20; the peak is 16, not the 4 left after
        # taking a 12 m/s^2 baseline out
        got = log_dimensionless_jerk(series([12.0, 16.0, 12.0, 12.0]), 1.0)
        assert got == -math.log(4.0 / 16.0**2 * 20.0)
        assert got != -math.log(4.0 / 4.0**2 * 20.0)

    def test_duration_is_sample_count_over_rate(self):
        # at 2 Hz the jerk of [12, 16, 12, 12, 12] is [8, 0, -4, 0, 0] and the
        # integral 80 * 0.5 = 40; T is n / rate = 2.5 s, not (n - 1) / rate
        got = log_dimensionless_jerk(series([12.0, 16.0, 12.0, 12.0, 12.0]), 2.0)
        assert got == -math.log(2.5 / 16.0**2 * 40.0)
        assert got != -math.log(2.0 / 16.0**2 * 40.0)


class TestRangesAndDuration:
    def test_angular_velocity_range(self):
        gyro = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
        # per-axis ranges: 1, 3, 3
        assert angular_velocity_range(gyro) == pytest.approx(7.0 / 3.0)

    def test_power_index_is_product(self):
        accel = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        gyro = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert power_index(accel, angular_velocity_range(gyro)) == pytest.approx(1.0 * 2.0)

    def test_single_sample_ranges_are_zero(self):
        one = np.array([[1.0, 2.0, 3.0]])
        assert angular_velocity_range(one) == 0.0
        assert power_index(one, angular_velocity_range(one)) == 0.0


def build_session(rng, n=640, subject_id="S01", group=Group.PATIENT, rate=RATE):
    accel = rng.normal(0.0, 2.0, (n, 3)) + np.array([0.0, 0.0, 9.81])
    gyro = rng.normal(0.0, 30.0, (n, 3))
    streams = {
        Placement.WRIST: SensorStream(accel=accel, gyro=gyro, sample_rate_hz=rate),
        Placement.ARM: SensorStream(
            accel=0.5 * accel, gyro=0.5 * gyro, sample_rate_hz=rate
        ),
    }
    labels = {task: SegmentLabel(s1=0, e1=n // 4, e2=n // 2, e3=n) for task in TaskKind}
    return assemble_session(subject_id, group, "left", streams, labels)


def rotate_session(session, rot):
    streams = {
        placement: SensorStream(
            accel=stream.accel @ rot.T,
            gyro=stream.gyro @ rot.T,
            sample_rate_hz=stream.sample_rate_hz,
        )
        for placement, stream in session.streams.items()
    }
    return assemble_session(
        session.subject_id, session.group, session.side, streams, session.labels
    )


class TestExtractAll:
    def test_duration_is_placement_independent(self):
        rng = np.random.default_rng(47)
        windows = session_windows(build_session(rng))
        for kind in SegmentKind:
            wrist = extract_all(windows, TaskKind.WH, kind, Placement.WRIST)
            arm = extract_all(windows, TaskKind.WH, kind, Placement.ARM)
            assert wrist.duration_s == arm.duration_s

    def test_duration_is_window_length_over_rate(self):
        # (end - start) / rate exactly, at a rate where that is inexact
        rng = np.random.default_rng(47)
        session = build_session(rng, rate=100.0)
        label = session.labels[TaskKind.WH]
        windows = session_windows(session)
        got = {
            kind: extract_all(windows, TaskKind.WH, kind, Placement.WRIST).duration_s
            for kind in SegmentKind
        }
        assert got[SegmentKind.COMPLETE] == 6.4
        assert got[SegmentKind.SUB1] == got[SegmentKind.SUB2] == 1.6
        for kind, duration in got.items():
            start, end = label.window(kind)
            assert duration == (end - start) / 100.0

    def test_rotation_leaves_norm_features_and_moves_rav(self):
        rng = np.random.default_rng(53)
        session = build_session(rng)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        turned = rotate_session(session, q)
        cell = (TaskKind.WH, SegmentKind.COMPLETE, Placement.WRIST)
        base = extract_all(session_windows(session), *cell)
        moved = extract_all(session_windows(turned), *cell)
        assert moved.nmcp_a == base.nmcp_a
        assert moved.np_a == base.np_a
        assert moved.sparc == pytest.approx(base.sparc, rel=1e-9)
        assert moved.ldlj_a == pytest.approx(base.ldlj_a, rel=1e-9)
        assert moved.duration_s == base.duration_s
        assert abs(moved.rav - base.rav) > 0.01 * abs(base.rav)

    def test_all_zero_segment_reports_sparc_first(self):
        streams = {
            Placement.WRIST: SensorStream(
                accel=np.zeros((640, 3)), gyro=np.zeros((640, 3)), sample_rate_hz=RATE
            ),
            Placement.ARM: SensorStream(
                accel=np.zeros((640, 3)), gyro=np.zeros((640, 3)), sample_rate_hz=RATE
            ),
        }
        labels = {TaskKind.WH: SegmentLabel(s1=0, e1=160, e2=320, e3=640)}
        session = assemble_session("Z01", Group.HEALTHY, "right", streams, labels)
        with pytest.raises(FeatureError) as exc_info:
            extract_all(session_windows(session), TaskKind.WH, SegmentKind.SUB1, Placement.WRIST)
        err = exc_info.value
        assert "Z01" in str(err) and "WH" in str(err) and "sub1" in str(err)
        assert isinstance(err.__cause__, DegenerateSignalError)
        assert "sparc" in str(err.__cause__)

    def test_missing_label_rejected(self):
        rng = np.random.default_rng(59)
        session = build_session(rng)
        stripped = assemble_session(
            session.subject_id,
            session.group,
            session.side,
            session.streams,
            {TaskKind.WH: session.labels[TaskKind.WH]},
        )
        with pytest.raises(ValidationError, match="no label or stream for POH/sub1/wrist"):
            extract_all(session_windows(stripped), TaskKind.POH, SegmentKind.SUB1, Placement.WRIST)


class TestCohortMatrix:
    def test_extract_cohort_grid_and_order(self):
        rng = np.random.default_rng(61)
        sessions = [
            build_session(rng, subject_id="B02", group=Group.HEALTHY),
            build_session(rng, subject_id="A01", group=Group.PATIENT),
        ]
        rows, failures = extract_cohort(sessions)
        assert failures == []
        assert len(rows) == 2 * len(TaskKind) * len(SegmentKind) * len(Placement)
        keys = [(r.subject_id, r.task.value, r.segment.value, r.placement.value) for r in rows]
        assert keys == sorted(
            keys,
            key=lambda k: (
                k[0],
                [t.value for t in TaskKind].index(k[1]),
                [s.value for s in SegmentKind].index(k[2]),
                [p.value for p in Placement].index(k[3]),
            ),
        )
        assert rows[0].subject_id == "A01"

    def test_each_cell_is_sliced_and_extracted_once(self, monkeypatch):
        # the benchmark counts both calls per cell, failed cells included; an
        # iterator is extracted in this process, so every call is counted here
        calls = {"slice_segment": 0, "extract_all": 0}

        def counting(name):
            original = getattr(features, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(features, name, wrapper)

        counting("slice_segment")
        counting("extract_all")
        rng = np.random.default_rng(83)
        whole = build_session(rng)
        # WH's sub1 and sub2 windows hold 2 samples, too few for any feature
        labels = dict(whole.labels)
        labels[TaskKind.WH] = SegmentLabel(s1=0, e1=2, e2=4, e3=640)
        short = assemble_session("S02", Group.HEALTHY, "left", whole.streams, labels)
        rows, failures = extract_cohort(iter([whole, short]))
        assert len(failures) == 2 * len(Placement)
        assert calls["slice_segment"] == calls["extract_all"] == len(rows) + len(failures)

    def test_non_finite_norm_outside_every_window_fails_nothing(self):
        # norms are computed over the whole stream, but only a window's own
        # samples decide whether it is finite
        rng = np.random.default_rng(89)
        clean = build_session(rng)
        streams = {}
        for placement, stream in clean.streams.items():
            accel = np.vstack((stream.accel, np.full((4, 3), 1e200)))
            gyro = np.vstack((stream.gyro, np.zeros((4, 3))))
            streams[placement] = SensorStream(accel=accel, gyro=gyro, sample_rate_hz=RATE)
        padded = assemble_session("S01", Group.PATIENT, "left", streams, clean.labels)
        rows, failures = extract_cohort([padded])
        assert failures == []
        assert rows == extract_cohort([clean])[0]

    def test_matrix_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(67)
        sessions = [build_session(rng, subject_id="A01")]
        rows, _ = extract_cohort(sessions)
        path = tmp_path / "matrix.csv"
        path.write_bytes(write_matrix(rows))
        back = read_matrix(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.subject_id == b.subject_id
            assert a.group is b.group
            assert a.task is b.task
            assert a.segment is b.segment
            assert a.placement is b.placement
            for name in FeatureVector.FIELD_NAMES:
                assert getattr(a.features, name) == getattr(b.features, name)

    def test_matrix_round_trip_of_numpy_scalars(self, tmp_path):
        fv = FeatureVector(
            np.int64(3), np.int64(0), np.float64(-2.5), np.float64(-7.125),
            np.float64(0.1), np.float64(1e-300), np.float64(1.5),
        )
        rows = [FeatureRow("S01", Group.PATIENT, TaskKind.WH, SegmentKind.SUB1, Placement.ARM, fv)]
        path = tmp_path / "matrix.csv"
        path.write_bytes(write_matrix(rows))
        assert path.read_text().splitlines()[1] == (
            "S01,patient,WH,sub1,arm,3,0,-2.5,-7.125,0.1,1e-300,1.5"
        )
        assert read_matrix(path) == rows

    def test_matrix_header_is_pinned(self):
        assert MATRIX_HEADER == (
            "subject_id,group,task,segment,placement,"
            "nmcp_a,np_a,sparc,ldlj_a,rav,pi,duration_s"
        )

    def test_read_matrix_rejects_bad_header(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("nope\n")
        with pytest.raises(ParseError, match="header"):
            read_matrix(path)

    def test_read_matrix_rejects_unknown_task(self, tmp_path):
        path = tmp_path / "matrix.csv"
        row = "S01,patient,XX,complete,wrist,1,1,-1.5,-4.0,10.0,20.0,1.0"
        path.write_text(MATRIX_HEADER + "\n" + row + "\n")
        with pytest.raises(ParseError, match="task"):
            read_matrix(path)

    def test_read_matrix_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text(MATRIX_HEADER + "\nS01,patient,WH,complete,wrist,1,1\n")
        with pytest.raises(ParseError, match="columns"):
            read_matrix(path)

    def test_read_matrix_revalidates_values(self, tmp_path):
        path = tmp_path / "matrix.csv"
        row = "S01,patient,WH,complete,wrist,-3,1,-1.5,-4.0,10.0,20.0,1.0"
        path.write_text(MATRIX_HEADER + "\n" + row + "\n")
        with pytest.raises(ValidationError):
            read_matrix(path)
