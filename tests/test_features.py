"""The seven features against brute-force, analytic, and dual-route oracles."""

import math

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
from shoulderkin.dsp import ScalarSeries, fft_length
from shoulderkin.features import (
    MATRIX_HEADER,
    SPARC_MAX_PAD_LEVEL,
    FeatureRow,
    angular_velocity_range,
    extract_all,
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    power_index,
    segment_duration,
    spectral_arc_length,
)
from shoulderkin.model import (
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    SegmentLabel,
    SensorStream,
    TaskKind,
    assemble_session,
)

RATE = 128.0


def series(values, rate=RATE):
    return ScalarSeries(np.asarray(values, dtype=float), rate)


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
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            FeatureParams(**{field: value})

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
            got = spectral_arc_length(series(values), params)
            want = sparc_direct(values, RATE, params)
            assert got == pytest.approx(want, abs=1e-9)

    def test_amplitude_scale_invariant(self):
        rng = np.random.default_rng(41)
        values = np.abs(rng.normal(2.0, 1.0, size=200))
        base = spectral_arc_length(series(values))
        for c in (0.1, 2.0, 100.0):
            scaled = spectral_arc_length(series(c * values))
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_two_submovements_rougher_than_one(self):
        one = min_jerk_pulse(256)
        two = np.concatenate([min_jerk_pulse(96), np.zeros(64), min_jerk_pulse(96)])
        s_one = spectral_arc_length(series(one))
        s_two = spectral_arc_length(series(two))
        assert s_two < s_one < 0.0

    def test_selection_spans_across_an_interior_dip(self):
        # DC lobe plus a 6 Hz tone at 25% relative magnitude: between the
        # lobes the normalized spectrum dips under the 5% threshold, and
        # the span rule keeps everything out to the far lobe anyway.
        t = np.arange(256) / RATE
        values = 1.0 + 0.5 * np.cos(2.0 * np.pi * 6.0 * t)
        params = FeatureParams()
        from shoulderkin.dsp import magnitude_spectrum

        spec = magnitude_spectrum(series(values), params.sparc_pad_level)
        vhat = spec.magnitudes / spec.magnitudes[0]
        keep = spec.freqs_hz <= params.sparc_max_cutoff_hz
        vhat = vhat[keep]
        above = np.nonzero(vhat >= params.sparc_amp_threshold)[0]
        interior = vhat[above[0] : above[-1] + 1]
        assert interior.min() < params.sparc_amp_threshold  # a genuine dip
        got = spectral_arc_length(series(values), params)
        want = sparc_direct(values, RATE, params)
        assert got == pytest.approx(want, abs=1e-9)
        # crossing the dip twice costs at least the two vertical excursions
        assert got < -1.3

    def test_constant_signal_has_no_arc(self):
        # power-of-two length and no padding keep the constant's transform
        # on a single bin, so the selection collapses to one point.
        params = FeatureParams(sparc_pad_level=0)
        assert spectral_arc_length(series(np.full(256, 3.0)), params) == 0.0

    def test_all_zero_signal_is_degenerate(self):
        with pytest.raises(DegenerateSignalError, match="zero DC"):
            spectral_arc_length(series(np.zeros(128)))

    def test_min_duration_gate(self):
        with pytest.raises(TooShortError):
            spectral_arc_length(series(np.ones(16)))  # 0.125 s < 0.25 s

    def test_too_short(self):
        with pytest.raises(TooShortError):
            spectral_arc_length(series([1.0]))


class TestLogDimensionlessJerk:
    def test_matches_analytic_quadrature(self):
        # x(t) = 5 + 2 sin(2 pi t) over [0, 2): peak lands exactly on a
        # sample (t = 0.25), jerk is 4 pi cos(2 pi t), and the squared-jerk
        # integral over two full periods is 16 pi^2.
        t = np.arange(256) / RATE
        values = 5.0 + 2.0 * np.sin(2.0 * np.pi * t)
        want = -math.log(2.0 / 49.0 * 16.0 * math.pi**2)
        got = log_dimensionless_jerk(series(values))
        assert got == pytest.approx(want, abs=0.01)

    def test_amplitude_scale_invariant(self):
        rng = np.random.default_rng(43)
        values = np.abs(rng.normal(3.0, 1.0, size=300))
        base = log_dimensionless_jerk(series(values))
        for c in (0.1, 2.0, 100.0):
            assert log_dimensionless_jerk(series(c * values)) == pytest.approx(base, rel=1e-9)

    def test_smoother_signal_scores_higher(self):
        t = np.arange(512) / RATE
        slow = 10.0 + np.sin(2.0 * np.pi * 1.0 * t)
        fast = 10.0 + np.sin(2.0 * np.pi * 6.0 * t)
        assert log_dimensionless_jerk(series(slow)) > log_dimensionless_jerk(series(fast))

    def test_zero_signal_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            log_dimensionless_jerk(series(np.zeros(64)))

    def test_constant_signal_degenerate(self):
        with pytest.raises(DegenerateSignalError, match="constant"):
            log_dimensionless_jerk(series(np.full(64, 2.0)))

    def test_too_short(self):
        with pytest.raises(TooShortError):
            log_dimensionless_jerk(series([1.0, 2.0]))


class TestRangesAndDuration:
    def test_angular_velocity_range(self):
        gyro = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
        # per-axis ranges: 1, 3, 3
        assert angular_velocity_range(gyro) == pytest.approx(7.0 / 3.0)

    def test_power_index_is_product(self):
        accel = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        gyro = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        assert power_index(accel, gyro) == pytest.approx(1.0 * 2.0)

    def test_single_sample_ranges_are_zero(self):
        one = np.array([[1.0, 2.0, 3.0]])
        assert angular_velocity_range(one) == 0.0
        assert power_index(one, one) == 0.0

    def test_segment_duration(self):
        assert segment_duration(0, 128, 128.0) == 1.0
        assert segment_duration(64, 96, 128.0) == 0.25


def build_session(rng, n=640, subject_id="S01", group=Group.PATIENT):
    accel = rng.normal(0.0, 2.0, (n, 3)) + np.array([0.0, 0.0, 9.81])
    gyro = rng.normal(0.0, 30.0, (n, 3))
    streams = {
        Placement.WRIST: SensorStream(accel=accel, gyro=gyro, sample_rate_hz=RATE),
        Placement.ARM: SensorStream(
            accel=0.5 * accel, gyro=0.5 * gyro, sample_rate_hz=RATE
        ),
    }
    labels = [
        SegmentLabel(task=task, s1=0, e1=n // 4, s2=n // 4, e2=n // 2, s3=n // 2, e3=n)
        for task in TaskKind
    ]
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
        session.subject_id, session.group, session.side, streams, session.labels.values()
    )


class TestExtractAll:
    def test_duration_is_placement_independent(self):
        rng = np.random.default_rng(47)
        session = build_session(rng)
        for kind in SegmentKind:
            wrist = extract_all(session, TaskKind.WH, kind, Placement.WRIST)
            arm = extract_all(session, TaskKind.WH, kind, Placement.ARM)
            assert wrist.duration_s == arm.duration_s

    def test_rotation_leaves_norm_features_and_moves_rav(self):
        rng = np.random.default_rng(53)
        session = build_session(rng)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        turned = rotate_session(session, q)
        base = extract_all(session, TaskKind.WH, SegmentKind.COMPLETE, Placement.WRIST)
        moved = extract_all(turned, TaskKind.WH, SegmentKind.COMPLETE, Placement.WRIST)
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
        labels = [SegmentLabel(task=TaskKind.WH, s1=0, e1=160, s2=160, e2=320, s3=320, e3=640)]
        session = assemble_session("Z01", Group.HEALTHY, "right", streams, labels)
        with pytest.raises(FeatureError) as exc_info:
            extract_all(session, TaskKind.WH, SegmentKind.SUB1, Placement.WRIST)
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
            [session.labels[TaskKind.WH]],
        )
        with pytest.raises(ValidationError):
            extract_all(stripped, TaskKind.POH, SegmentKind.SUB1, Placement.WRIST)


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
