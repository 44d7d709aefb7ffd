"""Simulator: minimum-jerk identities, determinism, and cohort layout."""

import dataclasses

import numpy as np
import pytest

from shoulderkin import (
    FeatureParams,
    ParseError,
    ValidationError,
    default_profile,
    generate_cohort,
    load_cohort,
    write_profile,
)
from shoulderkin.dsp import euclidean_norm
from shoulderkin.features import peak_count, spectral_arc_length
from shoulderkin.model import GRAVITY_MS2, Group, Placement, SegmentKind, TaskKind, slice_segment
from shoulderkin.synth import (
    MAX_N_PER_GROUP,
    MAX_PHASE_DURATION_S,
    MAX_SUBMOVEMENTS,
    CohortProfile,
    GroupProfile,
    SubmovementSpec,
    generate_session,
    min_jerk_speed,
    parse_profile,
    synth_segment,
)

RATE = 128.0


def planar_spec(onset=0.5, duration=1.0, amplitude=120.0):
    return SubmovementSpec(
        onset_s=onset,
        duration_s=duration,
        amplitude_dps=amplitude,
        axis_weights=np.array([1.0, 0.0, 0.0]),
    )


class TestMinJerkSpeed:
    def test_peak_is_amplitude_at_midpoint(self):
        spec = planar_spec(onset=0.0, duration=2.0, amplitude=90.0)
        assert min_jerk_speed(1.0, spec) == pytest.approx(90.0)
        t = np.linspace(0.0, 2.0, 2001)
        assert np.max(min_jerk_speed(t, spec)) == pytest.approx(90.0, rel=1e-9)

    def test_zero_outside_support(self):
        spec = planar_spec(onset=1.0, duration=0.5)
        assert min_jerk_speed(0.99, spec) == 0.0
        assert min_jerk_speed(1.51, spec) == 0.0

    def test_displacement_identity(self):
        # integral of the pulse equals amplitude * duration / 1.875, the
        # identity the generator inverts to set amplitudes from excursions
        spec = planar_spec(onset=0.0, duration=1.7, amplitude=64.0)
        t = np.linspace(0.0, 1.7, 200001)
        integral = np.trapezoid(min_jerk_speed(t, spec), t)
        assert integral == pytest.approx(64.0 * 1.7 / 1.875, rel=1e-3)

    def test_symmetric_about_midpoint(self):
        spec = planar_spec(onset=0.0, duration=1.0)
        tau = np.linspace(0.0, 0.5, 100)
        left = min_jerk_speed(tau, spec)
        right = min_jerk_speed(1.0 - tau, spec)
        assert np.allclose(left, right, atol=1e-12)


class TestSubmovementSpec:
    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValidationError, match="unit norm"):
            SubmovementSpec(0.0, 1.0, 10.0, np.array([1.0, 1.0, 0.0]))

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            SubmovementSpec(0.0, 0.0, 10.0, np.array([1.0, 0.0, 0.0]))


class TestSynthSegment:
    def rng(self):
        return np.random.default_rng(131)

    def test_no_specs_noise_free_is_pure_gravity(self):
        stream = synth_segment([], 1.0, RATE, 0.0, 0.0, self.rng())
        assert stream.n_samples == 128
        assert np.array_equal(stream.gyro, np.zeros((128, 3)))
        want = np.zeros((128, 3))
        want[:, 2] = GRAVITY_MS2
        assert np.array_equal(stream.accel, want)

    def test_zero_sigma_still_consumes_draws(self):
        # the rng stream layout must not depend on the sigma values, so a
        # zero-noise render must leave the generator in the same state
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        synth_segment([], 1.0, RATE, 0.0, 0.0, rng_a)
        synth_segment([], 1.0, RATE, 0.5, 2.0, rng_b)
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_gyro_is_pulse_along_axis(self):
        spec = planar_spec(onset=0.25, duration=0.5, amplitude=100.0)
        stream = synth_segment([spec], 1.0, RATE, 0.0, 0.0, self.rng())
        t = np.arange(128) / RATE
        want = min_jerk_speed(t, spec)
        assert np.allclose(stream.gyro[:, 0], want, atol=1e-9)
        assert np.allclose(stream.gyro[:, 1:], 0.0, atol=1e-12)

    def test_planar_pulse_gives_two_acceleration_peaks(self):
        # a pulse in the horizontal plane adds a symmetric accelerate and
        # decelerate bump pair to the gravity-dominated norm
        spec = planar_spec(onset=0.4, duration=1.2, amplitude=150.0)
        stream = synth_segment([spec], 2.0, RATE, 0.0, 0.0, self.rng(), lever_arm_m=0.55)
        a_norm = euclidean_norm(stream.accel, RATE)
        assert peak_count(a_norm, FeatureParams()) == 2

    def test_spec_outside_window_rejected(self):
        spec = planar_spec(onset=0.8, duration=0.5)
        with pytest.raises(ValidationError, match="does not fit"):
            synth_segment([spec], 1.0, RATE, 0.0, 0.0, self.rng())


class TestProfileFile:
    def test_round_trip(self, tmp_path):
        profile = default_profile(n_per_group=5, seed=99)
        path = tmp_path / "profile.ini"
        path.write_bytes(write_profile(profile))
        assert parse_profile(path) == profile
        # more significant digits than "%.9g" keeps, and integral values
        long = dataclasses.replace(
            profile.patient,
            subtask_duration_s=(1.0000000001, 2.718281828459045),
            hold_duration_s=(3.0, 1e1),
            pause_probability=0.1234567891234,
            accel_noise_sigma=1e-17 / 3,
            gyro_noise_sigma=2.0 / 3,
        )
        profile = dataclasses.replace(profile, patient=long)
        path.write_bytes(write_profile(profile))
        assert parse_profile(path) == profile
        assert "hold_duration_s = 3 10\n" in path.read_text()

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "profile.ini"
        text = write_profile(default_profile()).decode("utf-8")
        path.write_text(text.replace("[healthy]", "[else]"))
        with pytest.raises(ParseError, match="sections"):
            parse_profile(path)

    def test_unknown_group_key_rejected(self, tmp_path):
        path = tmp_path / "profile.ini"
        text = write_profile(default_profile()).decode("utf-8")
        path.write_text(text + "\nwobble = 3\n")
        with pytest.raises(ParseError, match="unknown keys"):
            parse_profile(path)

    def test_pair_needs_two_values(self, tmp_path):
        path = tmp_path / "profile.ini"
        text = write_profile(default_profile()).decode("utf-8")
        text = text.replace("submovements = 4 7", "submovements = 4", 1)
        path.write_text(text)
        with pytest.raises(ParseError, match="two values"):
            parse_profile(path)


class TestGenerateSession:
    def test_deterministic_per_index(self):
        profile = default_profile(n_per_group=2, seed=7)
        a = generate_session(profile, Group.PATIENT, 0)
        b = generate_session(profile, Group.PATIENT, 0)
        assert a.subject_id == b.subject_id == "P01"
        assert a.side == b.side
        for placement in Placement:
            assert np.array_equal(a.streams[placement].accel, b.streams[placement].accel)
            assert np.array_equal(a.streams[placement].gyro, b.streams[placement].gyro)
        for task in TaskKind:
            assert a.labels[task] == b.labels[task]

    def test_different_indices_differ(self):
        profile = default_profile(n_per_group=2, seed=7)
        a = generate_session(profile, Group.HEALTHY, 0)
        b = generate_session(profile, Group.HEALTHY, 1)
        assert a.subject_id == "H01" and b.subject_id == "H02"
        assert not np.array_equal(
            a.streams[Placement.WRIST].gyro, b.streams[Placement.WRIST].gyro
        )

    def test_group_label_never_enters_seeding(self):
        # patient i and healthy i share entropy; with a shared profile the
        # two groups must be sample-for-sample identical
        base = default_profile(n_per_group=2, seed=11)
        null = dataclasses.replace(base, patient=base.healthy)
        p = generate_session(null, Group.PATIENT, 1)
        h = generate_session(null, Group.HEALTHY, 1)
        for placement in Placement:
            assert np.array_equal(p.streams[placement].accel, h.streams[placement].accel)
            assert np.array_equal(p.streams[placement].gyro, h.streams[placement].gyro)
        for task in TaskKind:
            assert p.labels[task] == h.labels[task]

    def test_labels_cover_all_tasks_and_fit_streams(self):
        profile = default_profile(n_per_group=2, seed=13)
        session = generate_session(profile, Group.PATIENT, 0)
        assert set(session.labels) == set(TaskKind)
        n = session.streams[Placement.WRIST].n_samples
        previous_end = 0
        for task in TaskKind:
            lb = session.labels[task]
            assert lb.s1 >= previous_end
            assert lb.e3 <= n
            previous_end = lb.e3

    def test_wrist_moves_more_than_arm(self):
        profile = default_profile(n_per_group=2, seed=17)
        session = generate_session(profile, Group.HEALTHY, 0)
        wrist = session.streams[Placement.WRIST].gyro
        arm = session.streams[Placement.ARM].gyro
        wrist_range = np.mean(np.max(wrist, axis=0) - np.min(wrist, axis=0))
        arm_range = np.mean(np.max(arm, axis=0) - np.min(arm, axis=0))
        assert wrist_range > 1.3 * arm_range


class TestSmoothnessTrends:
    def test_more_submovements_lower_sparc_more_peaks(self):
        # the core construction behind the simulator: splitting the same
        # excursion into more separated pulses makes the speed spectrum
        # longer and adds an acceleration bump pair per pulse
        for seed in (3, 5, 9):
            rng = np.random.default_rng(seed)
            sparcs = []
            peaks = []
            for k in range(1, 6):
                specs = []
                pulse = 0.9
                gap = 0.45
                for i in range(k):
                    specs.append(
                        SubmovementSpec(
                            onset_s=0.3 + i * (pulse + gap),
                            duration_s=pulse,
                            amplitude_dps=150.0 / k,
                            axis_weights=np.array([1.0, 0.0, 0.0]),
                        )
                    )
                total = 0.6 + k * pulse + (k - 1) * gap + 0.3
                stream = synth_segment(specs, total, RATE, 0.0, 0.0, rng, lever_arm_m=0.55)
                w_norm = euclidean_norm(stream.gyro, RATE)
                a_norm = euclidean_norm(stream.accel, RATE)
                sparcs.append(spectral_arc_length(w_norm, FeatureParams()))
                peaks.append(peak_count(a_norm, FeatureParams()))
            assert all(b < a for a, b in zip(sparcs, sparcs[1:])), sparcs
            assert all(b > a for a, b in zip(peaks, peaks[1:])), peaks


class TestGenerateCohort:
    def test_files_manifest_and_reload(self, tmp_path):
        profile = default_profile(n_per_group=2, seed=21)
        paths = generate_cohort(profile, tmp_path)
        assert [p.name for p in paths] == [
            "P01_session.txt", "P02_session.txt", "H01_session.txt", "H02_session.txt",
        ]
        listed = (tmp_path / "cohort.txt").read_text().split()
        assert listed == [p.name for p in paths]
        for sid in ("P01", "P02", "H01", "H02"):
            for suffix in ("wrist.csv", "arm.csv", "labels.csv", "session.txt"):
                assert (tmp_path / f"{sid}_{suffix}").is_file()
        sessions = load_cohort(tmp_path)
        assert [s.subject_id for s in sessions] == ["P01", "P02", "H01", "H02"]
        groups = {s.subject_id: s.group for s in sessions}
        assert groups["P01"] is Group.PATIENT
        assert groups["H02"] is Group.HEALTHY

    def test_reloaded_segments_are_usable(self, tmp_path):
        profile = default_profile(n_per_group=2, seed=23)
        generate_cohort(profile, tmp_path)
        session = load_cohort(tmp_path)[0]
        label = session.labels[TaskKind.WH]
        segment = slice_segment(session.streams[Placement.WRIST], label, SegmentKind.SUB1)
        assert segment.n_samples == label.e1 - label.s1
        a_norm = euclidean_norm(segment.accel, session.sample_rate_hz)
        assert peak_count(a_norm, FeatureParams()) >= 1


class TestProfileValidation:
    def test_submovement_range_ordering(self):
        with pytest.raises(ValidationError):
            GroupProfile(
                submovements=(3, 2),
                subtask_duration_s=(1.0, 2.0),
                hold_duration_s=(1.0, 2.0),
                pause_probability=0.1,
                accel_noise_sigma=0.01,
                gyro_noise_sigma=0.5,
            )

    def test_cohort_needs_two_subjects(self):
        gp = default_profile().healthy
        with pytest.raises(ValidationError):
            CohortProfile(patient=gp, healthy=gp, n_per_group=1, seed=0)

    def test_seed_must_fit_u64(self):
        gp = default_profile().healthy
        with pytest.raises(ValidationError):
            CohortProfile(patient=gp, healthy=gp, n_per_group=2, seed=2**64)

    # Each bound is tried at its limit (accepted) and just above it (rejected);
    # validation happens before any cohort is generated.
    @pytest.mark.parametrize(
        "field, at_limit, above",
        [
            ("submovements", (1, MAX_SUBMOVEMENTS), (1, MAX_SUBMOVEMENTS + 1)),
            (
                "subtask_duration_s",
                (1.0, MAX_PHASE_DURATION_S),
                (1.0, np.nextafter(MAX_PHASE_DURATION_S, np.inf)),
            ),
            (
                "hold_duration_s",
                (1.0, MAX_PHASE_DURATION_S),
                (1.0, np.nextafter(MAX_PHASE_DURATION_S, np.inf)),
            ),
        ],
    )
    def test_group_bounds(self, field, at_limit, above):
        gp = default_profile().patient
        assert getattr(dataclasses.replace(gp, **{field: at_limit}), field) == at_limit
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(gp, **{field: above})

    def test_cohort_size_bound(self):
        gp = default_profile().healthy
        CohortProfile(patient=gp, healthy=gp, n_per_group=MAX_N_PER_GROUP, seed=0)
        with pytest.raises(ValidationError, match="n_per_group"):
            CohortProfile(patient=gp, healthy=gp, n_per_group=MAX_N_PER_GROUP + 1, seed=0)
