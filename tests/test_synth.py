"""Simulator: minimum-jerk identities, determinism, and cohort layout."""

import dataclasses
import errno
import math
import os
import signal
import time

import numpy as np
import pytest

from cohort_oracle import write_in_process
from forks import record_forks
from shoulderkin import (
    FeatureParams,
    ParseError,
    ValidationError,
    default_profile,
    generate_cohort,
    load_cohort,
    write_profile,
)
from shoulderkin import synth
from shoulderkin.dsp import euclidean_norm
from shoulderkin.features import peak_count, spectral_arc_length
from shoulderkin.model import GRAVITY_MS2, Group, Placement, SegmentKind, TaskKind, slice_segment
from shoulderkin.synth import (
    MAX_N_PER_GROUP,
    MAX_NOISE_SIGMA,
    MAX_PHASE_DURATION_S,
    MAX_SUBMOVEMENTS,
    CohortProfile,
    GroupProfile,
    generate_session,
    parse_profile,
    synth_segment,
)

RATE = 128.0


def planar_pulse(onset=0.5, duration=1.0, amplitude=120.0):
    """One pulse row for `synth_segment`, along x."""
    return (onset, duration, amplitude, np.array([1.0, 0.0, 0.0]))


def speed_along_x(pulse, total_s, rate=RATE):
    """The sample times and x gyro of one pulse rendered without noise."""
    stream = synth_segment([pulse], total_s, rate, 0.0, 0.0, np.random.default_rng(0))
    return stream.times_s(), stream.gyro[:, 0]


def bell(t, onset, duration, amplitude):
    """The minimum-jerk speed in closed form: peak `amplitude` at mid-pulse."""
    tau = np.clip((t - onset) / duration, 0.0, 1.0)
    return amplitude * (30 * tau**2 - 60 * tau**3 + 30 * tau**4) / 1.875


class TestMinJerkSpeed:
    """The pulse shape, read from the x gyro of a noise-free `synth_segment`."""

    def test_peak_is_amplitude_at_midpoint(self):
        pulse = planar_pulse(onset=0.0, duration=2.0, amplitude=90.0)
        t, speed = speed_along_x(pulse, 2.001, 1000.0)
        assert t[1000] == 1.0
        assert speed[1000] == pytest.approx(90.0)
        assert np.max(speed) == pytest.approx(90.0, rel=1e-9)

    def test_zero_outside_support(self):
        t, speed = speed_along_x(planar_pulse(onset=1.0, duration=0.5), 2.0)
        inside = (t > 1.0) & (t < 1.5)
        assert np.all(speed[~inside] == 0.0)
        assert np.all(speed[inside] > 0.0)

    def test_displacement_identity(self):
        # integral of the pulse equals amplitude * duration / 1.875, the
        # identity the generator inverts to set amplitudes from excursions
        t, speed = speed_along_x(planar_pulse(onset=0.0, duration=1.7, amplitude=64.0), 1.8, 1e4)
        assert np.trapezoid(speed, t) == pytest.approx(64.0 * 1.7 / 1.875, rel=1e-3)

    def test_symmetric_about_midpoint(self):
        _, speed = speed_along_x(planar_pulse(onset=0.0, duration=1.0), 1.0 + 1 / RATE)
        assert len(speed) == RATE + 1
        assert np.allclose(speed, speed[::-1], atol=1e-12)


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
        pulse = planar_pulse(onset=0.25, duration=0.5, amplitude=100.0)
        stream = synth_segment([pulse], 1.0, RATE, 0.0, 0.0, self.rng())
        want = bell(np.arange(128) / RATE, 0.25, 0.5, 100.0)
        assert np.allclose(stream.gyro[:, 0], want, atol=1e-9)
        assert np.allclose(stream.gyro[:, 1:], 0.0, atol=1e-12)

    def test_planar_pulse_gives_two_acceleration_peaks(self):
        # a pulse in the horizontal plane adds a symmetric accelerate and
        # decelerate bump pair to the gravity-dominated norm
        pulse = planar_pulse(onset=0.4, duration=1.2, amplitude=150.0)
        stream = synth_segment([pulse], 2.0, RATE, 0.0, 0.0, self.rng(), lever_arm_m=0.55)
        a_norm = euclidean_norm(stream.accel)
        assert peak_count(a_norm, FeatureParams()) == 2

    def test_spec_outside_window_rejected(self):
        with pytest.raises(ValidationError, match="does not fit"):
            synth_segment([planar_pulse(onset=0.8, duration=0.5)], 1.0, RATE, 0.0, 0.0, self.rng())

    @pytest.mark.parametrize("onset", [math.nan, math.inf, -math.inf])
    def test_non_finite_onset_rejected(self, onset):
        with pytest.raises(ValidationError, match="does not fit"):
            synth_segment([planar_pulse(onset=onset)], 1.0, RATE, 0.0, 0.0, self.rng())

    def test_rejects_non_unit_axis(self):
        pulse = (0.0, 1.0, 10.0, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValidationError, match="unit norm"):
            synth_segment([pulse], 1.0, RATE, 0.0, 0.0, self.rng())

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError, match="duration_s must be positive"):
            synth_segment([planar_pulse(onset=0.0, duration=0.0)], 1.0, RATE, 0.0, 0.0, self.rng())

    # NaN compares false with everything, so a check written as `x > bound`
    # for the fault would let it through
    @pytest.mark.parametrize(
        "pulse, message",
        [
            ((0.0, 0.5, 10.0, [math.nan, 0.0, 0.0]), "unit norm, got nan"),
            ((0.0, 0.5, 10.0, [math.inf, 0.0, 0.0]), "unit norm, got inf"),
            ((0.0, math.nan, 10.0, [1.0, 0.0, 0.0]), "duration_s must be positive, got nan"),
            ((0.0, 0.5, math.nan, [1.0, 0.0, 0.0]), "pulse 0: amplitude_dps must be finite, got nan"),
            ((0.0, 0.5, math.inf, [1.0, 0.0, 0.0]), "pulse 0: amplitude_dps must be finite, got inf"),
            ((0.0, 0.5, -math.inf, [1.0, 0.0, 0.0]), "amplitude_dps must be finite, got -inf"),
            # finite, but the render overflows: refused with no numpy warning
            ((0.0, 0.5, 1e308, [1.0, 0.0, 0.0]), "accel contains non-finite values"),
            ((0.0, 0.5, -1e308, [0.6, 0.0, 0.8]), "contains non-finite values"),
        ],
    )
    def test_a_nan_or_infinite_pulse_is_rejected(self, pulse, message):
        with pytest.raises(ValidationError, match=message):
            synth_segment([pulse], 1.0, RATE, 0.0, 0.0, self.rng())

    # a sample count that is not a finite number was an OverflowError or a
    # ValueError from int(); the last case overflows only in the product
    @pytest.mark.parametrize(
        "total_s, rate",
        [(math.inf, RATE), (math.nan, RATE), (1.0, math.inf), (1.0, math.nan), (1e300, 1e300)],
    )
    def test_non_finite_sample_count_rejected(self, total_s, rate):
        with pytest.raises(ValidationError, match="finite sample count"):
            synth_segment([], total_s, rate, 0.0, 0.0, self.rng())


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
        with pytest.raises(ParseError, match="unknown key"):
            parse_profile(path)

    # spellings another INI reader would take: each is an error at its line
    @pytest.mark.parametrize(
        "old, new, line_no",
        [
            ("seed = 42", "seed: 42", 3),
            ("seed = 42", "SEED = 42", 3),
            ("[cohort]", "; note\n[cohort]", 1),
            ("[cohort]", "[DEFAULT]\n[cohort]", 1),
        ],
    )
    def test_other_ini_spellings_rejected_at_their_line(self, tmp_path, old, new, line_no):
        path = tmp_path / "profile.ini"
        text = write_profile(default_profile()).decode("utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ParseError) as err:
            parse_profile(path)
        assert str(err.value).startswith(f"{path}:{line_no}: ")

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

    def test_streams_take_over_the_rendered_arrays(self, monkeypatch):
        # each placement's accel and gyro are held once, by its stream
        rendered = []

        def record(accel, gyro, sample_rate_hz):
            rendered.append((accel, gyro))
            return stream_type(accel=accel, gyro=gyro, sample_rate_hz=sample_rate_hz)

        stream_type = synth.SensorStream
        monkeypatch.setattr(synth, "SensorStream", record)
        session = generate_session(default_profile(n_per_group=2, seed=7), Group.PATIENT, 0)
        assert len(rendered) == len(Placement)
        for placement, (accel, gyro) in zip(Placement, rendered):
            stream = session.streams[placement]
            assert np.shares_memory(stream.accel, accel) and np.shares_memory(stream.gyro, gyro)

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
                pulse = 0.9
                gap = 0.45
                pulses = [
                    planar_pulse(0.3 + i * (pulse + gap), pulse, 150.0 / k) for i in range(k)
                ]
                total = 0.6 + k * pulse + (k - 1) * gap + 0.3
                stream = synth_segment(pulses, total, RATE, 0.0, 0.0, rng, lever_arm_m=0.55)
                w_norm = euclidean_norm(stream.gyro)
                a_norm = euclidean_norm(stream.accel)
                sparcs.append(spectral_arc_length(w_norm, RATE, FeatureParams()))
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
        stream = session.streams[Placement.WRIST]
        accel, gyro = slice_segment(stream, label, SegmentKind.SUB1)
        for window, whole in ((accel, stream.accel), (gyro, stream.gyro)):
            assert np.array_equal(window, whole[label.s1 : label.e1])
            assert np.shares_memory(window, whole)
            assert not window.flags.writeable
        a_norm = euclidean_norm(accel)
        assert peak_count(a_norm, FeatureParams()) >= 1


def cohort_profile(n_per_group, seed=11):
    """A default profile of `n_per_group`; 1 is below the profile's own
    bound, so it is set past the check, to give each process one session."""
    profile = default_profile(n_per_group=max(n_per_group, 2), seed=seed)
    object.__setattr__(profile, "n_per_group", n_per_group)
    return profile


def files_of(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestCohortWriter:
    """`generate_cohort` writes every other session in a helper process and
    the same bytes as one process writing them in order. The suite-wide
    fixture in conftest.py checks that no process is left after each."""

    @pytest.mark.parametrize("n_per_group", [1, 2, 3])
    def test_same_bytes_as_one_process(self, tmp_path, n_per_group):
        profile = cohort_profile(n_per_group)
        paths = generate_cohort(profile, tmp_path / "cohort")
        write_in_process(profile, tmp_path / "oracle")
        want = files_of(tmp_path / "oracle")
        assert files_of(tmp_path / "cohort") == want
        assert [path.name for path in paths] == want["cohort.txt"].decode().split()

    def test_the_helper_writes_every_other_session(self, tmp_path, monkeypatch):
        parent = os.getpid()
        write_session = synth._write_session
        in_parent = []

        def write(profile, group, index, out_dir):
            name = write_session(profile, group, index, out_dir)
            if os.getpid() == parent:
                in_parent.append(name)
            return name

        monkeypatch.setattr(synth, "_write_session", write)
        generate_cohort(cohort_profile(3), tmp_path)
        assert in_parent == ["P01_session.txt", "P03_session.txt", "H02_session.txt"]

    def test_parent_finishes_the_cohort_once_the_helper_is_killed(self, tmp_path, monkeypatch):
        # the helper reports P02, then leaves half of H01_wrist.csv and
        # stalls; the parent kills it once P03 is written, after that report
        parent = os.getpid()
        forked = record_forks(monkeypatch)
        write_session = synth._write_session
        in_parent = []

        def write(profile, group, index, out_dir):
            if os.getpid() != parent and (group, index) == (Group.HEALTHY, 0):
                (out_dir / "H01_wrist.csv").write_bytes(b"time_s,ax")
                time.sleep(600)
            if os.getpid() == parent and group is Group.HEALTHY:
                # after the helper's report of P02: it is dead and reaped
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)
            name = write_session(profile, group, index, out_dir)
            if os.getpid() == parent:
                in_parent.append(name[:3])
                if name.startswith("P03") and forked:  # not again for the oracle
                    os.kill(forked.pop(), signal.SIGKILL)
            return name

        monkeypatch.setattr(synth, "_write_session", write)
        profile = cohort_profile(3)
        generate_cohort(profile, tmp_path / "cohort")
        assert in_parent == ["P01", "P03", "H01", "H02", "H03"]
        write_in_process(profile, tmp_path / "oracle")
        assert files_of(tmp_path / "cohort") == files_of(tmp_path / "oracle")

    def test_without_a_helper_every_session_is_written_in_process(self, tmp_path, monkeypatch):
        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        profile = cohort_profile(2)
        generate_cohort(profile, tmp_path / "cohort")
        write_in_process(profile, tmp_path / "oracle")
        assert files_of(tmp_path / "cohort") == files_of(tmp_path / "oracle")

    def test_an_interrupt_kills_a_stalled_helper(self, tmp_path, monkeypatch):
        parent = os.getpid()
        write_session = synth._write_session

        def write(profile, group, index, out_dir):
            if os.getpid() != parent:
                time.sleep(30)
            elif index == 0:
                raise KeyboardInterrupt
            return write_session(profile, group, index, out_dir)

        monkeypatch.setattr(synth, "_write_session", write)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            generate_cohort(cohort_profile(3), tmp_path)
        assert time.monotonic() - start < 10
        assert not (tmp_path / "cohort.txt").exists()

    def test_an_interrupt_while_waiting_kills_the_helper(self, tmp_path, monkeypatch):
        # the parent writes P01, then waits on the stalled helper's P02
        parent = os.getpid()
        write_session = synth._write_session

        def write(profile, group, index, out_dir):
            if os.getpid() != parent:
                time.sleep(30)
            return write_session(profile, group, index, out_dir)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(synth, "_write_session", write)
        start = time.monotonic()
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(KeyboardInterrupt) as info:
                generate_cohort(cohort_profile(3), tmp_path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 10
        assert "in_order" in [entry.name for entry in info.traceback]
        assert not (tmp_path / "cohort.txt").exists()


def patient_with(**changes):
    return dataclasses.replace(default_profile().patient, **changes)


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
            ("accel_noise_sigma", MAX_NOISE_SIGMA, np.nextafter(MAX_NOISE_SIGMA, np.inf)),
            ("gyro_noise_sigma", MAX_NOISE_SIGMA, np.nextafter(MAX_NOISE_SIGMA, np.inf)),
        ],
    )
    def test_group_bounds(self, field, at_limit, above):
        gp = default_profile().patient
        assert getattr(dataclasses.replace(gp, **{field: at_limit}), field) == at_limit
        with pytest.raises(ValidationError, match=field):
            dataclasses.replace(gp, **{field: above})

    @pytest.mark.parametrize(
        "make, changes",
        [
            (default_profile, {"n_per_group": 3.0}),
            (default_profile, {"n_per_group": np.float64(3.0)}),
            (default_profile, {"seed": 1.5}),
            (default_profile, {"seed": True}),
            (patient_with, {"submovements": (1.5, 2)}),
            (patient_with, {"submovements": (1, 2.0)}),
            (patient_with, {"submovements": (True, 2)}),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, make, changes):
        # each would fail later, in the generator, with a TypeError
        (field,) = changes
        with pytest.raises(ValidationError, match=f"{field} .*integer"):
            make(**changes)

    def test_the_largest_noise_sigmas_give_finite_samples(self):
        # 1e308 passed the old finiteness check and made the noise overflow
        loud = patient_with(accel_noise_sigma=MAX_NOISE_SIGMA, gyro_noise_sigma=MAX_NOISE_SIGMA)
        session = generate_session(
            dataclasses.replace(default_profile(n_per_group=2), patient=loud), Group.PATIENT, 0
        )
        for stream in session.streams.values():
            assert np.isfinite(stream.accel).all() and np.isfinite(stream.gyro).all()
            assert np.isfinite(euclidean_norm(stream.accel)).all()

    def test_cohort_size_bound(self):
        gp = default_profile().healthy
        CohortProfile(patient=gp, healthy=gp, n_per_group=MAX_N_PER_GROUP, seed=0)
        with pytest.raises(ValidationError, match="n_per_group"):
            CohortProfile(patient=gp, healthy=gp, n_per_group=MAX_N_PER_GROUP + 1, seed=0)
