"""Core data model: streams, labels, sessions, slicing."""

import numpy as np
import pytest

from shoulderkin import BoundaryError, ValidationError
from shoulderkin.model import (
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    SegmentLabel,
    SensorStream,
    Session,
    TaskKind,
    assemble_session,
    slice_segment,
)


def make_stream(n, rate=128.0, rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    return SensorStream(
        accel=rng.normal(0.0, 1.0, (n, 3)),
        gyro=rng.normal(0.0, 10.0, (n, 3)),
        sample_rate_hz=rate,
    )


def make_label(task=TaskKind.WH, s1=0, e1=10, e2=20, e3=30):
    return SegmentLabel(task=task, s1=s1, e1=e1, s2=e1, e2=e2, s3=e2, e3=e3)


class TestSensorStream:
    def test_copies_and_freezes_input(self):
        accel = np.zeros((5, 3))
        gyro = np.zeros((5, 3))
        stream = SensorStream(accel=accel, gyro=gyro, sample_rate_hz=128.0)
        accel[0, 0] = 99.0
        assert stream.accel[0, 0] == 0.0
        with pytest.raises(ValueError):
            stream.accel[0, 0] = 1.0

    def test_n_samples_and_times(self):
        stream = make_stream(9, rate=128.0)
        assert stream.n_samples == 9
        times = stream.times_s()
        assert times.shape == (9,)
        assert times[0] == 0.0
        assert np.isclose(times[1], 1.0 / 128.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            SensorStream(accel=np.zeros((4, 3)), gyro=np.zeros((5, 3)), sample_rate_hz=128.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SensorStream(accel=np.zeros((0, 3)), gyro=np.zeros((0, 3)), sample_rate_hz=128.0)

    def test_rejects_nonfinite(self):
        accel = np.zeros((4, 3))
        accel[2, 1] = np.nan
        with pytest.raises(ValidationError):
            SensorStream(accel=accel, gyro=np.zeros((4, 3)), sample_rate_hz=128.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            make_stream(4, rate=0.0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValidationError, match="positive and finite"):
            make_stream(4, rate=rate)

    def test_rejects_rate_whose_last_sample_time_overflows(self):
        with pytest.raises(ValidationError, match="overflows"):
            make_stream(3, rate=1e-310)
        # one sample sits at t = 0 whatever the rate
        assert make_stream(1, rate=1e-310).times_s().tolist() == [0.0]
        assert np.isfinite(make_stream(3, rate=1e-300).times_s()).all()


class TestSegmentLabel:
    def test_windows_are_half_open_and_contiguous(self):
        label = make_label(s1=3, e1=10, e2=25, e3=40)
        assert label.window(SegmentKind.COMPLETE) == (3, 40)
        assert label.window(SegmentKind.SUB1) == (3, 10)
        assert label.window(SegmentKind.SUB2) == (10, 25)
        assert label.window(SegmentKind.SUB3) == (25, 40)

    def test_rejects_gap_between_windows(self):
        with pytest.raises(ValidationError):
            SegmentLabel(task=TaskKind.WH, s1=0, e1=10, s2=11, e2=20, s3=20, e3=30)

    def test_rejects_empty_window(self):
        with pytest.raises(ValidationError):
            SegmentLabel(task=TaskKind.WH, s1=0, e1=0, s2=0, e2=20, s3=20, e3=30)

    def test_rejects_negative_start(self):
        with pytest.raises(ValidationError):
            make_label(s1=-1)

    def test_rejects_float_indices(self):
        with pytest.raises(ValidationError):
            SegmentLabel(task=TaskKind.WH, s1=0.0, e1=10, s2=10, e2=20, s3=20, e3=30)


class TestSliceSegment:
    def test_slice_is_bit_exact_copy(self):
        rng = np.random.default_rng(7)
        stream = make_stream(50, rng=rng)
        label = make_label(s1=5, e1=12, e2=30, e3=44)
        sub2 = slice_segment(stream, label, SegmentKind.SUB2)
        assert sub2.n_samples == 18
        assert np.array_equal(sub2.accel, stream.accel[12:30])
        assert np.array_equal(sub2.gyro, stream.gyro[12:30])
        assert sub2.sample_rate_hz == stream.sample_rate_hz

    def test_out_of_range_label_raises_boundary(self):
        stream = make_stream(20)
        label = make_label(e3=30)
        with pytest.raises(BoundaryError):
            slice_segment(stream, label, SegmentKind.COMPLETE)

    def test_boundary_error_names_task_and_kind(self):
        stream = make_stream(20)
        label = make_label(task=TaskKind.POH, e3=30)
        with pytest.raises(BoundaryError, match="POH"):
            slice_segment(stream, label, SegmentKind.SUB3)


class TestSession:
    def build(self, n=60):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(n, rng=rng),
            Placement.ARM: make_stream(n, rng=rng),
        }
        labels = [make_label(task, 0, 10, 20, 30) for task in TaskKind]
        return assemble_session("S01", Group.PATIENT, "left", streams, labels)

    def test_assemble_round_trip_fields(self):
        session = self.build()
        assert session.subject_id == "S01"
        assert session.group is Group.PATIENT
        assert session.side == "left"
        assert set(session.labels) == set(TaskKind)
        assert session.sample_rate_hz == 128.0

    def test_duplicate_task_label_rejected(self):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(40, rng=rng),
            Placement.ARM: make_stream(40, rng=rng),
        }
        labels = [make_label(TaskKind.WH), make_label(TaskKind.WH)]
        with pytest.raises(ValidationError):
            assemble_session("S01", Group.PATIENT, "left", streams, labels)

    def test_label_past_stream_end_rejected(self):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(25, rng=rng),
            Placement.ARM: make_stream(25, rng=rng),
        }
        with pytest.raises(BoundaryError):
            assemble_session("S01", Group.HEALTHY, "right", streams, [make_label(e3=30)])

    def test_rate_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(40, rate=128.0, rng=rng),
            Placement.ARM: make_stream(40, rate=100.0, rng=rng),
        }
        with pytest.raises(ValidationError):
            assemble_session("S01", Group.HEALTHY, "right", streams, [make_label()])


class TestFeatureVector:
    def test_field_names_match_matrix_order(self):
        assert FeatureVector.FIELD_NAMES == (
            "nmcp_a", "np_a", "sparc", "ldlj_a", "rav", "pi", "duration_s",
        )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            FeatureVector(nmcp_a=-1, np_a=0, sparc=-1.0, ldlj_a=-5.0,
                          rav=1.0, pi=1.0, duration_s=1.0)

    @pytest.mark.parametrize("counts", [(3.0, 0), (0, np.float64(2.0)), ("3", 0)])
    def test_rejects_non_integer_counts(self, counts):
        # a float count would be written as `3.0`, which read_matrix rejects
        with pytest.raises(ValidationError, match="counts must be integers"):
            FeatureVector(*counts, sparc=-1.0, ldlj_a=-5.0, rav=1.0, pi=1.0, duration_s=1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            FeatureVector(nmcp_a=0, np_a=0, sparc=-1.0, ldlj_a=-5.0,
                          rav=1.0, pi=1.0, duration_s=0.0)


class TestEnums:
    def test_wire_values(self):
        assert [t.value for t in TaskKind] == ["WH", "WUB", "WLB", "POH", "ROP"]
        assert [k.value for k in SegmentKind] == ["complete", "sub1", "sub2", "sub3"]
        assert [p.value for p in Placement] == ["wrist", "arm"]
        assert [g.value for g in Group] == ["patient", "healthy"]
