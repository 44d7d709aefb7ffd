"""Core data model: streams, labels, sessions, slicing."""

import sys

import numpy as np
import pytest

from shoulderkin import BoundaryError, ValidationError
from shoulderkin.formats import FEATURE_GRID, FeatureVector, Group, Placement, SegmentKind, TaskKind
from shoulderkin.model import SegmentLabel, SensorStream, Session, assemble_session, slice_segment


def make_stream(n, rate=128.0, rng=None):
    if rng is None:
        rng = np.random.default_rng(0)
    return SensorStream(
        accel=rng.normal(0.0, 1.0, (n, 3)),
        gyro=rng.normal(0.0, 10.0, (n, 3)),
        sample_rate_hz=rate,
    )


def read_only(array):
    array.setflags(write=False)
    return array


def make_label(s1=0, e1=10, e2=20, e3=30):
    return SegmentLabel(s1=s1, e1=e1, e2=e2, e3=e3)


class TestSensorStream:
    def test_copies_and_freezes_input(self):
        accel = np.zeros((5, 3))
        gyro = np.zeros((5, 3))
        stream = SensorStream(accel=accel, gyro=gyro, sample_rate_hz=128.0)
        accel[0, 0] = 99.0
        assert stream.accel[0, 0] == 0.0
        with pytest.raises(ValueError):
            stream.accel[0, 0] = 1.0

    def test_takes_over_a_read_only_owning_float64_array(self):
        accel, gyro = read_only(np.zeros((5, 3))), read_only(np.ones((5, 3)))
        stream = SensorStream(accel=accel, gyro=gyro, sample_rate_hz=128.0)
        assert stream.accel is accel and stream.gyro is gyro

    @pytest.mark.parametrize(
        "accel",
        [
            np.zeros((5, 3)),
            read_only(np.zeros((5, 3), np.float32)),
            read_only(np.zeros((5, 3), ">f8")),
            read_only(np.zeros((10, 3))[::2]),
        ],
        ids=["writeable", "float32", "big-endian", "strided"],
    )
    def test_copies_any_other_array(self, accel):
        stream = SensorStream(accel=accel, gyro=np.zeros((5, 3)), sample_rate_hz=128.0)
        assert not np.shares_memory(stream.accel, accel)
        assert stream.accel.dtype == np.float64 and not stream.accel.flags.writeable

    def test_n_samples_and_times(self):
        stream = make_stream(9, rate=128.0)
        assert stream.n_samples == 9
        times = stream.times_s()
        assert times.shape == (9,)
        assert times[0] == 0.0
        assert np.isclose(times[1], 1.0 / 128.0)

    @pytest.mark.parametrize("rate", [128.0, 100.1, 3, 1e-300])
    def test_times_of_a_range_are_the_same_doubles(self, rate):
        stream = make_stream(1000, rate=rate)
        whole = stream.times_s()
        for start, stop in ((0, 1000), (0, 1), (511, 1000), (7, 7), (999, 1000)):
            assert stream.times_s(start, stop).tobytes() == whole[start:stop].tobytes()
        assert stream.times_s(300).tobytes() == whole[300:].tobytes()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError, match="accel and gyro sample counts differ: 4 vs 5"):
            SensorStream(accel=np.zeros((4, 3)), gyro=np.zeros((5, 3)), sample_rate_hz=128.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SensorStream(accel=np.zeros((0, 3)), gyro=np.zeros((0, 3)), sample_rate_hz=128.0)

    def test_rejects_nonfinite(self):
        accel = np.zeros((4, 3))
        accel[2, 1] = np.nan
        with pytest.raises(ValidationError, match="accel contains non-finite values"):
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

    def test_rejects_empty_window(self):
        with pytest.raises(ValidationError):
            SegmentLabel(s1=0, e1=0, e2=20, e3=30)

    def test_rejects_negative_start(self):
        with pytest.raises(ValidationError):
            make_label(s1=-1)

    def test_rejects_float_indices(self):
        with pytest.raises(ValidationError):
            SegmentLabel(s1=0.0, e1=10, e2=20, e3=30)

    @pytest.mark.parametrize(
        "bounds", [dict(s1=False), dict(s1=0, e1=True), dict(e3=np.bool_(True))]
    )
    def test_rejects_bool_indices(self, bounds):
        # True is an int, but write_labels would print `True`, which parse_labels rejects
        with pytest.raises(ValidationError, match="boundaries must be integers"):
            make_label(**bounds)


class TestSliceSegment:
    def test_slice_is_bit_exact_copy(self):
        rng = np.random.default_rng(7)
        stream = make_stream(50, rng=rng)
        label = make_label(s1=5, e1=12, e2=30, e3=44)
        accel, gyro = slice_segment(stream, label, SegmentKind.SUB2)
        # read-only views of the checked stream, not copies
        for window, whole in ((accel, stream.accel), (gyro, stream.gyro)):
            assert window.shape == (18, 3)
            assert np.array_equal(window, whole[12:30])
            assert np.shares_memory(window, whole)
            assert not window.flags.writeable


class TestSession:
    def build(self, n=60):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(n, rng=rng),
            Placement.ARM: make_stream(n, rng=rng),
        }
        labels = {task: make_label(0, 10, 20, 30) for task in TaskKind}
        return assemble_session("S01", Group.PATIENT, "left", streams, labels)

    def test_assemble_round_trip_fields(self):
        session = self.build()
        assert session.subject_id == "S01"
        assert session.group is Group.PATIENT
        assert session.side == "left"
        assert set(session.labels) == set(TaskKind)
        assert session.sample_rate_hz == 128.0

    def test_label_past_stream_end_rejected(self):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(25, rng=rng),
            Placement.ARM: make_stream(25, rng=rng),
        }
        with pytest.raises(BoundaryError):
            assemble_session("S01", Group.HEALTHY, "right", streams, {TaskKind.WH: make_label(e3=30)})

    def test_rate_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        streams = {
            Placement.WRIST: make_stream(40, rate=128.0, rng=rng),
            Placement.ARM: make_stream(40, rate=100.0, rng=rng),
        }
        with pytest.raises(ValidationError):
            assemble_session("S01", Group.HEALTHY, "right", streams, {TaskKind.WH: make_label()})


class TestFeatureVector:
    def test_field_names_match_matrix_order(self):
        assert FeatureVector.FIELD_NAMES == (
            "nmcp_a", "np_a", "sparc", "ldlj_a", "rav", "pi", "duration_s",
        )

    def test_the_grid_has_each_field_once_and_duration_at_no_placement(self):
        assert sorted(feature for feature, _, _ in FEATURE_GRID) == sorted(FeatureVector.FIELD_NAMES)
        unplaced = {feature: where for feature, _, where in FEATURE_GRID if where != tuple(Placement)}
        assert unplaced == {"duration_s": (None,)}
        assert FeatureVector.COUNT_NAMES == ("nmcp_a", "np_a")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            FeatureVector(nmcp_a=-1, np_a=0, sparc=-1.0, ldlj_a=-5.0,
                          rav=1.0, pi=1.0, duration_s=1.0)

    @pytest.mark.parametrize("counts", [(3.0, 0), (0, np.float64(2.0)), ("3", 0)])
    def test_rejects_non_integer_counts(self, counts):
        # a float count would be written as `3.0`, which read_matrix rejects
        with pytest.raises(ValidationError, match="counts must be integers"):
            FeatureVector(*counts, sparc=-1.0, ldlj_a=-5.0, rav=1.0, pi=1.0, duration_s=1.0)

    @pytest.mark.parametrize("counts", [(True, 0), (0, False), (np.bool_(True), 0)])
    def test_rejects_bool_counts(self, counts):
        # True is an int, but write_matrix would print `True`, which read_matrix rejects
        with pytest.raises(ValidationError, match="counts must be integers"):
            FeatureVector(*counts, sparc=-1.0, ldlj_a=-5.0, rav=1.0, pi=1.0, duration_s=1.0)

    def test_counts_end_at_the_largest_double(self):
        largest = int(sys.float_info.max)
        FeatureVector(largest, 0, sparc=-1.0, ldlj_a=-5.0, rav=1.0, pi=1.0, duration_s=1.0)
        with pytest.raises(ValidationError, match="np_a is larger than the largest double"):
            FeatureVector(0, largest + 1, sparc=-1.0, ldlj_a=-5.0, rav=1.0, pi=1.0, duration_s=1.0)

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
