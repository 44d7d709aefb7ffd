"""The signal types shared by every numpy stage of the pipeline.

Streams, labels, sessions and their windows live here; the grid enums,
the subject-id rule and `FeatureVector` are in `formats`, which loads no
numpy. Import each name from the module that defines it.

Sample positions are always integer indices into a stream; seconds only
appear as derived quantities (index / sample_rate_hz). All containers are
frozen and hold read-only arrays, so instances can be shared freely, and
a labelled window is a pair of views of a stream's arrays (`slice_segment`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, ValidationError
from .formats import Group, Placement, SegmentKind, TaskKind, _is_integer, check_subject_id

DEFAULT_SAMPLE_RATE_HZ = 128.0
GRAVITY_MS2 = 9.81


def _frozen_array(data, name: str) -> np.ndarray:
    """`data` as a read-only N x 3 float64 array. A read-only float64
    ndarray that owns its data is handed over and kept as it is; anything
    else is copied, so that no caller can write to a stream's samples and
    a strided view does not keep the rest of its base alive."""
    if (
        type(data) is np.ndarray
        and data.dtype == np.float64
        and data.flags.owndata
        and not data.flags.writeable
    ):
        arr = data
    else:
        arr = np.array(data, dtype=float)
        arr.setflags(write=False)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{name} must be an N x 3 array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SensorStream:
    """Tri-axial accelerometer (m/s^2) and gyroscope (deg/s) samples from
    one placement, on a shared uniform clock."""

    accel: np.ndarray
    gyro: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        object.__setattr__(self, "accel", _frozen_array(self.accel, "accel"))
        object.__setattr__(self, "gyro", _frozen_array(self.gyro, "gyro"))
        if self.accel.shape[0] != self.gyro.shape[0]:
            raise ValidationError(
                "accel and gyro sample counts differ: "
                f"{self.accel.shape[0]} vs {self.gyro.shape[0]}"
            )
        if self.accel.shape[0] < 1:
            raise ValidationError("stream must contain at least one sample")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValidationError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}"
            )
        # the last sample time must be a finite double, or times_s() overflows
        if not math.isfinite((self.n_samples - 1) / float(self.sample_rate_hz)):
            raise ValidationError(
                f"sample_rate_hz {self.sample_rate_hz} is too small for "
                f"{self.n_samples} samples: the last sample time overflows"
            )
        if not np.isfinite(self.accel).all():
            raise ValidationError("accel contains non-finite values")
        if not np.isfinite(self.gyro).all():
            raise ValidationError("gyro contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.accel.shape[0]

    def times_s(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The times of samples `start` to `stop` (by default, all), each
        the same double whatever range it is taken in."""
        stop = self.n_samples if stop is None else stop
        return np.arange(start, stop) / self.sample_rate_hz

    def __reduce__(self):
        # through the constructor: a stream read back is checked and read-only
        return type(self), (self.accel, self.gyro, self.sample_rate_hz)


@dataclass(frozen=True)
class SegmentLabel:
    """Manually labelled subtask boundaries for one task; `Session.labels`
    maps each task to its label.

    Each subtask starts where the one before it ends: the half-open windows
    [s1,e1) [e1,e2) [e2,e3) are non-empty, and the complete task is [s1,e3).
    Bounds against a concrete stream length are checked where a stream is
    at hand (session assembly).
    """

    s1: int
    e1: int
    e2: int
    e3: int

    def __post_init__(self):
        bounds = (self.s1, self.e1, self.e2, self.e3)
        if not all(map(_is_integer, bounds)):
            raise ValidationError(f"boundaries must be integers, got {bounds}")
        if self.s1 < 0:
            raise BoundaryError(f"s1 must be >= 0, got {self.s1}")
        if not self.s1 < self.e1 < self.e2 < self.e3:
            raise BoundaryError(f"each subtask window must be non-empty: {bounds}")

    def window(self, kind: SegmentKind) -> tuple[int, int]:
        """Half-open [start, end) sample window for one segment kind."""
        if kind is SegmentKind.COMPLETE:
            return self.s1, self.e3
        if kind is SegmentKind.SUB1:
            return self.s1, self.e1
        if kind is SegmentKind.SUB2:
            return self.e1, self.e2
        return self.e2, self.e3


@dataclass(frozen=True)
class Session:
    """One participant: metadata plus both placement streams and the task
    labels that index into them."""

    subject_id: str
    group: Group
    side: str
    streams: dict[Placement, SensorStream]
    labels: dict[TaskKind, SegmentLabel]

    def __post_init__(self):
        object.__setattr__(self, "streams", dict(self.streams))
        object.__setattr__(self, "labels", dict(self.labels))
        check_subject_id(self.subject_id)
        if not self.side:
            raise ValidationError(f"{self.subject_id}: side must be non-empty")
        if not self.streams:
            raise ValidationError(f"{self.subject_id}: session must hold at least one stream")
        rates = {s.sample_rate_hz for s in self.streams.values()}
        if len(rates) > 1:
            raise ValidationError(
                f"{self.subject_id}: streams disagree on sample rate: {sorted(rates)}"
            )
        for task, label in self.labels.items():
            for placement, stream in self.streams.items():
                if label.e3 > stream.n_samples:
                    raise BoundaryError(
                        f"{self.subject_id}: {task.value} label ends at {label.e3} but the "
                        f"{placement.value} stream has {stream.n_samples} samples"
                    )

    @property
    def sample_rate_hz(self) -> float:
        return next(iter(self.streams.values())).sample_rate_hz


def slice_segment(
    stream: SensorStream, label: SegmentLabel, kind: SegmentKind
) -> tuple[np.ndarray, np.ndarray]:
    """Cut one labelled window out of a stream as ``(accel, gyro)``.

    The label must end within the stream, as `Session` checks for each of
    its labels and streams. Both are read-only views of the stream's checked
    arrays, at its sample rate; nothing is copied or checked again.
    """
    start, end = label.window(kind)
    return stream.accel[start:end], stream.gyro[start:end]


def assemble_session(
    subject_id: str,
    group: Group,
    side: str,
    streams: dict[Placement, SensorStream],
    labels: dict[TaskKind, SegmentLabel],
) -> Session:
    """Build a cross-validated Session from parts; `labels` maps each task to its label."""
    return Session(subject_id=subject_id, group=group, side=side, streams=streams, labels=labels)
