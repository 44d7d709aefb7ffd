"""Domain types shared by every stage of the pipeline.

Sample positions are always integer indices into a stream; seconds only
appear as derived quantities (index / sample_rate_hz). All containers are
frozen and hold read-only arrays, so instances can be shared freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BoundaryError, ValidationError

DEFAULT_SAMPLE_RATE_HZ = 128.0
GRAVITY_MS2 = 9.81


class TaskKind(Enum):
    """The five shoulder tasks, in protocol order."""

    WH = "WH"
    WUB = "WUB"
    WLB = "WLB"
    POH = "POH"
    ROP = "ROP"


class SegmentKind(Enum):
    """A scoring window within one task: the whole task or one subtask."""

    COMPLETE = "complete"
    SUB1 = "sub1"
    SUB2 = "sub2"
    SUB3 = "sub3"


class Placement(Enum):
    """Which limb segment the sensor was strapped to."""

    WRIST = "wrist"
    ARM = "arm"


class Group(Enum):
    PATIENT = "patient"
    HEALTHY = "healthy"


def _frozen_array(data, name: str, dtype=float) -> np.ndarray:
    arr = np.array(data, dtype=dtype)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{name} must be an N x 3 array, got shape {arr.shape}")
    arr.setflags(write=False)
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

    def times_s(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz


@dataclass(frozen=True)
class SegmentLabel:
    """Manually labelled subtask boundaries for one task.

    The three subtask windows are half-open, contiguous, and non-empty:
    [s1,e1) [s2,e2) [s3,e3) with e1 = s2 and e2 = s3. The complete-task
    window is their union [s1,e3). Bounds against a concrete stream length
    are checked where a stream is at hand (slicing, session assembly).
    """

    task: TaskKind
    s1: int
    e1: int
    s2: int
    e2: int
    s3: int
    e3: int

    def __post_init__(self):
        bounds = (self.s1, self.e1, self.s2, self.e2, self.s3, self.e3)
        if any(not isinstance(b, (int, np.integer)) for b in bounds):
            raise ValidationError(f"{self.task.value}: boundaries must be integers, got {bounds}")
        if self.s1 < 0:
            raise BoundaryError(f"{self.task.value}: s1 must be >= 0, got {self.s1}")
        if not (self.s1 < self.e1 and self.s2 < self.e2 and self.s3 < self.e3):
            raise BoundaryError(f"{self.task.value}: each subtask window must be non-empty: {bounds}")
        if self.e1 != self.s2 or self.e2 != self.s3:
            raise BoundaryError(
                f"{self.task.value}: subtasks must be contiguous (e1=s2, e2=s3), got {bounds}"
            )

    def window(self, kind: SegmentKind) -> tuple[int, int]:
        """Half-open [start, end) sample window for one segment kind."""
        if kind is SegmentKind.COMPLETE:
            return self.s1, self.e3
        if kind is SegmentKind.SUB1:
            return self.s1, self.e1
        if kind is SegmentKind.SUB2:
            return self.s2, self.e2
        return self.s3, self.e3


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
        if not self.subject_id:
            raise ValidationError("subject_id must be non-empty")
        if not self.side:
            raise ValidationError(f"{self.subject_id}: side must be non-empty")
        rates = {s.sample_rate_hz for s in self.streams.values()}
        if len(rates) > 1:
            raise ValidationError(
                f"{self.subject_id}: streams disagree on sample rate: {sorted(rates)}"
            )
        for task, label in self.labels.items():
            if label.task is not task:
                raise ValidationError(
                    f"{self.subject_id}: label keyed {task.value} describes {label.task.value}"
                )
            for placement, stream in self.streams.items():
                if label.e3 > stream.n_samples:
                    raise BoundaryError(
                        f"{self.subject_id}: {task.value} label ends at {label.e3} but the "
                        f"{placement.value} stream has {stream.n_samples} samples"
                    )

    @property
    def sample_rate_hz(self) -> float:
        return next(iter(self.streams.values())).sample_rate_hz


@dataclass(frozen=True)
class FeatureVector:
    """The seven per-segment features.

    Construction requires integer counts and every field finite; degenerate
    signals must be rejected with an error before this point, never smuggled
    through as NaN.
    """

    nmcp_a: int
    np_a: int
    sparc: float
    ldlj_a: float
    rav: float
    pi: float
    duration_s: float

    def __post_init__(self):
        counts = (self.nmcp_a, self.np_a)
        if any(not isinstance(c, (int, np.integer)) for c in counts):
            raise ValidationError(f"counts must be integers, got {counts}")
        if self.nmcp_a < 0 or self.np_a < 0:
            raise ValidationError("counts must be non-negative")
        if not self.duration_s > 0:
            raise ValidationError(f"duration_s must be positive, got {self.duration_s}")
        for name in ("sparc", "ldlj_a", "rav", "pi", "duration_s"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} is not finite")

    FIELD_NAMES = ("nmcp_a", "np_a", "sparc", "ldlj_a", "rav", "pi", "duration_s")


def slice_segment(stream: SensorStream, label: SegmentLabel, kind: SegmentKind) -> SensorStream:
    """Cut one labelled window out of a stream.

    The result shares the parent's sample rate and its values bit for bit;
    nothing is rescaled or re-zeroed.
    """
    start, end = label.window(kind)
    if end > stream.n_samples:
        raise BoundaryError(
            f"{label.task.value}/{kind.value}: window [{start},{end}) exceeds "
            f"stream length {stream.n_samples}"
        )
    return SensorStream(
        accel=stream.accel[start:end],
        gyro=stream.gyro[start:end],
        sample_rate_hz=stream.sample_rate_hz,
    )


def assemble_session(
    subject_id: str,
    group: Group,
    side: str,
    streams: dict[Placement, SensorStream],
    labels,
) -> Session:
    """Build a cross-validated Session from parts.

    ``labels`` is any iterable of SegmentLabel; a task appearing twice is
    rejected rather than silently last-one-wins.
    """
    by_task: dict[TaskKind, SegmentLabel] = {}
    for label in labels:
        if label.task in by_task:
            raise ValidationError(f"{subject_id}: duplicate label for task {label.task.value}")
        by_task[label.task] = label
    return Session(subject_id=subject_id, group=group, side=side, streams=dict(streams), labels=by_task)
