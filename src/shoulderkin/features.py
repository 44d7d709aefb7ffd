"""The seven per-segment kinematic features and the cohort feature matrix.

Four smoothness measures (mean-crossing count, prominent-peak count,
spectral arc length, log dimensionless jerk), two intensity measures
(angular-velocity range and its product with the acceleration range), and
the segment duration. Each is a deterministic map from one labelled window
to a scalar; `extract_all` evaluates the whole set for one grid cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import ScalarSeries, euclidean_norm, magnitude_spectrum
from .dsp import derivative as _derivative
from .errors import DegenerateSignalError, FeatureError, TooShortError, ValidationError
from .ingest import format_float, parse_cell, read_lines, split_rows
from .model import (
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    Session,
    TaskKind,
    slice_segment,
)


# Highest SPARC zero-padding level: an FFT 2**8 = 256 times the shortest
# power of two that holds the segment. The reference SPARC of Balasubramanian
# et al. (JNER 2015) pads by 4 levels; each level doubles FFT time and memory.
SPARC_MAX_PAD_LEVEL = 8


@dataclass(frozen=True)
class FeatureParams:
    """Tunables for the two features that need thresholds.

    peak_prominence_frac
        Minimum peak prominence as a fraction of the segment's value range.
    sparc_amp_threshold, sparc_max_cutoff_hz, sparc_pad_level
        Adaptive-cutoff amplitude threshold, frequency ceiling, and
        zero-padding level of the spectral-arc-length computation.
    min_segment_s
        Shortest segment the spectral measure accepts.
    """

    peak_prominence_frac: float = 0.05
    sparc_amp_threshold: float = 0.05
    sparc_max_cutoff_hz: float = 10.0
    sparc_pad_level: int = 4
    min_segment_s: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.peak_prominence_frac < 1.0:
            raise ValidationError(
                f"peak_prominence_frac must be in (0,1), got {self.peak_prominence_frac}"
            )
        if not 0.0 < self.sparc_amp_threshold < 1.0:
            raise ValidationError(
                f"sparc_amp_threshold must be in (0,1), got {self.sparc_amp_threshold}"
            )
        if not self.sparc_max_cutoff_hz > 0:
            raise ValidationError(
                f"sparc_max_cutoff_hz must be positive, got {self.sparc_max_cutoff_hz}"
            )
        if self.sparc_pad_level not in range(SPARC_MAX_PAD_LEVEL + 1):
            raise ValidationError(
                f"sparc_pad_level must be an integer in [0, {SPARC_MAX_PAD_LEVEL}], "
                f"got {self.sparc_pad_level}"
            )
        if not self.min_segment_s > 0:
            raise ValidationError(f"min_segment_s must be positive, got {self.min_segment_s}")


def mean_crossing_count(a_norm: ScalarSeries) -> int:
    """Number of times the signal crosses its own mean.

    A crossing is a consecutive pair whose deviations from the mean have
    strictly opposite signs. Samples sitting exactly on the mean inherit
    the sign of the last strictly-signed sample, so touching the mean and
    returning to the same side counts nothing.
    """
    n = len(a_norm)
    if n < 2:
        raise TooShortError(f"mean crossings need >= 2 samples, got {n}")
    dev = a_norm.values - a_norm.values.sum() / n
    signs = np.sign(dev).astype(np.int64)
    # forward-fill zeros with the last nonzero sign; leading zeros stay 0
    nz = np.where(signs != 0, np.arange(n), -1)
    last = np.maximum.accumulate(nz)
    filled = np.where(last >= 0, signs[np.maximum(last, 0)], 0)
    return int(np.count_nonzero(filled[:-1] * filled[1:] < 0))


def peak_count(a_norm: ScalarSeries, params: FeatureParams | None = None) -> int:
    """Number of peaks whose prominence is at least h.

    h is peak_prominence_frac times the segment's value range, which keeps
    sensor-noise ripples out of the count. A constant segment has no peaks.

    - A peak is an interior run of equal samples that is higher than both
      neighbouring runs, so a plateau counts once and a run touching the
      first or last sample never counts.
    - On each side of a peak, its base is the minimum of the samples up to
      the nearest strictly higher sample, or up to the edge of the series.
      An equal peak does not stop this walk.
    - The peak counts if ``peak - max(left_base, right_base) >= h``, in
      floating point as written.
    """
    params = params or FeatureParams()
    n = len(a_norm)
    if n < 3:
        raise TooShortError(f"peak count needs >= 3 samples, got {n}")
    v = a_norm.values
    spread = float(v.max() - v.min())
    if spread == 0.0:
        return 0
    return _prominent_peak_count(v, params.peak_prominence_frac * spread)


def _prominent_peak_count(v: np.ndarray, h: float) -> int:
    """`peak_count` after its checks, in O(n) memory and no Python loop per peak."""
    runs = v[np.concatenate(([True], v[1:] != v[:-1]))]
    rising = runs[1:] > runs[:-1]
    peaks = np.flatnonzero(rising[:-1] > rising[1:]) + 1
    k = len(peaks)
    if k == 0:
        return 0
    # gaps[i] is the lowest run between peaks i-1 and i; gaps[0] and gaps[k]
    # are the lowest runs between the outer peaks and the edges
    gaps = np.minimum.reduceat(runs, np.concatenate(([0], peaks + 1)))
    heights = runs[peaks]
    # One walk per peak and side: slots [0, k) walk left over the peaks in
    # order, slots [k, 2k) walk right as left walks over the mirrored peaks.
    # Slot 2k is the edge, higher than any peak. Slot s has walked over the
    # peaks strictly between s and reach[s], none higher than top[s], and
    # low[s] is the lowest gap it has passed. Each walk starts with the one
    # gap before slot s, reaching peak s-1, or the edge for the first slot
    # of each half.
    top = np.concatenate((heights, heights[::-1], [np.inf]))
    low = np.concatenate((gaps[:-1], gaps[:0:-1]))
    reach = np.arange(-1, 2 * k)
    reach[0] = reach[k] = 2 * k
    # fl(p - x) is monotone in x, so p - max(left, right) >= h holds exactly
    # when p - left >= h and p - right >= h. Each side is decided on its own,
    # and a walk stops as soon as p - low >= h, or at a higher peak. Otherwise
    # it crosses the peak it reached and takes over that peak's reach and low,
    # so a long walk needs few rounds.
    walking = np.flatnonzero(top[:-1] - low < h)
    while len(walking):
        nxt = reach[walking]
        crosses = top[nxt] <= top[walking]
        walking, nxt = walking[crosses], nxt[crosses]
        low[walking] = np.minimum(low[walking], low[nxt])
        reach[walking] = reach[nxt]
        walking = walking[top[walking] - low[walking] < h]
    deep = top[:-1] - low >= h
    # the right walk of peak i is slot 2k-1-i
    return int(np.count_nonzero(deep[:k] & deep[: k - 1 : -1]))


def spectral_arc_length(w_norm: ScalarSeries, params: FeatureParams | None = None) -> float:
    """Negative arc length of the normalized magnitude spectrum (SPARC).

    The spectrum is normalized by its DC value, restricted to frequencies
    up to sparc_max_cutoff_hz, then trimmed to the span between the first
    and last bins whose normalized magnitude reaches sparc_amp_threshold
    (the adaptive cutoff of the published metric). The arc length of that
    curve, with the frequency axis rescaled to unit length, is returned
    negated: smoother movement gives a value closer to 0.

    Raises a degenerate-signal error when the DC component is zero, since
    the normalization is then undefined.
    """
    params = params or FeatureParams()
    n = len(w_norm)
    if n < 2:
        raise TooShortError(f"sparc needs >= 2 samples, got {n}")
    if w_norm.duration_s < params.min_segment_s:
        raise TooShortError(
            f"sparc needs >= {params.min_segment_s} s of signal, got {w_norm.duration_s:.4f} s"
        )
    spectrum = magnitude_spectrum(w_norm, params.sparc_pad_level)
    dc = spectrum.magnitudes[0]
    if dc == 0.0:
        raise DegenerateSignalError("sparc is undefined: zero DC component (all-zero signal)")
    vhat = spectrum.magnitudes / dc
    freqs = spectrum.freqs_hz
    below_cutoff = freqs <= params.sparc_max_cutoff_hz
    vhat = vhat[below_cutoff]
    freqs = freqs[below_cutoff]
    above = np.nonzero(vhat >= params.sparc_amp_threshold)[0]
    # vhat[0] is 1.0 by construction, so the selection is never empty
    sel = slice(above[0], above[-1] + 1)
    f_sel = freqs[sel]
    v_sel = vhat[sel]
    if len(f_sel) < 2:
        return 0.0
    span = f_sel[-1] - f_sel[0]
    arc = np.sum(np.sqrt((np.diff(f_sel) / span) ** 2 + np.diff(v_sel) ** 2))
    return -float(arc)


def log_dimensionless_jerk(a_norm: ScalarSeries) -> float:
    """Negated natural log of the dimensionless squared-jerk integral.

    With T the segment duration, j the numerical derivative of the signal
    and dt the sample period:

        -ln( T / max(signal)^2 * sum(j^2) * dt )

    Larger (less negative) means smoother. Constant signals (zero jerk)
    and signals with zero peak are degenerate: the log has no value.
    """
    n = len(a_norm)
    if n < 3:
        raise TooShortError(f"dimensionless jerk needs >= 3 samples, got {n}")
    peak = float(np.max(a_norm.values))
    if peak == 0.0:
        raise DegenerateSignalError("dimensionless jerk is undefined: zero peak value")
    jerk = _derivative(a_norm).values
    dt = 1.0 / a_norm.sample_rate_hz
    jerk_integral = float(np.sum(jerk * jerk)) * dt
    if jerk_integral == 0.0:
        raise DegenerateSignalError("dimensionless jerk is undefined: constant signal")
    duration = n * dt
    return -math.log(duration / (peak * peak) * jerk_integral)


def _mean_axis_range(samples: np.ndarray) -> float:
    """Mean over the columns of each column's max-minus-min."""
    # Reducing along the rows of the transposed copy is about ten times
    # faster than reducing down the strided columns of an N x 3 window.
    axes = samples.T.copy()
    return float((axes.max(axis=1) - axes.min(axis=1)).sum()) / len(axes)


def angular_velocity_range(gyro: np.ndarray) -> float:
    """Mean over the three axes of each axis's max-minus-min, in deg/s."""
    return _mean_axis_range(gyro)


def power_index(accel: np.ndarray, rav: float) -> float:
    """Mean per-axis acceleration range times the angular-velocity range `rav`."""
    return _mean_axis_range(accel) * rav


def segment_duration(start: int, end: int, sample_rate_hz: float) -> float:
    """Window length in seconds: (end - start) / rate, exactly."""
    return (end - start) / sample_rate_hz


def extract_all(
    session: Session,
    task: TaskKind,
    kind: SegmentKind,
    placement: Placement,
    params: FeatureParams | None = None,
) -> FeatureVector:
    """Evaluate all seven features for one (task, segment, placement) cell.

    The segment is sliced once and both norms computed once; feature
    failures (too short, degenerate) come back wrapped with the cell
    coordinates so batch callers can report precisely. Duration depends
    only on the label window, never on the placement.

    Finite samples can still overflow: one above about 1e154 squares to
    inf. numpy's overflow warning is silenced, and the inf is rejected by
    `ScalarSeries` or `FeatureVector` as a validation error naming the cell.
    """
    params = params or FeatureParams()
    label = session.labels.get(task)
    if label is None:
        raise ValidationError(f"{session.subject_id} has no label for task {task.value}")
    stream = session.streams.get(placement)
    if stream is None:
        raise ValidationError(f"{session.subject_id} has no {placement.value} stream")
    segment = slice_segment(stream, label, kind)
    rate = segment.sample_rate_hz
    try:
        with np.errstate(over="ignore"):
            a_norm = euclidean_norm(segment.accel, rate)
            w_norm = euclidean_norm(segment.gyro, rate)
            start, end = label.window(kind)
            rav = angular_velocity_range(segment.gyro)
            return FeatureVector(
                nmcp_a=mean_crossing_count(a_norm),
                np_a=peak_count(a_norm, params),
                sparc=spectral_arc_length(w_norm, params),
                ldlj_a=log_dimensionless_jerk(a_norm),
                rav=rav,
                pi=power_index(segment.accel, rav),
                duration_s=segment_duration(start, end, rate),
            )
    except (TooShortError, DegenerateSignalError) as err:
        raise FeatureError(session.subject_id, task, kind, placement, err) from err
    except ValidationError as err:
        cell = f"{task.value}/{kind.value}/{placement.value}"
        raise ValidationError(f"{session.subject_id} {cell}: {err}") from err


@dataclass(frozen=True)
class FeatureRow:
    """One feature-matrix row: a cell's coordinates plus its values."""

    subject_id: str
    group: Group
    task: TaskKind
    segment: SegmentKind
    placement: Placement
    features: FeatureVector


MATRIX_COLUMNS = (
    "subject_id",
    "group",
    "task",
    "segment",
    "placement",
) + FeatureVector.FIELD_NAMES
MATRIX_HEADER = ",".join(MATRIX_COLUMNS)

_TASK_ORDER = {task: i for i, task in enumerate(TaskKind)}
_SEGMENT_ORDER = {kind: i for i, kind in enumerate(SegmentKind)}
_PLACEMENT_ORDER = {placement: i for i, placement in enumerate(Placement)}


def _row_sort_key(row: FeatureRow):
    return (
        row.subject_id,
        _TASK_ORDER[row.task],
        _SEGMENT_ORDER[row.segment],
        _PLACEMENT_ORDER[row.placement],
    )


def extract_cohort(
    sessions, params: FeatureParams | None = None
) -> tuple[list[FeatureRow], list[FeatureError]]:
    """Evaluate the full (session x task x segment x placement) grid.

    `sessions` is any iterable and is consumed once, so a generator such
    as `ingest.iter_cohort` is walked one session at a time and an error
    it raises ends the extraction. Failing cells are collected, not
    fatal: the returned failures list carries one FeatureError per cell
    that could not be computed. Row order is fixed by sorting on
    (subject_id, task, segment, placement) regardless of evaluation order.
    """
    params = params or FeatureParams()
    rows: list[FeatureRow] = []
    failures: list[FeatureError] = []
    for session in sessions:
        for task in TaskKind:
            if task not in session.labels:
                continue
            for kind in SegmentKind:
                for placement in Placement:
                    if placement not in session.streams:
                        continue
                    try:
                        vector = extract_all(session, task, kind, placement, params)
                    except FeatureError as err:
                        failures.append(err)
                        continue
                    rows.append(
                        FeatureRow(
                            subject_id=session.subject_id,
                            group=session.group,
                            task=task,
                            segment=kind,
                            placement=placement,
                            features=vector,
                        )
                    )
    rows.sort(key=_row_sort_key)
    return rows, failures


def write_matrix(rows) -> bytes:
    """Serialize feature rows as the documented CSV, floats via `format_float`."""
    lines = [MATRIX_HEADER]
    for row in rows:
        fv = row.features
        lines.append(
            ",".join(
                (
                    row.subject_id,
                    row.group.value,
                    row.task.value,
                    row.segment.value,
                    row.placement.value,
                    str(fv.nmcp_a),
                    str(fv.np_a),
                    format_float(fv.sparc),
                    format_float(fv.ldlj_a),
                    format_float(fv.rav),
                    format_float(fv.pi),
                    format_float(fv.duration_s),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# how read_matrix converts each cell after the subject id
_MATRIX_CONVERTERS = (Group, TaskKind, SegmentKind, Placement, int, int) + (float,) * 5


def read_matrix(path) -> list[FeatureRow]:
    """Parse a feature-matrix CSV written by `write_matrix`.

    Each subject is in one group and each of its cells on one row; a
    repeated cell or a subject in both groups is a validation error
    naming the line.
    """
    lines = read_lines(path, MATRIX_HEADER)
    rows: list[FeatureRow] = []
    group_of: dict[str, Group] = {}
    rows_seen: set[tuple] = set()
    for line_no, cells in split_rows(lines[1:], len(MATRIX_COLUMNS), path):
        subject = cells[0]
        group, task, segment, placement, *values = [
            parse_cell(convert, cell, column, path, line_no)
            for convert, cell, column in zip(_MATRIX_CONVERTERS, cells[1:], MATRIX_COLUMNS[1:])
        ]
        try:
            vector = FeatureVector(*values)
        except ValidationError as err:
            raise ValidationError(f"{path}:{line_no}: {err}") from None
        if group_of.setdefault(subject, group) is not group:
            raise ValidationError(
                f"{path}:{line_no}: subject {subject!r} is in both the "
                f"{group_of[subject].value} and the {group.value} group"
            )
        key = (subject, task, segment, placement)
        if key in rows_seen:
            raise ValidationError(
                f"{path}:{line_no}: repeated row for {subject} "
                f"{task.value}/{segment.value}/{placement.value}"
            )
        rows_seen.add(key)
        rows.append(FeatureRow(subject, group, task, segment, placement, vector))
    return rows
