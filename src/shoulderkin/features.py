"""The seven per-segment kinematic features and the cohort feature matrix.

Four smoothness measures (mean-crossing count, prominent-peak count,
spectral arc length, log dimensionless jerk), two intensity measures
(angular-velocity range and its product with the acceleration range), and
the segment duration. Each is a deterministic map from one labelled window
to a scalar. A session is extracted at a time: `session_windows` computes
each stream's norms once, cuts every present cell's window as views of
them, counts the prominent peaks of each placement's windows in one walk,
and returns a plain map from each cell to its window; `extract_all`
evaluates the whole set for one cell from its window.

The four smoothness kernels take a plain 1-D float array (a norm from
`dsp.euclidean_norm`) that the caller has checked to be finite; they check
only the lengths and durations that a short label window can break.
`extract_cohort` builds the matrix rows; their text format (`FeatureRow`,
`write_matrix`, `read_matrix`) is in `formats`, which loads no numpy.
Import each name from the module that defines it.
"""
from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dsp import euclidean_norm, fft_length, magnitude_spectrum
from .dsp import derivative as _derivative
from .errors import DegenerateSignalError, FeatureError, TooShortError, ValidationError
from .formats import FeatureRow, FeatureVector, Placement, SegmentKind, TaskKind, _is_integer
# perfbench/spans.py looks these two up in this module to trace them
from .formats import read_matrix, write_matrix  # noqa: F401
from .helper import in_order
from .ingest import walk_cohort
from .model import Session, slice_segment


# Highest SPARC zero-padding level: an FFT 2**8 = 256 times the shortest
# power of two that holds the segment. The reference SPARC of Balasubramanian
# et al. (JNER 2015) pads by 4 levels; each level doubles FFT time and memory.
SPARC_MAX_PAD_LEVEL = 8
# Longest SPARC transform, in points (about 6 KB per input sample at pad 8).
# A task within the profile bounds has under 2**16 samples: pad 4 fits.
SPARC_MAX_FFT_POINTS = 2**20


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
        pad = self.sparc_pad_level
        if not (_is_integer(pad) and 0 <= pad <= SPARC_MAX_PAD_LEVEL):
            raise ValidationError(
                f"sparc_pad_level must be an integer in [0, {SPARC_MAX_PAD_LEVEL}], got {pad}"
            )
        # an infinite minimum would refuse every segment's SPARC
        if not 0 < self.min_segment_s < math.inf:
            raise ValidationError(
                f"min_segment_s must be positive and finite, got {self.min_segment_s}"
            )


def mean_crossing_count(v: np.ndarray) -> int:
    """Number of times the 1-D signal `v` crosses its own mean.

    A crossing is a consecutive pair whose deviations from the mean have
    strictly opposite signs. Samples sitting exactly on the mean inherit
    the sign of the last strictly-signed sample, so touching the mean and
    returning to the same side counts nothing. Needs at least 2 samples.
    """
    n = len(v)
    if n < 2:
        raise TooShortError(f"mean crossings need >= 2 samples, got {n}")
    mean = v.sum() / n
    # A crossing is a nonzero sign of v - mean that differs from the last
    # nonzero one. fl(v - mean) is zero exactly when v == mean and otherwise
    # has the sign of v - mean, so comparing with the mean gives the same signs.
    above = v[v != mean] > mean
    return int(np.count_nonzero(above[1:] != above[:-1]))


def peak_count(v: np.ndarray, params: FeatureParams | None = None) -> int:
    """Number of peaks of the 1-D signal `v` whose prominence is at least h.

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

    Needs at least 3 samples. This is the one-window case of the walk that
    `session_windows` runs over all of a placement's windows at once.
    """
    params = params or FeatureParams()
    n = len(v)
    if n < 3:
        raise TooShortError(f"peak count needs >= 3 samples, got {n}")
    h = params.peak_prominence_frac * float(v.max() - v.min())
    return int(_prominent_peak_counts([v], np.array([h]))[0])


def _prominent_peak_counts(windows: list[np.ndarray], h: np.ndarray) -> np.ndarray:
    """`peak_count` of each window after its checks, with window i's threshold h[i].

    Every window holds at least 3 finite samples. All are counted in one
    walk, in O(total length) memory and no Python loop per peak or window.
    """
    # Join the windows with an +inf sample before, between and after them. A
    # run next to +inf is never a peak, and an +inf run is higher than any
    # peak, so every walk stops at the separator and each window is counted
    # as if alone. The separators between windows are themselves peaks, and
    # stay in the peak list as those stoppers; they are never counted.
    sep = np.array([np.inf])
    v = np.concatenate([sep, *(part for window in windows for part in (window, sep))])
    runs = v[np.concatenate(([True], v[1:] != v[:-1]))]
    rising = runs[1:] > runs[:-1]
    peaks = np.flatnonzero(rising[:-1] > rising[1:]) + 1
    k = len(peaks)
    if k == 0:
        return np.zeros(len(windows), dtype=np.intp)
    # separator j opens window j, so a peak's window is the number of
    # separators before it, less one
    window_of = np.searchsorted(np.flatnonzero(runs == np.inf), peaks) - 1
    limit = h[window_of]
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
    # of each half. Slot s stops once top[s] - low[s] >= limit[s].
    top = np.concatenate((heights, heights[::-1], [np.inf]))
    low = np.concatenate((gaps[:-1], gaps[:0:-1]))
    limit = np.concatenate((limit, limit[::-1]))
    reach = np.arange(-1, 2 * k)
    reach[0] = reach[k] = 2 * k
    # fl(p - x) is monotone in x, so p - max(left, right) >= h holds exactly
    # when p - left >= h and p - right >= h. Each side is decided on its own,
    # and a walk stops as soon as p - low >= h, or at a higher peak. Otherwise
    # it crosses the peak it reached and takes over that peak's reach and low,
    # so a long walk needs few rounds.
    walking = np.flatnonzero(top[:-1] - low < limit)
    while len(walking):
        nxt = reach[walking]
        crosses = top[nxt] <= top[walking]
        walking, nxt = walking[crosses], nxt[crosses]
        low[walking] = np.minimum(low[walking], low[nxt])
        reach[walking] = reach[nxt]
        walking = walking[top[walking] - low[walking] < limit[walking]]
    deep = top[:-1] - low >= limit
    # the right walk of peak i is slot 2k-1-i; separators never count
    counted = deep[:k] & deep[: k - 1 : -1] & (heights < np.inf)
    return np.bincount(window_of[counted], minlength=len(windows))


def spectral_arc_length(
    w_norm: np.ndarray, sample_rate_hz: float, params: FeatureParams | None = None
) -> float:
    """Negative arc length of the normalized magnitude spectrum (SPARC).

    The spectrum is normalized by its DC value, restricted to frequencies
    up to sparc_max_cutoff_hz, then trimmed to the span between the first
    and last bins whose normalized magnitude reaches sparc_amp_threshold
    (the adaptive cutoff of the published metric). The arc length of that
    curve, with the frequency axis rescaled to unit length, is returned
    negated: smoother movement gives a value closer to 0.

    `w_norm` is a 1-D signal sampled at `sample_rate_hz`, with at least 2
    samples and at least min_segment_s seconds (N / rate) of signal. Raises
    a degenerate-signal error when the DC component is zero, since the
    normalization is then undefined, when the selected bins span no
    frequency, since the frequency axis cannot then be rescaled, and when
    the padded transform would exceed SPARC_MAX_FFT_POINTS.
    """
    params = params or FeatureParams()
    n = len(w_norm)
    if n < 2:
        raise TooShortError(f"sparc needs >= 2 samples, got {n}")
    duration_s = n / sample_rate_hz
    if duration_s < params.min_segment_s:
        raise TooShortError(
            f"sparc needs >= {params.min_segment_s} s of signal, got {duration_s:.4f} s"
        )
    n_fft = fft_length(n, params.sparc_pad_level)
    if n_fft > SPARC_MAX_FFT_POINTS:
        raise DegenerateSignalError(
            f"sparc transform of {n_fft} points at pad level {params.sparc_pad_level} "
            f"exceeds the cap of {SPARC_MAX_FFT_POINTS} points"
        )
    spectrum = magnitude_spectrum(w_norm, sample_rate_hz, params.sparc_pad_level)
    dc = spectrum.magnitudes[0]
    if dc == 0.0:
        raise DegenerateSignalError("sparc is undefined: zero DC component (all-zero signal)")
    # the frequencies ascend, so the bins up to the cutoff are a prefix
    n_below = np.searchsorted(spectrum.freqs_hz, params.sparc_max_cutoff_hz, side="right")
    vhat = spectrum.magnitudes[:n_below] / dc
    above = np.flatnonzero(vhat >= params.sparc_amp_threshold)
    # vhat[0] is 1.0 by construction, so the selection is never empty
    first, last = above[0], above[-1] + 1
    if last - first < 2:
        return 0.0
    f_sel = spectrum.freqs_hz[first:last]
    v_sel = vhat[first:last]
    span = f_sel[-1] - f_sel[0]
    if not span > 0:
        # below about 1e-303 Hz the bin spacing underflows to 0
        raise DegenerateSignalError("sparc is undefined: the spectrum spans no frequency")
    df = (f_sel[1:] - f_sel[:-1]) / span
    dv = v_sel[1:] - v_sel[:-1]
    return -float(np.sqrt(df * df + dv * dv).sum())


def log_dimensionless_jerk(a_norm: np.ndarray, sample_rate_hz: float) -> float:
    """Negated natural log of the dimensionless squared-jerk integral.

    `a_norm` is a 1-D signal sampled at `sample_rate_hz`, with at least 3
    samples. With T the segment duration, j the numerical derivative of the
    signal and dt the sample period:

        -ln( T / max(signal)^2 * sum(j^2) * dt )

    Larger (less negative) means smoother. Three conventions follow from
    taking the signal to be the acceleration norm ||a||: the jerk is
    d||a||/dt, not ||da/dt||, so an acceleration that turns at a constant
    magnitude has no jerk; the peak is max ||a||, gravity included; and T
    is n / rate, not (n - 1) / rate. A minimum-jerk speed pulse sampled on
    T * rate + 1 points scores just below its continuous value
    -ln(120 / (7 * 1.875^2)), about -1.5844, and closer as the rate rises.

    For given samples the value depends on neither their amplitude nor
    the rate they are read at. The same movement sampled at another rate
    gives other samples, and another value: for the acceleration norm of
    a minimum-jerk pulse, which has a kink at each end, the value
    converges only as 1 / rate. Where amplitude or rate push peak^2,
    sum(j^2) or the ratio out of the normal, finite, positive doubles (a
    peak below about 1.5e-154 or a jerk near 1e154, or a rate such as
    1e-160, 1e300 or 7.5e15 Hz), it is computed
    from signal / peak at 1 Hz instead, where the ratio is a normal double
    for any signal that is not constant. That peak is rounded down to a
    power of two, so the scaling is exact. Constant signals and signals
    with zero peak are degenerate: the log has no value.
    """
    n = len(a_norm)
    if n < 3:
        raise TooShortError(f"dimensionless jerk needs >= 3 samples, got {n}")
    peak = float(np.max(a_norm))
    if peak == 0.0:
        raise DegenerateSignalError("dimensionless jerk is undefined: zero peak value")
    scale = peak * peak
    with np.errstate(over="ignore"):
        squares = float(np.sum(np.square(_derivative(a_norm, sample_rate_hz))))
    if _is_normal(scale) and _is_normal(squares):
        dt = 1.0 / sample_rate_hz
        ratio = n * dt / scale * (squares * dt)
        if _is_normal(ratio):
            return -math.log(ratio)
    if a_norm.min() == peak:
        raise DegenerateSignalError("dimensionless jerk is undefined: constant signal")
    # Scale by 2**-e, which is exact, so differences of an ulp of the peak
    # survive. The scaled peak m is in [0.5, 1), and a signal that is not
    # constant has a jerk of at least about 5e-17 at 1 Hz, so the ratio is
    # a normal double.
    m, e = math.frexp(peak)
    squares = float(np.sum(np.square(_derivative(np.ldexp(a_norm, -e), 1.0))))
    return -math.log(n / (m * m) * squares)


def _is_normal(x: float) -> bool:
    """True for a normal, finite, positive double; False for nan too."""
    return sys.float_info.min <= x < math.inf


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


class _Window(NamedTuple):
    """One cell's window: views of the stream's samples and norms."""

    accel: np.ndarray
    gyro: np.ndarray
    a_norm: np.ndarray
    w_norm: np.ndarray
    finite: bool  # both norms are finite over the window
    np_a: int | None  # its peak count, or None if not finite or under 3 samples


def session_windows(
    session: Session, params: FeatureParams | None = None
) -> dict[tuple[TaskKind, SegmentKind, Placement], _Window]:
    """Cut every present cell of `session` and count its prominent peaks.

    Returns a map from (task, segment, placement) to the cell's window, in
    grid order, holding views, not copies. A cell is present when the
    session has a label for its task and a stream for its placement.

    Each placement's two norms are computed once over the whole stream, and
    their finiteness checked once there; each window takes views of them.
    `slice_segment` is called once per present cell, in grid order. The peak
    count (`peak_count`) of every window whose acceleration norm is finite
    and has at least 3 samples comes from one walk over all such windows
    of its placement. Nothing is raised here for a cell: `extract_all`
    reports its faults.
    """
    params = params or FeatureParams()
    norms = {}
    # a finite sample above about 1e154 squares to inf; extract_all reports it
    with np.errstate(over="ignore"):
        for placement, stream in session.streams.items():
            a_norm, w_norm = euclidean_norm(stream.accel), euclidean_norm(stream.gyro)
            finite = bool(np.isfinite(a_norm).all() and np.isfinite(w_norm).all())
            norms[placement] = a_norm, w_norm, finite
    cells = {}
    for task in TaskKind:
        label = session.labels.get(task)
        if label is None:
            continue
        for kind in SegmentKind:
            start, end = label.window(kind)
            for placement in Placement:
                if placement not in session.streams:
                    continue
                accel, gyro = slice_segment(session.streams[placement], label, kind)
                a_norm, w_norm, finite = norms[placement]
                a_norm, w_norm = a_norm[start:end], w_norm[start:end]
                # a non-finite norm outside this window does not fail it
                finite = finite or bool(np.isfinite(a_norm).all() and np.isfinite(w_norm).all())
                cells[task, kind, placement] = _Window(accel, gyro, a_norm, w_norm, finite, None)
    # One walk per placement, not per session: the walk's working memory,
    # about 50 bytes a sample, is the largest transient of an extraction.
    for placement in session.streams:
        counted = [
            key
            for key, cell in cells.items()
            if key[2] is placement and cell.finite and len(cell.a_norm) >= 3
        ]
        windows = [cells[key].a_norm for key in counted]
        h = np.array([params.peak_prominence_frac * float(v.max() - v.min()) for v in windows])
        for key, count in zip(counted, _prominent_peak_counts(windows, h).tolist()):
            cells[key] = cells[key]._replace(np_a=count)
    return cells


def extract_all(
    session: Session,
    params: FeatureParams,
    cell: tuple[TaskKind, SegmentKind, Placement],
    window: _Window,
) -> FeatureVector:
    """Evaluate all seven features for one (task, segment, placement) cell.

    `window` is ``session_windows(session, params)[cell]``. Its peak count
    comes with it; a window too short for one goes to `peak_count`, which
    raises. The other features are computed here from the window's views.
    Feature failures (too short, degenerate) come back wrapped with the
    cell coordinates so batch callers can report precisely. Duration is
    the window's sample count over the session's rate.

    Finite samples can still overflow: one above about 1e154 squares to
    inf. numpy's overflow warning is silenced, and an inf norm in the
    window, or a feature that `FeatureVector` finds not finite, is a
    validation error naming the cell.
    """
    accel, gyro, a_norm, w_norm, finite, np_a = window
    rate = session.sample_rate_hz
    try:
        if not finite:
            raise ValidationError("series contains non-finite values")
        with np.errstate(over="ignore"):
            rav = angular_velocity_range(gyro)
            return FeatureVector(
                nmcp_a=mean_crossing_count(a_norm),
                np_a=peak_count(a_norm, params) if np_a is None else np_a,
                sparc=spectral_arc_length(w_norm, rate, params),
                ldlj_a=log_dimensionless_jerk(a_norm, rate),
                rav=rav,
                pi=power_index(accel, rav),
                duration_s=len(accel) / rate,
            )
    except (TooShortError, DegenerateSignalError) as err:
        raise FeatureError(session.subject_id, *cell, err) from err
    except ValidationError as err:
        where = "/".join(key.value for key in cell)
        raise ValidationError(f"{session.subject_id} {where}: {err}") from err


def extract_cohort(
    sessions, params: FeatureParams | None = None
) -> tuple[list[FeatureRow], list[FeatureError]]:
    """Evaluate the full (session x task x segment x placement) grid.

    Each session is cut and peak-counted once by `session_windows`, then
    each of its present cells evaluated by `extract_all`, in grid order.
    Failing cells are collected, not fatal: the returned failures list
    carries one FeatureError per cell that could not be computed, in that
    order; an invalid value (exit 4) ends the extraction at its cell. Rows
    are sorted stably by subject_id, so each session's rows stay in grid
    order (task, segment, placement).

    `sessions` is a cohort directory (a path, as `extract` passes it),
    walked by `ingest.walk_cohort` with `iter_cohort`'s checks and
    errors, or any iterable of sessions, such as `ingest.load_cohort`
    returns; `helper.in_order` decides which process extracts each.
    """
    params = params or FeatureParams()

    def work(session: Session) -> tuple[list[FeatureRow], list[FeatureError]]:
        return _extract_session(session, params)

    if isinstance(sessions, (str, os.PathLike)):
        results = walk_cohort(sessions, work)
    else:
        results = in_order(sessions, work)
    rows: list[FeatureRow] = []
    failures: list[FeatureError] = []
    with contextlib.closing(results):
        for session_rows, session_failures in results:
            rows += session_rows
            failures += session_failures
    rows.sort(key=lambda row: row.subject_id)
    return rows, failures


def _extract_session(
    session: Session, params: FeatureParams
) -> tuple[list[FeatureRow], list[FeatureError]]:
    """The rows of each present cell of `session`, and the errors of those that fail."""
    rows, failures = [], []
    for cell, window in session_windows(session, params).items():
        try:
            vector = extract_all(session, params, cell, window)
        except FeatureError as err:
            failures.append(err)
            continue
        rows.append(FeatureRow(session.subject_id, session.group, *cell, vector))
    return rows, failures
