"""The seven per-segment kinematic features and the cohort feature matrix.

Four smoothness measures (mean-crossing count, prominent-peak count,
spectral arc length, log dimensionless jerk), two intensity measures
(angular-velocity range and its product with the acceleration range), and
the segment duration. Each is a deterministic map from one labelled window
to a scalar. A session is extracted at a time: `session_windows` computes
each stream's norms once, the prominent peaks, the window extremes and
the jerk sums of each placement's windows in array passes over all of
them, then SPARC, LDLJ-A and the mean crossings window by window, and
returns a plain map from each cell to its values or its error;
`extract_all` builds one cell's `FeatureVector`, or raises its error.

Each feature has one implementation. SPARC's is `spectral_arc_length`
and NMCP-A's `mean_crossing_count`, which extraction calls once per
window: the FFT is one per window anyway, and a window's mean crossings
cost less counted alone than in a pass. NP-A, LDLJ-A, RAV and PI are
kernels over many windows at once, bit for bit what the feature gives a
window alone, and their one-window functions (`peak_count`,
`log_dimensionless_jerk`, `angular_velocity_range`, `power_index`) are
the one-window case. The four smoothness functions
take a plain 1-D float array (a norm from `dsp.euclidean_norm`) that the
caller has checked to be finite; they check only the lengths and
durations that a short label window can break.
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

from .dsp import derivative, euclidean_norm, fft_length, magnitude_spectrum
from .errors import (
    DegenerateSignalError,
    FeatureError,
    ShoulderKinError,
    TooShortError,
    ValidationError,
)
from .formats import FeatureRow, FeatureVector, Placement, SegmentKind, TaskKind, _is_integer
# perfbench/spans.py looks these two up in this module to trace them
from .formats import read_matrix, write_matrix  # noqa: F401
from .helper import in_order
from .ingest import walk_cohort
from .model import SensorStream, Session, slice_segment


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

    Needs at least 3 samples.
    """
    params = params or FeatureParams()
    n = len(v)
    if n < 3:
        raise TooShortError(f"peak count needs >= 3 samples, got {n}")
    peak, low = _window_extrema(v, [0], [n])
    h = params.peak_prominence_frac * (peak - low)
    return int(_prominent_peak_counts(_join([v]).v, h)[0])


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
    magnitudes, freqs = spectrum.magnitudes, spectrum.freqs_hz
    del spectrum
    dc = magnitudes[0]
    if dc == 0.0:
        raise DegenerateSignalError("sparc is undefined: zero DC component (all-zero signal)")
    # the frequencies ascend, so the bins up to the cutoff are a prefix
    n_below = freqs.searchsorted(params.sparc_max_cutoff_hz, side="right")
    step = float(freqs[1])
    # only the bins up to the cutoff are held from here on
    del freqs
    vhat = magnitudes[:n_below] / dc
    del magnitudes
    # vhat[0] is 1.0, so the selection starts at the first bin and is never empty
    n_sel = int(np.flatnonzero(vhat >= params.sparc_amp_threshold)[-1]) + 1
    if n_sel < 2:
        return 0.0
    span = (n_sel - 1) * step
    if not span > 0:
        # below about 1e-303 Hz the bin spacing underflows to 0
        raise DegenerateSignalError("sparc is undefined: the spectrum spans no frequency")
    # each bin's frequency as rfftfreq computes it, its index times the spacing
    freqs = np.arange(n_sel) * step
    df = (freqs[1:] - freqs[:-1]) / span
    dv = vhat[1:n_sel] - vhat[: n_sel - 1]
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
    peak, low = _window_extrema(a_norm, [0], [n])
    with np.errstate(over="ignore"):
        squares = float(_squared_jerks(_join([a_norm]), sample_rate_hz)[1:-1].sum())
    return _log_dimensionless_jerk(a_norm, float(peak[0]), float(low[0]), squares, sample_rate_hz)


def angular_velocity_range(gyro: np.ndarray) -> float:
    """Mean over the three axes of each axis's max-minus-min, in deg/s."""
    if len(gyro) == 0:
        raise TooShortError("angular-velocity range needs >= 1 sample, got 0")
    return float(_mean_axis_ranges(*_window_extrema(gyro.T, [0], [len(gyro)]))[0])


def power_index(accel: np.ndarray, rav: float) -> float:
    """Mean per-axis acceleration range times the angular-velocity range `rav`."""
    if len(accel) == 0:
        raise TooShortError("power index needs >= 1 sample, got 0")
    return float(_mean_axis_ranges(*_window_extrema(accel.T, [0], [len(accel)]))[0]) * rav


def _is_normal(x: float) -> bool:
    """True for a normal, finite, positive double; False for nan too."""
    return sys.float_info.min <= x < math.inf


# The kernels below take many windows at once. Each is exact in any order,
# or keeps one call per window where its bits depend on the call: a
# pairwise `.sum()` over a window's contiguous samples. The one-window
# functions above, but `spectral_arc_length` and `mean_crossing_count`,
# are their one-window case.


class _Joined(NamedTuple):
    """1-D windows end to end, with an +inf sample before, between and
    after them, so that one pass over `v` sees each window as if alone."""

    v: np.ndarray
    starts: np.ndarray  # each window's first index in v
    ends: np.ndarray  # the index of the +inf after it


def _join(windows: list[np.ndarray]) -> _Joined:
    """Join one or more non-empty finite windows."""
    sep = np.array([np.inf])
    v = np.concatenate([sep, *(part for window in windows for part in (window, sep))])
    lengths = np.array([len(window) for window in windows], dtype=np.intp)
    ends = np.cumsum(lengths + 1)
    starts = ends - lengths
    return _Joined(v, starts, ends)


def _window_extrema(a: np.ndarray, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """The largest and the smallest value of each window ``a[..., start:end]``.

    Every window but the last must end before `a` does along its last
    axis: `reduceat` takes each window's end as the next bound, and only
    the last bound runs to the end.
    """
    bounds = np.column_stack((starts, ends)).ravel()
    if bounds[-1] == a.shape[-1]:
        bounds = bounds[:-1]
    return (
        np.maximum.reduceat(a, bounds, axis=-1)[..., ::2],
        np.minimum.reduceat(a, bounds, axis=-1)[..., ::2],
    )


def _mean_axis_ranges(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Each window's mean over the axes of its max-minus-min, from the
    axes-by-windows extremes that `_window_extrema` gives."""
    # each window's ranges as one contiguous row, summed as a window alone
    # sums its three ranges
    ranges = np.ascontiguousarray((top - bottom).T)
    return ranges.sum(axis=1) / len(top)


def _prominent_peak_counts(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The prominent peaks of each window of a `_Joined.v`, with window i's threshold h[i].

    Every window holds at least 3 finite samples. All are counted in one
    walk, in O(total length) memory and no Python loop per peak or window.
    """
    # A run next to a +inf separator is never a peak, and an +inf run is
    # higher than any peak, so every walk stops at the separator and each
    # window is counted as if alone. The separators between windows are
    # themselves peaks, and stay in the peak list as those stoppers; they
    # are never counted.
    runs = v[np.concatenate(([True], v[1:] != v[:-1]))]
    rising = runs[1:] > runs[:-1]
    peaks = np.flatnonzero(rising[:-1] > rising[1:]) + 1
    k = len(peaks)
    if k == 0:
        return np.zeros(len(h), dtype=np.intp)
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
    return np.bincount(window_of[counted], minlength=len(h))


def _squared_jerks(joined: _Joined, sample_rate_hz: float) -> np.ndarray:
    """The square of each window's jerk, in place of its samples in `v`.

    `derivative` takes every central difference at once; each window's two
    one-sided ends are then patched in, with `derivative`'s stencil.
    """
    v, starts, ends = joined.v, joined.starts, joined.ends
    dx = 1.0 / sample_rate_hz
    jerk = derivative(v, sample_rate_hz)
    jerk[starts] = (v[starts + 1] - v[starts]) / dx
    jerk[ends - 1] = (v[ends - 1] - v[ends - 2]) / dx
    return np.square(jerk, out=jerk)


def _log_dimensionless_jerk(
    a_norm: np.ndarray, peak: float, low: float, squares: float, sample_rate_hz: float
) -> float:
    """LDLJ-A of one window from its peak, lowest sample and sum of squared jerk."""
    if peak == 0.0:
        raise DegenerateSignalError("dimensionless jerk is undefined: zero peak value")
    scale = peak * peak
    if _is_normal(scale) and _is_normal(squares):
        dt = 1.0 / sample_rate_hz
        ratio = len(a_norm) * dt / scale * (squares * dt)
        if _is_normal(ratio):
            return -math.log(ratio)
    if low == peak:
        raise DegenerateSignalError("dimensionless jerk is undefined: constant signal")
    # Scale by 2**-e, which is exact, so differences of an ulp of the peak
    # survive. The scaled peak m is in [0.5, 1), and a signal that is not
    # constant has a jerk of at least about 5e-17 at 1 Hz, so the ratio is
    # a normal double.
    m, e = math.frexp(peak)
    squares = float(_squared_jerks(_join([np.ldexp(a_norm, -e)]), 1.0)[1:-1].sum())
    return -math.log(len(a_norm) / (m * m) * squares)


def session_windows(
    session: Session, params: FeatureParams | None = None
) -> dict[tuple[TaskKind, SegmentKind, Placement], tuple | ShoulderKinError]:
    """Cut every present cell of `session` and compute its features.

    Returns a map from (task, segment, placement) to the cell's
    `FeatureVector` field values in order, or to the error the cell fails
    with, in grid order. A cell is present when the session has a label
    for its task and a stream for its placement; `slice_segment` is called
    once per present cell, in grid order.

    Each placement's norms are computed once over the whole stream, and
    their finiteness checked once there. Its windows with at least 3
    samples and finite norms are then computed together: NP-A, the window
    extremes and the jerk sums in array passes over all of them (see the
    kernels above), then, one window at a time, SPARC by
    `spectral_arc_length`, LDLJ-A from its extremes and jerk sum, and
    NMCP-A by `mean_crossing_count`. A window with a
    non-finite norm fails with a validation error, and a shorter window is
    evaluated alone by `mean_crossing_count` and `peak_count`, which raise
    its error. Otherwise a cell's error is SPARC's, or else LDLJ-A's, as
    the features are listed in `FeatureVector`. Nothing is raised here:
    `extract_all` raises a cell's error.
    """
    params = params or FeatureParams()
    present = [
        (placement, session.streams[placement], [])
        for placement in Placement
        if placement in session.streams
    ]
    for task in TaskKind:
        label = session.labels.get(task)
        if label is None:
            continue
        for kind in SegmentKind:
            start, end = label.window(kind)
            for placement, stream, windows in present:
                slice_segment(stream, label, kind)
                windows.append(((task, kind, placement), start, end))
    placed = [_placement_cells(stream, windows, params) for _, stream, windows in present]
    # every placement has the same tasks and segments, in grid order
    return dict(cell for same_window in zip(*placed) for cell in same_window)


def _placement_cells(
    stream: SensorStream, windows: list[tuple[tuple, int, int]], params: FeatureParams
) -> list[tuple[tuple, tuple | ShoulderKinError]]:
    """Each of one stream's (cell, start, end) windows, as a cell of `session_windows`."""
    rate = stream.sample_rate_hz
    # a finite sample above about 1e154 squares to inf; extract_all reports it
    with np.errstate(over="ignore"):
        a_norm, w_norm = euclidean_norm(stream.accel), euclidean_norm(stream.gyro)
    finite = bool(np.isfinite(a_norm).all() and np.isfinite(w_norm).all())
    outcomes: list = [None] * len(windows)
    batch = []
    for i, (_, start, end) in enumerate(windows):
        a = a_norm[start:end]
        # a non-finite norm outside this window does not fail it
        if not (finite or (np.isfinite(a).all() and np.isfinite(w_norm[start:end]).all())):
            outcomes[i] = ValidationError("series contains non-finite values")
        elif end - start < 3:
            try:
                mean_crossing_count(a)
                peak_count(a, params)
            except TooShortError as err:
                outcomes[i] = err
        else:
            batch.append(i)
    if batch:
        starts = np.array([windows[i][1] for i in batch])
        ends = np.array([windows[i][2] for i in batch])
        # One pass at a time, each pass's arrays freed before the next. First
        # the extremes of the acceleration norm and of each gyro and accel
        # axis, as rows with a column more, so that every window ends before
        # them (filled row by row: np.vstack copies the strided axes slowly).
        signals = np.zeros((7, len(a_norm) + 1))
        signals[0, :-1], signals[1:4, :-1], signals[4:, :-1] = a_norm, stream.gyro.T, stream.accel.T
        top, bottom = _window_extrema(signals, starts, ends)
        del signals
        joined = _join([a_norm[start:end] for start, end in zip(starts.tolist(), ends.tolist())])
        h = params.peak_prominence_frac * (top[0] - bottom[0])
        np_a = _prominent_peak_counts(joined.v, h).tolist()
        # each window's sum of squared jerk, from its own pairwise .sum()
        bounds = zip(joined.starts.tolist(), joined.ends.tolist())
        with np.errstate(over="ignore"):
            squares = _squared_jerks(joined, rate)
            jerk_sums = [float(squares[s:e].sum()) for s, e in bounds]
        del joined, squares
        rav = _mean_axis_ranges(top[1:4], bottom[1:4])
        # an overflowing product is not finite, which FeatureVector refuses
        with np.errstate(over="ignore"):
            pi = _mean_axis_ranges(top[4:], bottom[4:]) * rav
        values = zip(
            np_a, top[0].tolist(), bottom[0].tolist(), jerk_sums, rav.tolist(), pi.tolist()
        )
        for i, (peaks, peak, low, jerk_sum, r, p) in zip(batch, values):
            _, start, end = windows[i]
            a = a_norm[start:end]
            # one window at a time, SPARC's error first; the public functions
            # are looked up as the module globals perfbench/spans.py rebinds
            try:
                arc = spectral_arc_length(w_norm[start:end], rate, params)
                ldlj_a = _log_dimensionless_jerk(a, peak, low, jerk_sum, rate)
            except (TooShortError, DegenerateSignalError) as err:
                outcomes[i] = err
                continue
            outcomes[i] = (mean_crossing_count(a), peaks, arc, ldlj_a, r, p, (end - start) / rate)
    return [(cell, outcome) for (cell, _, _), outcome in zip(windows, outcomes)]


def extract_all(
    session: Session,
    cell: tuple[TaskKind, SegmentKind, Placement],
    window: tuple | ShoulderKinError,
) -> FeatureVector:
    """The seven features of one (task, segment, placement) cell.

    `window` is ``session_windows(session, params)[cell]``: the cell's
    feature values, or the error it fails with. Feature failures (too
    short, degenerate) are raised wrapped with the cell coordinates so
    batch callers can report precisely. Duration is the window's sample
    count over the session's rate.

    Finite samples can still overflow: one above about 1e154 squares to
    inf. An inf norm in the window, or a feature that `FeatureVector`
    finds not finite, is a validation error naming the cell.
    """
    try:
        if isinstance(window, ShoulderKinError):
            raise window
        return FeatureVector(*window)
    except (TooShortError, DegenerateSignalError) as err:
        raise FeatureError(session.subject_id, *cell, err) from err
    except ValidationError as err:
        where = "/".join(key.value for key in cell)
        raise ValidationError(f"{session.subject_id} {where}: {err}") from err


def extract_cohort(
    sessions, params: FeatureParams | None = None
) -> tuple[list[FeatureRow], list[FeatureError]]:
    """Evaluate the full (session x task x segment x placement) grid.

    Each session's cells are computed together by `session_windows`, then
    each present cell's vector is built, or its error raised, by
    `extract_all`, in grid order.
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
            vector = extract_all(session, cell, window)
        except FeatureError as err:
            failures.append(err)
            continue
        rows.append(FeatureRow(session.subject_id, session.group, *cell, vector))
    return rows, failures
