"""The oracle cell extractor: each cell alone, one feature call at a time.

`extract_per_cell` is the per-cell arithmetic that `features` ran before it
computed a session's cells in array passes over each placement's windows.
The kernels below are that code, kept here as `reference_sparc` keeps the
first SPARC: a window's norms and samples are copied out of the stream,
its features are evaluated one by one in `FeatureVector` field order, and
its first error is the cell's. `peak_count` comes from the package, which
`tests/test_peak_count.py` pins against scipy's `find_peaks`.
"""

import math
import sys

import numpy as np

from shoulderkin.dsp import derivative, euclidean_norm, fft_length
from shoulderkin.errors import DegenerateSignalError, FeatureError, TooShortError, ValidationError
from shoulderkin.features import SPARC_MAX_FFT_POINTS, peak_count
from shoulderkin.formats import FeatureRow, FeatureVector, Placement, SegmentKind, TaskKind


def mean_crossing_count(v):
    n = len(v)
    if n < 2:
        raise TooShortError(f"mean crossings need >= 2 samples, got {n}")
    mean = v.sum() / n
    above = v[v != mean] > mean
    return int(np.count_nonzero(above[1:] != above[:-1]))


def spectral_arc_length(w_norm, sample_rate_hz, params):
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
    # the whole spectrum, taken here rather than by the code under test
    magnitudes = np.abs(np.fft.rfft(w_norm, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
    dc = magnitudes[0]
    if dc == 0.0:
        raise DegenerateSignalError("sparc is undefined: zero DC component (all-zero signal)")
    n_below = np.searchsorted(freqs, params.sparc_max_cutoff_hz, side="right")
    vhat = magnitudes[:n_below] / dc
    above = np.flatnonzero(vhat >= params.sparc_amp_threshold)
    first, last = above[0], above[-1] + 1
    if last - first < 2:
        return 0.0
    f_sel = freqs[first:last]
    v_sel = vhat[first:last]
    span = f_sel[-1] - f_sel[0]
    if not span > 0:
        raise DegenerateSignalError("sparc is undefined: the spectrum spans no frequency")
    df = (f_sel[1:] - f_sel[:-1]) / span
    dv = v_sel[1:] - v_sel[:-1]
    return -float(np.sqrt(df * df + dv * dv).sum())


def _is_normal(x):
    return sys.float_info.min <= x < math.inf


def log_dimensionless_jerk(a_norm, sample_rate_hz):
    n = len(a_norm)
    if n < 3:
        raise TooShortError(f"dimensionless jerk needs >= 3 samples, got {n}")
    peak = float(np.max(a_norm))
    if peak == 0.0:
        raise DegenerateSignalError("dimensionless jerk is undefined: zero peak value")
    scale = peak * peak
    with np.errstate(over="ignore"):
        squares = float(np.sum(np.square(derivative(a_norm, sample_rate_hz))))
    if _is_normal(scale) and _is_normal(squares):
        dt = 1.0 / sample_rate_hz
        ratio = n * dt / scale * (squares * dt)
        if _is_normal(ratio):
            return -math.log(ratio)
    if a_norm.min() == peak:
        raise DegenerateSignalError("dimensionless jerk is undefined: constant signal")
    m, e = math.frexp(peak)
    squares = float(np.sum(np.square(derivative(np.ldexp(a_norm, -e), 1.0))))
    return -math.log(n / (m * m) * squares)


def mean_axis_range(samples):
    axes = samples.T.copy()
    return float((axes.max(axis=1) - axes.min(axis=1)).sum()) / len(axes)


def extract_cell(session, params, cell):
    """One cell's `FeatureVector`, from copies of its own window."""
    task, kind, placement = cell
    start, end = session.labels[task].window(kind)
    stream = session.streams[placement]
    accel, gyro = stream.accel[start:end].copy(), stream.gyro[start:end].copy()
    rate = session.sample_rate_hz
    try:
        with np.errstate(over="ignore"):
            a_norm, w_norm = euclidean_norm(accel), euclidean_norm(gyro)
            if not (np.isfinite(a_norm).all() and np.isfinite(w_norm).all()):
                raise ValidationError("series contains non-finite values")
            rav = mean_axis_range(gyro)
            return FeatureVector(
                nmcp_a=mean_crossing_count(a_norm),
                np_a=peak_count(a_norm, params),
                sparc=spectral_arc_length(w_norm, rate, params),
                ldlj_a=log_dimensionless_jerk(a_norm, rate),
                rav=rav,
                pi=mean_axis_range(accel) * rav,
                duration_s=len(accel) / rate,
            )
    except (TooShortError, DegenerateSignalError) as err:
        raise FeatureError(session.subject_id, *cell, err) from err
    except ValidationError as err:
        where = "/".join(key.value for key in cell)
        raise ValidationError(f"{session.subject_id} {where}: {err}") from err


def extract_per_cell(session, params):
    """The rows and failures of each present cell of `session`, in grid
    order; an invalid value raises at its cell, as `extract_cohort` does."""
    rows, failures = [], []
    for task in TaskKind:
        if task not in session.labels:
            continue
        for kind in SegmentKind:
            for placement in Placement:
                if placement not in session.streams:
                    continue
                cell = (task, kind, placement)
                try:
                    vector = extract_cell(session, params, cell)
                except FeatureError as err:
                    failures.append(err)
                    continue
                rows.append(FeatureRow(session.subject_id, session.group, *cell, vector))
    return rows, failures
