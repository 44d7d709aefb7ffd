"""The tests' reference implementations, one of each, and the oracle cell extractor.

- `forward_fill_crossings`: NMCP-A by a forward fill of the deviation's
  signs, where the package drops the samples on the mean.
- `full_spectrum_sparc` and the bins it measures, `sparc_selection`:
  SPARC (Balasubramanian et al., JNER 2015) on the whole spectrum with
  boolean masks, divided by its DC bin or an optional normaliser.
- `direct_dft_magnitude`: the one-sided spectrum by an O(N^2) DFT on the
  rows of `dft_basis`; `rfft_magnitude` is numpy's, every bin of it.
- `extract_per_cell`: the per-cell arithmetic that `features` ran before
  it computed a session's cells in array passes. Each window is copied
  out of its stream and its features are evaluated one by one, in
  `FeatureVector` field order, by `ORACLE_KERNELS` or by the kernels
  given; the first error is the cell's. `peak_count` is the package's,
  which `tests/test_peak_count.py` pins against scipy's `find_peaks`.
- `read_matrix_per_cell`: the feature-matrix reader as it was before it
  converted a row in one pass: `split_rows`, every cell through
  `parse_cell`, then the row checks.
"""

import math
import sys
from types import SimpleNamespace

import numpy as np

from shoulderkin.dsp import derivative, euclidean_norm, fft_length
from shoulderkin.errors import DegenerateSignalError, FeatureError, TooShortError, ValidationError
from shoulderkin.features import SPARC_MAX_FFT_POINTS, peak_count
from shoulderkin.formats import (
    MATRIX_COLUMNS,
    MATRIX_HEADER,
    FeatureRow,
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    TaskKind,
    check_subject_id,
    parse_cell,
    read_lines,
    split_rows,
)


def forward_fill_crossings(values):
    """Zeros of the deviation from the mean take the last nonzero sign;
    count the sign flips."""
    n = len(values)
    if n < 2:
        raise TooShortError(f"mean crossings need >= 2 samples, got {n}")
    signs = np.sign(values - values.sum() / n).astype(np.int64)
    nz = np.where(signs != 0, np.arange(n), -1)
    last = np.maximum.accumulate(nz)
    filled = np.where(last >= 0, signs[np.maximum(last, 0)], 0)
    return int(np.count_nonzero(filled[:-1] * filled[1:] < 0))


def rfft_magnitude(values, n_fft):
    """The magnitudes of every bin of numpy's one-sided FFT."""
    return np.abs(np.fft.rfft(values, n=n_fft))


def dft_basis(n_fft, n):
    """Row k is bin k of the one-sided DFT of n samples zero-padded to n_fft points."""
    k = np.arange(n_fft // 2 + 1)
    return np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n_fft)


def direct_dft_magnitude(values, n_fft):
    """O(N^2) one-sided DFT magnitude, the reference for the fast path."""
    return np.abs(dft_basis(n_fft, len(values)) @ values)


def sparc_selection(w_norm, sample_rate_hz, params, normaliser=None, spectrum=rfft_magnitude):
    """The frequencies and normalised magnitudes of the bins SPARC measures.

    `spectrum(w_norm, n_fft)` gives every bin's magnitude; they are divided
    by `normaliser(magnitudes)`, or by the DC bin by default, masked to the
    cutoff, and trimmed to the first and last bins at the threshold.
    """
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
    magnitudes = spectrum(w_norm, n_fft)
    dc = magnitudes[0]
    if dc == 0.0:
        raise DegenerateSignalError("sparc is undefined: zero DC component (all-zero signal)")
    vhat = magnitudes / (dc if normaliser is None else normaliser(magnitudes))
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
    below_cutoff = freqs <= params.sparc_max_cutoff_hz
    vhat, freqs = vhat[below_cutoff], freqs[below_cutoff]
    above = np.flatnonzero(vhat >= params.sparc_amp_threshold)
    selected = slice(above[0], above[-1] + 1)
    return freqs[selected], vhat[selected]


def full_spectrum_sparc(w_norm, sample_rate_hz, params, normaliser=None, spectrum=rfft_magnitude):
    """Minus the arc length of `sparc_selection`'s curve, its frequency
    axis rescaled to unit length."""
    f_sel, v_sel = sparc_selection(w_norm, sample_rate_hz, params, normaliser, spectrum)
    if len(f_sel) < 2:
        return 0.0
    span = f_sel[-1] - f_sel[0]
    if not span > 0:
        raise DegenerateSignalError("sparc is undefined: the spectrum spans no frequency")
    df = np.diff(f_sel) / span
    dv = np.diff(v_sel)
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


# the per-cell arithmetic's kernels, by the names of the package's
# one-window kernels, which `extract_per_cell` can be given instead
ORACLE_KERNELS = SimpleNamespace(
    mean_crossing_count=forward_fill_crossings,
    peak_count=peak_count,
    spectral_arc_length=full_spectrum_sparc,
    log_dimensionless_jerk=log_dimensionless_jerk,
    angular_velocity_range=mean_axis_range,
    power_index=lambda accel, rav: mean_axis_range(accel) * rav,
)


def extract_cell(session, params, cell, kernels):
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
            rav = kernels.angular_velocity_range(gyro)
            return FeatureVector(
                nmcp_a=kernels.mean_crossing_count(a_norm),
                np_a=kernels.peak_count(a_norm, params),
                sparc=kernels.spectral_arc_length(w_norm, rate, params),
                ldlj_a=kernels.log_dimensionless_jerk(a_norm, rate),
                rav=rav,
                pi=kernels.power_index(accel, rav),
                duration_s=len(accel) / rate,
            )
    except (TooShortError, DegenerateSignalError) as err:
        raise FeatureError(session.subject_id, *cell, err) from err
    except ValidationError as err:
        where = "/".join(key.value for key in cell)
        raise ValidationError(f"{session.subject_id} {where}: {err}") from err


def extract_per_cell(session, params, kernels=ORACLE_KERNELS):
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
                    vector = extract_cell(session, params, cell, kernels)
                except FeatureError as err:
                    failures.append(err)
                    continue
                rows.append(FeatureRow(session.subject_id, session.group, *cell, vector))
    return rows, failures


# how `read_matrix_per_cell` converts each cell after the subject id
_MATRIX_CONVERTERS = (Group, TaskKind, SegmentKind, Placement) + tuple(
    int if name in FeatureVector.COUNT_NAMES else float for name in FeatureVector.FIELD_NAMES
)


def read_matrix_per_cell(path):
    """The rows of a feature-matrix CSV, each cell read by `parse_cell`;
    the same checks, in the same order and with the same messages, as
    `read_matrix`."""
    lines = read_lines(path, MATRIX_HEADER)
    rows, group_of, rows_seen = [], {}, set()
    for line_no, cells in split_rows(lines[1:], len(MATRIX_COLUMNS), path):
        subject = cells[0]
        group, task, segment, placement, *values = [
            parse_cell(convert, cell, column, path, line_no)
            for convert, cell, column in zip(_MATRIX_CONVERTERS, cells[1:], MATRIX_COLUMNS[1:])
        ]
        try:
            check_subject_id(subject)
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
