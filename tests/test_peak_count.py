"""`peak_count` and the batched walk behind it against scipy's `find_peaks`,
its conventions, and its worst cases.

scipy is a test dependency only: it is the oracle here, and the package
never imports it.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from shoulderkin import FeatureParams
from shoulderkin.features import _join, _prominent_peak_counts, peak_count

def count(values, frac):
    return peak_count(np.asarray(values, dtype=float), FeatureParams(peak_prominence_frac=frac))


def scipy_count(values, frac):
    v = np.asarray(values, dtype=float)
    return len(find_peaks(v, prominence=frac * float(v.max() - v.min()))[0])


@st.composite
def series(draw):
    """Integer plateaus, or noise or a random walk at any magnitude."""
    kind = draw(st.sampled_from(["plateaus", "noise", "walk"]))
    if kind == "plateaus":
        levels = draw(st.lists(st.integers(0, 9), min_size=3, max_size=60))
        lengths = draw(st.lists(st.integers(1, 3), min_size=len(levels), max_size=len(levels)))
        return np.repeat(levels, lengths).astype(float)
    values = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=200)))
    if kind == "walk":
        values = np.cumsum(values)
    return values * 10.0 ** draw(st.integers(-300, 300))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(series(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_matches_find_peaks(values, frac):
    assert count(values, frac) == scipy_count(values, frac)


@st.composite
def window(draw):
    """One window of a batch: a plateau at either edge or none, exactly 3
    samples or more, constant or not, at a magnitude from 1e-300 to 1e150."""
    kind = draw(st.sampled_from(["plateaus", "noise", "constant"]))
    size = draw(st.one_of(st.just(3), st.integers(3, 40)))
    if kind == "constant":
        values = np.full(size, float(draw(st.integers(1, 9))))
    elif kind == "plateaus":
        levels = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        values = np.array(levels, dtype=float) + 1.0
    else:
        values = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=size, max_size=size)))
    # repeat the first and last samples to put plateaus on the edges
    repeats = [draw(st.integers(1, 3))] + [1] * (size - 2) + [draw(st.integers(1, 3))]
    values = np.repeat(values, repeats)
    return values * 10.0 ** draw(st.integers(-300, 150))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(window(), st.floats(0.0, 1.0)), min_size=1, max_size=8))
def test_batched_walk_counts_each_window_alone(batch):
    # each window has its own threshold h, a fraction of its own range
    windows = [values for values, _ in batch]
    h = np.array([frac * float(values.max() - values.min()) for values, frac in batch])
    expected = [len(find_peaks(w, prominence=t)[0]) for w, t in zip(windows, h)]
    assert _prominent_peak_counts(_join(windows).v, h).tolist() == expected


@pytest.mark.parametrize(
    "values, frac, expected",
    [
        # each peak's walk crosses the other, equal peak to the edge: bases 0
        ([0.0, 10.0, 9.9, 10.0, 0.0], 0.5, 2),
        # the run of 2s touches the last sample, so only the 1 is a peak
        ([0.0, 1.0, 0.0, 2.0, 2.0], 0.05, 1),
        ([0.0, 2.0, 2.0, 1.0], 0.05, 1),
        # the high first sample ends the left walk of the 6: its base is
        # max(4, 0) = 4, so its prominence is exactly 2
        ([10.0, 4.0, 6.0, 0.0], 0.2, 1),
        ([10.0, 4.0, 6.0, 0.0], 0.21, 0),
        # h = 5.4: the left walk of each 7 passes the 0 before the 5 and
        # stops at the 9, the right walk passes the 1, so both 7s stand 6 high
        ([9.0, 2.0, 3.0, 0.0, 5.0, 2.0, 7.0, 5.0, 7.0, 6.0, 1.0, 3.0, 2.0], 0.6, 2),
    ],
    ids=[
        "equal-peaks",
        "plateau-at-end",
        "plateau-peak",
        "first-sample-blocks",
        "just-short",
        "long-walks",
    ],
)
def test_conventions(values, frac, expected):
    assert count(values, frac) == expected
    assert scipy_count(values, frac) == expected


def _assert_fast(values, expected):
    start = time.perf_counter()
    got = count(values, 0.05)
    elapsed = time.perf_counter() - start
    assert got == expected
    assert elapsed < 1.0, f"counting {len(values)} samples took {elapsed:.2f} s"


def test_integer_plateaus_are_fast():
    # Many equal peaks: each of scipy's walks crosses all of them.
    values = np.random.default_rng(0).integers(0, 3, 200_000).astype(float)
    # h = 0.1 and every peak stands at least 1 above its bases, so every
    # interior run above both neighbouring runs counts
    runs = [v for v, _ in itertools.groupby(values.tolist())]
    expected = sum(a < b > c for a, b, c in zip(runs, runs[1:], runs[2:]))
    _assert_fast(values, expected)


def test_nested_peaks_are_fast():
    # A staircase of 100,000 peaks, each 1.5 above the dip before it, so
    # every left walk crosses all lower peaks. h is about 5,000, and only
    # the top peak, whose bases are the first and last samples, clears it.
    steps = np.arange(100_000, dtype=float)
    values = np.empty(2 * len(steps))
    values[0::2] = steps - 1.5
    values[1::2] = steps
    _assert_fast(np.append(values, -2.0), 1)
