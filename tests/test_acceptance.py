"""Release gate: the end-to-end guarantees this package ships with.

Each test prints one verdict line so a full run reads as a checklist.
The statistics oracle values come from test_stats, where they were pinned
before the package was built; the report golden file lives in data/.
"""

import functools
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from reference_table import build_reference_table
from test_stats import EXPECTED, PAIRS
from shoulderkin import (
    FeatureParams,
    compare_cohort,
    default_profile,
    extract_cohort,
    generate_cohort,
    load_cohort,
    render_report,
)
from shoulderkin.dsp import euclidean_norm, fft_length, magnitude_spectrum
from shoulderkin.features import (
    angular_velocity_range,
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    spectral_arc_length,
)
from shoulderkin.formats import Placement, SegmentKind, TaskKind
from shoulderkin.ingest import parse_labels, parse_recording, write_labels, write_recording
from shoulderkin.model import SegmentLabel, SensorStream
from shoulderkin.stats import cell_keys, compare_samples, significance_flag
from shoulderkin.synth import synth_segment

RATE = 128.0
PARAMS = FeatureParams()
GOLDEN = Path(__file__).parent / "data" / "golden_report.txt"
SMOOTHNESS = ("nmcp_a", "np_a", "sparc", "ldlj_a")


def verdict(label):
    """Print a single pass/fail line for one gate criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Simulate the default 20v20 cohort once and extract its features."""
    profile = default_profile()
    out = tmp_path_factory.mktemp("cohort-default")
    t0 = time.perf_counter()
    generate_cohort(profile, out)
    rows, failures = extract_cohort(load_cohort(out))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        profile=profile, rows=rows, failures=failures, simulate_extract_s=elapsed
    )


def random_segment(rng):
    """A three-second recording with one or two submovements plus noise."""
    pulses = []
    for i in range(int(rng.integers(1, 3))):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        duration_s = float(rng.uniform(0.5, 1.0))
        pulses.append((0.2 + i * 1.3, duration_s, float(rng.uniform(60.0, 180.0)), axis))
    return synth_segment(pulses, 3.0, RATE, 0.02, 0.6, rng, lever_arm_m=0.55)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def norm_features(stream):
    a_norm = euclidean_norm(stream.accel)
    w_norm = euclidean_norm(stream.gyro)
    return (
        mean_crossing_count(a_norm),
        peak_count(a_norm, PARAMS),
        spectral_arc_length(w_norm, RATE, PARAMS),
        log_dimensionless_jerk(a_norm, RATE),
    )


@verdict("1 cohort cardinality")
def test_cohort_cardinality(default_run):
    assert default_run.failures == []
    for placement in Placement:
        complete = sum(
            1
            for r in default_run.rows
            if r.placement is placement and r.segment is SegmentKind.COMPLETE
        )
        subtask = sum(
            1
            for r in default_run.rows
            if r.placement is placement and r.segment is not SegmentKind.COMPLETE
        )
        assert complete == 200
        assert subtask == 600
    assert default_run.simulate_extract_s < 30.0


@verdict("2 rotation invariance")
def test_rotation_invariance():
    rng = np.random.default_rng(1234)
    rav_moved = False
    for _ in range(100):
        stream = random_segment(rng)
        q = random_rotation(rng)
        turned = SensorStream(
            accel=stream.accel @ q.T, gyro=stream.gyro @ q.T, sample_rate_hz=RATE
        )
        base = norm_features(stream)
        moved = norm_features(turned)
        assert moved[0] == base[0]
        assert moved[1] == base[1]
        assert abs(moved[2] - base[2]) <= 1e-9 * abs(base[2])
        assert abs(moved[3] - base[3]) <= 1e-9 * abs(base[3])
        rav_base = angular_velocity_range(stream.gyro)
        rav_turned = angular_velocity_range(turned.gyro)
        if abs(rav_turned - rav_base) > 0.01 * abs(rav_base):
            rav_moved = True
    assert rav_moved


@verdict("3 scale invariance")
def test_scale_invariance():
    rng = np.random.default_rng(77)
    for _ in range(3):
        stream = random_segment(rng)
        a_norm = euclidean_norm(stream.accel)
        w_norm = euclidean_norm(stream.gyro)
        sparc = spectral_arc_length(w_norm, RATE, PARAMS)
        ldlj = log_dimensionless_jerk(a_norm, RATE)
        rav = angular_velocity_range(stream.gyro)
        for c in (0.1, 2.0, 100.0):
            scaled = SensorStream(
                accel=c * stream.accel, gyro=c * stream.gyro, sample_rate_hz=RATE
            )
            sparc_c = spectral_arc_length(euclidean_norm(scaled.gyro), RATE, PARAMS)
            ldlj_c = log_dimensionless_jerk(euclidean_norm(scaled.accel), RATE)
            rav_c = angular_velocity_range(scaled.gyro)
            assert abs(sparc_c - sparc) <= 1e-9 * abs(sparc)
            assert abs(ldlj_c - ldlj) <= 1e-9 * abs(ldlj)
            assert abs(rav_c - c * rav) <= 1e-9 * abs(c * rav)


@verdict("4 smoothness monotonicity")
def test_smoothness_monotonicity():
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        sparcs = []
        peaks = []
        for k in range(1, 6):
            pulse, gap = 0.9, 0.45
            x_axis = (1.0, 0.0, 0.0)
            pulses = [(0.3 + i * (pulse + gap), pulse, 150.0 / k, x_axis) for i in range(k)]
            total = 0.6 + k * pulse + (k - 1) * gap + 0.3
            stream = synth_segment(pulses, total, RATE, 0.02, 0.6, rng, lever_arm_m=0.55)
            sparcs.append(spectral_arc_length(euclidean_norm(stream.gyro), RATE, PARAMS))
            peaks.append(peak_count(euclidean_norm(stream.accel), PARAMS))
        assert all(b < a for a, b in zip(sparcs, sparcs[1:])), (seed, sparcs)
        assert all(b > a for a, b in zip(peaks, peaks[1:])), (seed, peaks)


@verdict("5 statistics oracle")
def test_statistics_oracle():
    for (x, y), (t_ref, _dof_ref, p_ref, d_ref, lo_ref, hi_ref) in zip(PAIRS, EXPECTED):
        cell = compare_samples(x, y)
        assert abs(cell.t_stat - t_ref) <= 1e-9
        assert abs(cell.p_value - p_ref) <= 1e-9
        assert abs(cell.d - d_ref) <= 1e-9
        assert abs(cell.d_ci_low - lo_ref) <= 1e-9
        assert abs(cell.d_ci_high - hi_ref) <= 1e-9


@verdict("6 spectrum oracle")
def test_spectrum_oracle():
    rng = np.random.default_rng(99)
    covered = set()
    pad = PARAMS.sparc_pad_level
    for pow2 in (2, 4, 8, 16, 32, 64, 128, 256):
        n_fft = fft_length(pow2, pad)
        bins = np.arange(n_fft // 2 + 1)
        basis = np.exp(-2j * np.pi * np.outer(bins, np.arange(pow2)) / n_fft)
        for n in range(max(2, pow2 // 2 + 1), pow2 + 1):
            x = rng.normal(size=n)
            spec = magnitude_spectrum(x, RATE, pad)
            direct = np.abs(basis[:, :n] @ x)
            assert spec.magnitudes.shape == direct.shape
            assert np.max(np.abs(spec.magnitudes - direct)) <= 1e-7 * np.max(direct)
            assert np.array_equal(spec.freqs_hz, bins * RATE / n_fft)
            covered.add(n)
    assert covered == set(range(2, 257))


@verdict("7 clinical pattern")
def test_clinical_pattern(default_run, tmp_path_factory):
    t0 = time.perf_counter()
    table = compare_cohort(default_run.rows)
    for task in TaskKind:
        starred = sum(
            1
            for feature in SMOOTHNESS
            if (cell := table.cell(task, feature, Placement.WRIST, SegmentKind.SUB1))
            is not None
            and significance_flag(cell.p_value, cell.d, table.rule)
        )
        assert starred >= 3, (task, starred)
        for feature in ("rav", "pi"):
            for placement in Placement:
                cell = table.cell(task, feature, placement, SegmentKind.COMPLETE)
                assert cell is not None, (task, feature, placement)
                assert significance_flag(cell.p_value, cell.d, table.rule), (task, feature, placement)
    text = render_report(table)
    assert text.startswith("WH: Washing hair")

    null_profile = replace(default_run.profile, patient=default_run.profile.healthy)
    out = tmp_path_factory.mktemp("cohort-null")
    generate_cohort(null_profile, out)
    null_rows, null_failures = extract_cohort(load_cohort(out))
    assert null_failures == []
    null_table = compare_cohort(null_rows)
    assert null_table.untestable_count() == 0
    stars = sum(
        1
        for key in cell_keys()
        if (cell := null_table.cells[key]) is not None
        and significance_flag(cell.p_value, cell.d, null_table.rule)
    )
    assert stars == 0
    total = default_run.simulate_extract_s + (time.perf_counter() - t0)
    assert total < 60.0


@verdict("8 round-trip identity")
def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(4242)
    stream_path = tmp_path / "stream.csv"
    labels_path = tmp_path / "labels.csv"
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(8, 48))
        stream = SensorStream(
            accel=np.round(rng.normal(scale=20.0, size=(n, 3)), 6),
            gyro=np.round(rng.normal(scale=200.0, size=(n, 3)), 6),
            sample_rate_hz=RATE,
        )
        stream_path.write_bytes(write_recording(stream))
        back = parse_recording(stream_path)
        assert back.sample_rate_hz == stream.sample_rate_hz
        for sent, got in ((stream.accel, back.accel), (stream.gyro, back.gyro)):
            scale = np.maximum(np.abs(sent), 1e-30)
            worst = max(worst, float(np.max(np.abs(got - sent) / scale)))
    assert worst <= 1e-9, worst

    tasks = list(TaskKind)
    for _ in range(1000):
        chosen = rng.choice(len(tasks), size=int(rng.integers(1, 6)), replace=False)
        labels = {}
        for idx in sorted(chosen):
            task = tasks[idx]
            s1 = int(rng.integers(0, 500))
            e1, e2, e3 = (s1 + np.cumsum(rng.integers(32, 200, size=3))).tolist()
            labels[task] = SegmentLabel(s1=s1, e1=e1, e2=e2, e3=e3)
        labels_path.write_bytes(write_labels(labels))
        assert parse_labels(labels_path) == labels


@verdict("9 report fidelity")
def test_report_fidelity():
    text = render_report(build_reference_table())
    assert text == GOLDEN.read_text(encoding="utf-8")
    assert "<0.001" in text
    assert "*: p < 0.05 and Cohen's d > 0.8" in text
    duration_lines = [l for l in text.splitlines() if l.startswith("Duration")]
    assert len(duration_lines) == len(TaskKind)
    assert all(line.split()[1] == "N/A" for line in duration_lines)
    assert "0.650" in text
