"""Command-line pipeline: simulate -> extract -> compare -> report."""

import contextlib
import dataclasses
import errno
import hashlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cohort_oracle import in_process_sessions, manifest_entries, write_in_process
from forks import record_forks
from reference_table import build_reference_table
import shoulderkin
from shoulderkin import (
    CohortError,
    FeatureParams,
    ValidationError,
    default_profile,
    extract_cohort,
    features,
    ingest,
    main,
    read_matrix,
    synth,
    write_dump,
    write_matrix,
    write_profile,
)
from shoulderkin import cli
from shoulderkin.cli import (
    DUMP_FILENAME,
    EXIT_DEGENERATE,
    EXIT_FORMAT,
    EXIT_INVALID,
    EXIT_OK,
    _load_feature_params,
    build_parser,
    cmd_extract,
)
from shoulderkin.features import log_dimensionless_jerk
from shoulderkin.formats import FeatureRow, FeatureVector, Group, Placement, SegmentKind, TaskKind
from shoulderkin.ingest import (
    COHORT_MANIFEST_NAME,
    LABELS_HEADER,
    RECORDING_HEADER,
    parse_labels,
    parse_recording,
    parse_session_manifest,
    write_recording,
    write_session_manifest,
)
from shoulderkin.model import SegmentLabel, SensorStream
from shoulderkin.report import TASK_TITLES

BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# the first line of each task table in `report`'s output
TASK_HEADINGS = tuple(f"{task.value}: {title}" for task, title in TASK_TITLES.items())


def write_small_profile(path, n_per_group=3, seed=9):
    profile = default_profile(n_per_group=n_per_group, seed=seed)
    path.write_bytes(write_profile(profile))
    return profile


def run_pipeline(tmp_path):
    """Drive all four subcommands on a 3v3 cohort, returning the key paths."""
    ini = tmp_path / "profile.ini"
    write_small_profile(ini)
    cohort = tmp_path / "cohort"
    matrix = tmp_path / "matrix.csv"
    out_dir = tmp_path / "comparison"
    assert main(["simulate", "--out", str(cohort), "--params", str(ini)]) == EXIT_OK
    assert main(["extract", "--cohort", str(cohort), "--out", str(matrix)]) == EXIT_OK
    assert main(["compare", str(matrix), "--out", str(out_dir)]) == EXIT_OK
    return cohort, matrix, out_dir


def constant_matrix_rows(groups=(Group.PATIENT, Group.HEALTHY)):
    fv = FeatureVector(
        nmcp_a=3, np_a=4, sparc=-1.5, ldlj_a=-4.0, rav=2.0, pi=1.0, duration_s=2.0
    )
    rows = []
    for group in groups:
        prefix = "P" if group is Group.PATIENT else "H"
        for i in range(3):
            for task in TaskKind:
                for segment in SegmentKind:
                    for placement in Placement:
                        rows.append(
                            FeatureRow(f"{prefix}{i:02d}", group, task, segment, placement, fv)
                        )
    return rows


def varied_matrix_rows():
    """2v2 rows where each subject's features differ, so every cell is testable."""
    rows = []
    for group, prefix in ((Group.PATIENT, "P"), (Group.HEALTHY, "H")):
        for i in range(2):
            fv = FeatureVector(
                nmcp_a=1 + i, np_a=2 + i, sparc=-1.5 - i, ldlj_a=-4.0 - i, rav=2.0 + i,
                pi=1.0 + i, duration_s=2.0 + i,
            )
            for task in TaskKind:
                for segment in SegmentKind:
                    for placement in Placement:
                        rows.append(FeatureRow(f"{prefix}{i}", group, task, segment, placement, fv))
    return rows


class TestPipeline:
    def test_full_run_produces_all_outputs(self, tmp_path, capsys):
        cohort, matrix, out_dir = run_pipeline(tmp_path)
        assert (cohort / COHORT_MANIFEST_NAME).exists()
        assert len(list(cohort.glob("*_session.txt"))) == 6
        assert len(read_matrix(matrix)) == 6 * 5 * 4 * 2
        assert [path.name for path in out_dir.iterdir()] == [DUMP_FILENAME]

        report_path = tmp_path / "report.txt"
        assert main(["report", str(out_dir / DUMP_FILENAME), "--out", str(report_path)]) == EXIT_OK
        text = report_path.read_text(encoding="utf-8")
        assert [line for line in text.splitlines() if line in TASK_HEADINGS] == list(TASK_HEADINGS)
        assert "*: p < 0.05 and Cohen's d > 0.8" in text

        out = capsys.readouterr().out
        assert "wrote 6 sessions" in out
        assert "wrote 240 feature rows" in out
        assert "3 patient vs 3 healthy" in out

    def test_report_to_stdout(self, tmp_path, capsys):
        _, _, out_dir = run_pipeline(tmp_path)
        capsys.readouterr()
        assert main(["report", str(out_dir / DUMP_FILENAME)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("WH: Washing hair")
        assert out.count("Parameter") == 5

    def test_simulate_is_deterministic(self, tmp_path):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2, seed=31)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), "--params", str(ini)]) == EXIT_OK
        assert main(["simulate", "--out", str(b), "--params", str(ini)]) == EXIT_OK
        for name in ("P01_wrist.csv", "H02_arm.csv", "P02_labels.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_simulate_writes_the_pinned_cohort_bytes(self, tmp_path):
        # seed 42, 2 per group: every file name and byte of the cohort
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2, seed=42)
        cohort = tmp_path / "cohort"
        assert main(["simulate", "--out", str(cohort), "--params", str(ini)]) == EXIT_OK
        digest = hashlib.sha256()
        for path in sorted(cohort.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "e93c73a00b4be3be787dd822b1d53ccddf5bcaf83cfe17e1e9b4bd49b3b9b011"
        )

    def test_simulate_without_params_writes_the_default_cohort(self, tmp_path):
        # the stock 20v20 profile, pinned by the benchmark's digest of its
        # pipeline cohort: each file name, then the sha256 of its bytes
        cohort = tmp_path / "cohort"
        assert main(["simulate", "--out", str(cohort), "--seed", "42"]) == EXIT_OK
        digest = hashlib.sha256()
        for path in sorted(cohort.iterdir()):
            digest.update(path.name.encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        reference = json.loads(BENCHMARK_REFERENCE.read_text(encoding="utf-8"))
        assert digest.hexdigest() == reference["pipeline-20v20"]["cohort"]

    @pytest.mark.parametrize(
        "pad_level, sha256",
        [
            (0, "61174cb2d953a65d3691fd6ae0ddf7246c90a5f0cefcedeedcfeccabe3c2d681"),
            (2, "e7492797ee1d3ac6f14c765609ee4577b497e0e5af124b55b420dc840f114b48"),
            (4, "21c77c144ca81b1763134ac104ed08e2bf2d38ca802eb1cd3b56dccf756dab7e"),
        ],
    )
    def test_extract_writes_the_pinned_matrix_bytes(
        self, seed42_cohort, tmp_path, pad_level, sha256
    ):
        # the feature matrix of the seed-42, 2v2 cohort at three SPARC pad levels
        params, matrix = tmp_path / "params.txt", tmp_path / "matrix.csv"
        params.write_text(f"sparc_pad_level = {pad_level}\n")
        argv = [
            "extract", "--cohort", str(seed42_cohort), "--out", str(matrix), "--params", str(params)
        ]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256(matrix.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "rule, sha256",
        [
            pytest.param(
                "strict",
                "190da9d57fc0e8aef39c609f7a8a6bc378130cf2097feef99d23e16a64ba7413",
                id="strict",
            ),
            pytest.param(
                "inclusive",
                "05ff29b722b45fc7088837a8528471f2270eb9931709ab2fea968802b1b94f0b",
                id="inclusive",
            ),
        ],
    )
    def test_compare_writes_the_pinned_dump_bytes(self, seed42_cohort, tmp_path, rule, sha256):
        # the comparison dump of the seed-42, 2v2 cohort under each rule
        matrix, out_dir = tmp_path / "matrix.csv", tmp_path / "out"
        assert main(["extract", "--cohort", str(seed42_cohort), "--out", str(matrix)]) == EXIT_OK
        argv = ["compare", str(matrix), "--out", str(out_dir), "--rule", rule]
        assert main(argv) == EXIT_OK
        assert hashlib.sha256((out_dir / DUMP_FILENAME).read_bytes()).hexdigest() == sha256

    def test_seed_override_changes_data(self, tmp_path):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2, seed=31)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), "--params", str(ini)]) == EXIT_OK
        assert (
            main(["simulate", "--out", str(b), "--params", str(ini), "--seed", "32"]) == EXIT_OK
        )
        assert (a / "P01_wrist.csv").read_bytes() != (b / "P01_wrist.csv").read_bytes()

    def test_compare_writes_only_the_dump(self, tmp_path):
        # `report` is the one renderer: `compare` writes no table and takes
        # no option choosing one
        matrix, out_dir = tmp_path / "matrix.csv", tmp_path / "tables"
        matrix.write_bytes(write_matrix(varied_matrix_rows()))
        assert main(["compare", str(matrix), "--out", str(out_dir)]) == EXIT_OK
        assert [path.name for path in out_dir.iterdir()] == [DUMP_FILENAME]
        with pytest.raises(SystemExit) as info:
            main(["compare", str(matrix), "--out", str(out_dir), "--format", "table"])
        assert info.value.code == 2


class TestExitCodes:
    def test_simulate_malformed_profile(self, tmp_path, capsys):
        ini = tmp_path / "profile.ini"
        ini.write_text("[cohort]\nn_per_group = 3\n")
        code = main(["simulate", "--out", str(tmp_path / "c"), "--params", str(ini)])
        assert code == EXIT_FORMAT
        assert "error:" in capsys.readouterr().err

    def test_simulate_infinite_duration(self, tmp_path, capsys):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2)
        text = ini.read_text()
        ini.write_text(text.replace("hold_duration_s = 1.6 3", "hold_duration_s = 1.6 inf", 1))
        code = main(["simulate", "--out", str(tmp_path / "c"), "--params", str(ini)])
        assert code == EXIT_INVALID
        assert "hold_duration_s range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [
            ("n_per_group = 2", "n_per_group = 1001"),
            ("submovements = 4 7", "submovements = 4 51"),
            ("subtask_duration_s = 2.6 4", "subtask_duration_s = 2.6 60.5"),
            ("hold_duration_s = 1.6 3", "hold_duration_s = 1.6 61"),
        ],
    )
    def test_simulate_size_bounds(self, tmp_path, capsys, old, new):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2)
        text = ini.read_text()
        assert old in text
        ini.write_text(text.replace(old, new, 1))
        code = main(["simulate", "--out", str(tmp_path / "c"), "--params", str(ini)])
        assert code == EXIT_INVALID
        assert old.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("key", ["accel_noise_sigma", "gyro_noise_sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e308"])
    def test_simulate_unusable_noise_sigma(self, tmp_path, capsys, key, value):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2)
        text = ini.read_text()
        old = f"{key} = {'0.02' if key.startswith('accel') else '0.6'}\n"
        assert old in text
        ini.write_text(text.replace(old, f"{key} = {value}\n", 1))
        code = main(["simulate", "--out", str(tmp_path / "c"), "--params", str(ini)])
        assert code == EXIT_INVALID
        assert f"error: {key} must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_simulate_seed_out_of_range(self, tmp_path):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2)
        code = main(
            ["simulate", "--out", str(tmp_path / "c"), "--params", str(ini), "--seed", str(2**64)]
        )
        assert code == EXIT_INVALID

    def test_extract_missing_cohort(self, tmp_path, capsys):
        code = main(
            ["extract", "--cohort", str(tmp_path / "nope"), "--out", str(tmp_path / "m.csv")]
        )
        assert code == EXIT_FORMAT
        assert "cohort manifest not found" in capsys.readouterr().err

    def test_extract_degenerate_segment_still_writes_matrix(self, tmp_path, capsys):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2)
        cohort = tmp_path / "cohort"
        main(["simulate", "--out", str(cohort), "--params", str(ini)])
        victim = cohort / "P01_wrist.csv"
        stream = parse_recording(victim)
        silent = SensorStream(
            accel=np.zeros_like(stream.accel),
            gyro=np.zeros_like(stream.gyro),
            sample_rate_hz=stream.sample_rate_hz,
        )
        victim.write_bytes(write_recording(silent))

        matrix = tmp_path / "matrix.csv"
        code = main(["extract", "--cohort", str(cohort), "--out", str(matrix)])
        assert code == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert "failed cell:" in err
        assert "20 cells failed" in err
        rows = read_matrix(matrix)
        assert len(rows) == 4 * 5 * 4 * 2 - 20
        assert not any(
            r.subject_id == "P01" and r.placement is Placement.WRIST for r in rows
        )

    @pytest.mark.parametrize("rate", ["1e-310", "inf"])
    def test_extract_unusable_sample_rate(self, small_cohort, tmp_path, capsys, rate):
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        session = cohort / (cohort / COHORT_MANIFEST_NAME).read_text().split()[0]
        lines = session.read_text().splitlines()
        lines = [f"sample_rate_hz = {rate}" if l.startswith("sample_rate_hz") else l for l in lines]
        session.write_text("\n".join(lines) + "\n")
        code = main(["extract", "--cohort", str(cohort), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_INVALID
        assert "sample_rate_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["ax", "gx"])
    def test_extract_overflowing_norm_names_the_cell(self, small_cohort, tmp_path, capsys, column):
        # 1e200 is a finite sample, so the recording loads, but its squared norm is inf
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        start = parse_labels(cohort / "P01_labels.csv")[TaskKind.WH].s1
        corrupt_cell(cohort / "P01_wrist.csv", start + 1, column, "1e200")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["extract", "--cohort", str(cohort), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "error: P01 WH/complete/wrist: " in err
        assert "Traceback" not in err and "Warning" not in err

    def test_extract_ldlj_underflow_fails_the_cell(self, small_cohort, tmp_path, capsys):
        # a 3-sample window at 7.5e15 Hz whose jerk is one ulp of a 1.34e154
        # norm: T / peak^2 * integral underflows to 0.0, so LDLJ-A is computed
        # at 1 Hz and gets the value 128 Hz gives; only the two constant
        # subtasks of each placement fail
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        accel = np.zeros((80, 3))
        accel[:, 0] = np.nextafter(1.34e154, 0.0)
        accel[0, 0] = 1.34e154
        gyro = np.random.default_rng(5).normal(0.0, 1.0, (80, 3))
        subject = replace_first_session(cohort, 7.5e15, accel, gyro)
        params = tmp_path / "params.txt"
        params.write_text("min_segment_s = 1e-17\n")
        out = tmp_path / "m.csv"
        argv = ["extract", "--cohort", str(cohort), "--out", str(out), "--params", str(params)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_DEGENERATE, err
        constant = "dimensionless jerk is undefined: constant signal"
        assert f"failed cell: {subject} WH/sub2/wrist: {constant}" in err
        assert "4 cells failed" in err
        assert "underflows" not in err and "Warning" not in err
        rows = read_matrix(out)
        assert len(rows) == 3 * 5 * 4 * 2 + 4
        ours = {(r.segment, r.placement): r.features for r in rows if r.subject_id == subject}
        assert {segment for segment, _ in ours} == {SegmentKind.COMPLETE, SegmentKind.SUB1}
        at_128 = log_dimensionless_jerk(np.linalg.norm(accel[:3], axis=1), 128.0)
        for placement in Placement:
            assert ours[SegmentKind.SUB1, placement].ldlj_a == pytest.approx(at_128, rel=1e-14)
            assert ours[SegmentKind.SUB1, placement].ldlj_a == pytest.approx(72.1507, abs=1e-4)

    def test_extract_overflowing_jerk_names_the_cell(self, small_cohort, tmp_path, capsys):
        # the norms step between 0 and 1.3e154 every two samples: they are
        # finite, but the squared jerk overflows at 1e300 Hz and still does
        # at 1 Hz, so LDLJ-A is computed at 1 Hz from the norm scaled to a
        # peak near 1, and every cell has a value
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        accel = np.zeros((80, 3))
        accel[2::4, 0] = accel[3::4, 0] = 1.3e154
        gyro = np.random.default_rng(6).normal(0.0, 1.0, (80, 3))
        subject = replace_first_session(cohort, 1e300, accel, gyro)
        params = tmp_path / "params.txt"
        params.write_text("min_segment_s = 1e-300\n")
        out = tmp_path / "m.csv"
        argv = ["extract", "--cohort", str(cohort), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--params", str(params)])
        err = capsys.readouterr().err
        assert code == EXIT_OK, err
        assert "Traceback" not in err and "Warning" not in err
        complete = next(
            r.features
            for r in read_matrix(out)
            if (r.subject_id, r.task, r.segment, r.placement)
            == (subject, TaskKind.WH, SegmentKind.COMPLETE, Placement.WRIST)
        )
        want = log_dimensionless_jerk(accel[:9, 0] / 1.3e154, 128.0)
        assert complete.ldlj_a == pytest.approx(want, rel=1e-12)

    def test_extract_bad_last_session_writes_nothing(self, small_cohort, tmp_path, capsys):
        # sessions are extracted as they load, so every cell before the
        # bad session has been computed when its parse error ends the run
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        last = manifest_entries(cohort)[-1]
        corrupt_cell(cohort / recording_of(cohort / last), 2, "ax", "abc")
        out = tmp_path / "m.csv"
        code = main(["extract", "--cohort", str(cohort), "--out", str(out)])
        assert code == EXIT_FORMAT
        err = capsys.readouterr().err
        assert f"error: session {last}: " in err
        assert "failed cell:" not in err
        assert not out.exists()

    def test_extract_first_fault_in_manifest_order_decides(self, small_cohort, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        entries = manifest_entries(cohort)
        first = parse_session_manifest(cohort / entries[0])
        start = parse_labels(cohort / first.labels_path)[TaskKind.WH].s1
        corrupt_cell(cohort / first.recordings[Placement.WRIST], start + 1, "ax", "1e200")
        corrupt_cell(cohort / recording_of(cohort / entries[-1]), 2, "ax", "abc")
        out = tmp_path / "m.csv"
        code = main(["extract", "--cohort", str(cohort), "--out", str(out)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"error: {first.subject_id} WH/complete/wrist: " in err
        assert entries[-1] not in err
        assert not out.exists()

    def test_extract_repeated_subject(self, small_cohort, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        entries = manifest_entries(cohort)
        (cohort / COHORT_MANIFEST_NAME).write_text("\n".join(entries + entries[:1]) + "\n")
        out = tmp_path / "m.csv"
        code = main(["extract", "--cohort", str(cohort), "--out", str(out)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"error: session {entries[0]}: subject 'P01' is already in {entries[0]}" in err
        assert not out.exists()

    def test_extract_subject_id_with_a_comma(self, small_cohort, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        session = cohort / manifest_entries(cohort)[0]
        session.write_text(session.read_text().replace("subject_id = P01", "subject_id = P,01"))
        out = tmp_path / "m.csv"
        code = main(["extract", "--cohort", str(cohort), "--out", str(out)])
        assert code == EXIT_INVALID
        assert "subject_id must not contain a comma or line break, got 'P,01'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_extract_side_with_a_carriage_return(self, small_cohort, tmp_path, capsys):
        # lines end only at \n or \r\n, so a lone \r stays inside the value
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        session = cohort / manifest_entries(cohort)[0]
        session.write_bytes(session.read_bytes().replace(b"side = ", b"side = dominant\r"))
        out = tmp_path / "m.csv"
        code = main(["extract", "--cohort", str(cohort), "--out", str(out)])
        assert code == EXIT_INVALID
        assert "side must not contain a line break, got 'dominant\\r" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_repeated_matrix_row(self, tmp_path, capsys):
        rows = constant_matrix_rows()
        matrix = tmp_path / "matrix.csv"
        matrix.write_bytes(write_matrix(rows + rows[:1]))
        code = main(["compare", str(matrix), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        line = len(rows) + 2
        assert f"error: {matrix}:{line}: repeated row for P00 WH/complete/wrist" in (
            capsys.readouterr().err
        )

    def test_compare_subject_in_both_groups(self, tmp_path, capsys):
        rows = constant_matrix_rows()
        rows[-1] = dataclasses.replace(rows[-1], subject_id="P00")
        matrix = tmp_path / "matrix.csv"
        matrix.write_bytes(write_matrix(rows))
        code = main(["compare", str(matrix), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        message = f"error: {matrix}:{len(rows) + 1}: subject 'P00' is in both the patient"
        assert message in capsys.readouterr().err

    def test_compare_count_too_large_for_a_double(self, tmp_path, capsys):
        # a count is an integer of any length, but the statistics take it as a double
        rows = constant_matrix_rows()
        matrix = tmp_path / "matrix.csv"
        header, first, rest = write_matrix(rows).split(b"\n", 2)
        cells = first.split(b",")
        cells[5] = b"9" * 400
        matrix.write_bytes(b"\n".join([header, b",".join(cells), rest]))
        out_dir = tmp_path / "o"
        code = main(["compare", str(matrix), "--out", str(out_dir)])
        assert code == EXIT_INVALID
        assert f"error: {matrix}:2: nmcp_a is larger than the largest double" in (
            capsys.readouterr().err
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "subject, message",
        [
            ("", "subject_id must be non-empty"),
            (" P00 ", "subject_id must not start or end with whitespace, got ' P00 '"),
            ("P0\r0", "subject_id must not contain a comma or line break, got 'P0\\r0'"),
        ],
    )
    def test_compare_bad_subject_id(self, tmp_path, capsys, subject, message):
        # the rule a session manifest's subject_id follows
        matrix = tmp_path / "matrix.csv"
        header, first, rest = write_matrix(constant_matrix_rows()).decode().split("\n", 2)
        first = subject + first[len("P00"):]
        matrix.write_bytes("\n".join([header, first, rest]).encode())
        out_dir = tmp_path / "o"
        code = main(["compare", str(matrix), "--out", str(out_dir)])
        assert code == EXIT_INVALID
        assert f"error: {matrix}:2: {message}\n" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_compare_missing_matrix(self, tmp_path):
        code = main(["compare", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == EXIT_FORMAT

    def test_compare_bad_matrix_header(self, tmp_path):
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("subject,values\nP01,1.0\n")
        code = main(["compare", str(matrix), "--out", str(tmp_path / "o")])
        assert code == EXIT_FORMAT

    def test_compare_single_group_matrix(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_bytes(write_matrix(constant_matrix_rows(groups=(Group.PATIENT,))))
        code = main(["compare", str(matrix), "--out", str(tmp_path / "o")])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_compare_all_untestable(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.csv"
        matrix.write_bytes(write_matrix(constant_matrix_rows()))
        out_dir = tmp_path / "o"
        code = main(["compare", str(matrix), "--out", str(out_dir)])
        assert code == EXIT_DEGENERATE
        assert "260 cells were untestable" in capsys.readouterr().err
        assert main(["report", str(out_dir / DUMP_FILENAME)]) == EXIT_OK
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line in TASK_HEADINGS] == list(TASK_HEADINGS)

    @pytest.mark.parametrize(
        "patients, healthy",
        [
            pytest.param((0.0, 1.4e-85), (5.0, 5.0), id="dof-underflows"),
            pytest.param((0.0, 1e100), (0.0, 1.0), id="dof-overflows"),
            pytest.param((0.0, 1e200), (0.0, 1.0), id="variance-overflows"),
        ],
    )
    def test_compare_unrepresentable_statistics_are_untestable(
        self, tmp_path, capsys, patients, healthy
    ):
        # one rav cell of a 2v2 matrix whose other cells are all testable
        rav = dict(zip(("P0", "P1", "H0", "H1"), patients + healthy))
        rows = varied_matrix_rows()
        for i, row in enumerate(rows):
            if (row.task, row.segment, row.placement) == (
                TaskKind.WH, SegmentKind.COMPLETE, Placement.WRIST
            ):
                features = dataclasses.replace(row.features, rav=rav[row.subject_id])
                rows[i] = dataclasses.replace(row, features=features)
        matrix, out_dir = tmp_path / "matrix.csv", tmp_path / "o"
        matrix.write_bytes(write_matrix(rows))
        code = main(["compare", str(matrix), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_DEGENERATE, err
        assert "1 cells were untestable" in err
        table = shoulderkin.read_dump(out_dir / DUMP_FILENAME)
        assert table.cell(TaskKind.WH, "rav", Placement.WRIST, SegmentKind.COMPLETE) is None

    def test_compare_a_group_with_one_observation_is_untestable(
        self, seed42_cohort, tmp_path, capsys
    ):
        # without P01's WH/sub1/wrist row, one patient is left in the six
        # wrist cells of WH/sub1 and in its duration cell, which is read
        # from the wrist rows
        matrix, out_dir = tmp_path / "matrix.csv", tmp_path / "o"
        assert main(["extract", "--cohort", str(seed42_cohort), "--out", str(matrix)]) == EXIT_OK
        lines = matrix.read_bytes().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(b"P01,patient,WH,sub1,wrist,")]
        assert len(kept) == len(lines) - 1
        matrix.write_bytes(b"".join(kept))
        capsys.readouterr()
        code = main(["compare", str(matrix), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_DEGENERATE, err
        assert "7 cells were untestable" in err
        table = shoulderkin.read_dump(out_dir / DUMP_FILENAME)
        untestable = {key for key, cell in table.cells.items() if cell is None}
        features = ("nmcp_a", "np_a", "sparc", "ldlj_a", "rav", "pi")
        assert untestable == {
            (TaskKind.WH, feature, Placement.WRIST, SegmentKind.SUB1) for feature in features
        } | {(TaskKind.WH, "duration_s", None, SegmentKind.SUB1)}
        assert main(["report", str(out_dir / DUMP_FILENAME)]) == EXIT_OK
        out = capsys.readouterr().out
        wh_table = out[: out.index(TASK_HEADINGS[1])]
        assert out.count("n/a") == wh_table.count("n/a") == 7

    def test_report_truncated_dump(self, tmp_path):
        dump = tmp_path / "comparison.csv"
        dump.write_text("rule,strict\nn1,3\n")
        assert main(["report", str(dump)]) == EXIT_FORMAT

    def test_report_star_that_disagrees_with_p_and_d(self, tmp_path, capsys):
        # line 5 is the first cell: p = 0.0001234 and d = 1.52, starred
        lines = write_dump(build_reference_table()).decode().splitlines()
        assert lines[4] == "WH,nmcp_a,wrist,complete,ok,3.192,30.0,0.0001234,1.52,0.92,2.12,true"
        lines[4] = lines[4].replace(",true", ",false")
        dump = tmp_path / "comparison.csv"
        dump.write_text("\n".join(lines) + "\n")
        assert main(["report", str(dump)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {dump}:5: significant is false, but p = 0.0001234 and d = 1.52 "
            "under the strict rule give true\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("cell", ["WH,duration_s,wrist,complete", "WH,nmcp_a,NA,complete"])
    def test_report_misplaced_dump_row(self, tmp_path, capsys, cell):
        lines = write_dump(build_reference_table()).decode().splitlines()
        fields = lines[9].split(",")
        lines[9] = ",".join([cell, *fields[4:]])
        dump = tmp_path / "comparison.csv"
        dump.write_text("\n".join(lines) + "\n")
        assert main(["report", str(dump)]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: {dump}:10: not a grid cell: {cell!r}\n"

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--out", "x", "--bogus"])
        assert info.value.code == 2


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli")
    write_small_profile(work / "profile.ini", n_per_group=2)
    cohort = work / "cohort"
    argv = ["simulate", "--out", str(cohort), "--params", str(work / "profile.ini")]
    assert main(argv) == EXIT_OK
    return cohort


@pytest.fixture(scope="module")
def seed42_cohort(tmp_path_factory):
    work = tmp_path_factory.mktemp("seed42")
    write_small_profile(work / "profile.ini", n_per_group=2, seed=42)
    cohort = work / "cohort"
    argv = ["simulate", "--out", str(cohort), "--params", str(work / "profile.ini")]
    assert main(argv) == EXIT_OK
    return cohort


def recording_of(session_path):
    return parse_session_manifest(session_path).recordings[Placement.WRIST]


def replace_first_session(cohort, rate, accel, gyro):
    """Give the first session `accel` and `gyro` at `rate` on both placements
    and one WH label of three 3-sample subtasks; returns its subject id.

    Values are written with `repr`, so they read back bit for bit."""
    manifest_path = cohort / manifest_entries(cohort)[0]
    manifest = parse_session_manifest(manifest_path)
    body = np.column_stack((np.arange(len(accel)) / rate, accel, gyro)).tolist()
    text = RECORDING_HEADER + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in body)
    for rel in manifest.recordings.values():
        (cohort / rel).write_text(text)
    (cohort / manifest.labels_path).write_text(LABELS_HEADER + "\nWH,0,3,3,6,6,9\n")
    rated = dataclasses.replace(manifest, sample_rate_hz=rate)
    manifest_path.write_bytes(write_session_manifest(rated))
    return manifest.subject_id


def corrupt_cell(recording, line_index, column, text):
    """Replace one cell of a recording; `line_index` counts the header as 0."""
    lines = recording.read_text().splitlines()
    cells = lines[line_index].split(",")
    cells[RECORDING_HEADER.split(",").index(column)] = text
    lines[line_index] = ",".join(cells)
    recording.write_text("\n".join(lines) + "\n")


class TestExtractMemory:
    def extract_peak(self, cohort, out):
        """Peak bytes the Python allocator held during one `extract`."""
        tracemalloc.start()
        try:
            assert main(["extract", "--cohort", str(cohort), "--out", str(out)]) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_the_cohort(self, small_cohort, tmp_path):
        write_small_profile(tmp_path / "profile.ini", n_per_group=6)
        large = tmp_path / "cohort"
        argv = ["simulate", "--out", str(large), "--params", str(tmp_path / "profile.ini")]
        assert main(argv) == EXIT_OK
        # a first run pays the one-time allocations (lazy imports, caches)
        warm_up = ["extract", "--cohort", str(small_cohort), "--out", str(tmp_path / "w.csv")]
        assert main(warm_up) == EXIT_OK
        small_peak = self.extract_peak(small_cohort, tmp_path / "small.csv")
        large_peak = self.extract_peak(large, tmp_path / "large.csv")
        assert large_peak < 1.25 * small_peak, (small_peak, large_peak)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def second_recording(cohort, placement=Placement.WRIST):
    """A recording of entry 1, which the helper of `extract` reads."""
    manifest = parse_session_manifest(cohort / manifest_entries(cohort)[1])
    return cohort / manifest.recordings[placement]


def non_numeric_cell(cohort):
    corrupt_cell(second_recording(cohort), 5, "gy", "abc")


def missing_recording(cohort):
    second_recording(cohort, Placement.ARM).unlink()


def fifo_recording(cohort):
    recording = second_recording(cohort)
    recording.unlink()
    os.mkfifo(recording)


def non_utf8_recording(cohort):
    recording = second_recording(cohort, Placement.ARM)
    recording.write_bytes(recording.read_bytes().replace(b"\n", b"\xff\n", 7))


def crlf_recording(cohort):
    recording = second_recording(cohort)
    recording.write_bytes(recording.read_bytes().replace(b"\n", b"\r\n"))


def silent_recording(cohort):
    recording = second_recording(cohort)
    stream = parse_recording(recording)
    recording.write_bytes(
        write_recording(dataclasses.replace(stream, accel=0 * stream.accel, gyro=0 * stream.gyro))
    )


def duplicate_subject(cohort):
    entries = manifest_entries(cohort)
    (cohort / COHORT_MANIFEST_NAME).write_text("\n".join(entries + entries[:1]) + "\n")


def corrupt_sample(session_path, text):
    """Put `text` in a sample of the session's WH task on the wrist."""
    manifest = parse_session_manifest(session_path)
    start = parse_labels(session_path.parent / manifest.labels_path)[TaskKind.WH].s1
    corrupt_cell(session_path.parent / manifest.recordings[Placement.WRIST], start + 1, "ax", text)


def sample_before_a_broken_session(text):
    def corrupt(cohort):
        entries = manifest_entries(cohort)
        corrupt_sample(cohort / entries[0], text)
        corrupt_cell(cohort / recording_of(cohort / entries[-1]), 2, "ax", "abc")

    return corrupt


def broken_entries_1_and_2(cohort):
    # entry 1, the helper's, overflows when extracted; entry 2 cannot be parsed
    entries = manifest_entries(cohort)
    corrupt_sample(cohort / entries[1], "1e200")
    corrupt_cell(cohort / recording_of(cohort / entries[2]), 2, "ax", "abc")


def repeated_subject_that_overflows(cohort):
    # entry 1, the helper's, is a second session of entry 0's subject, and
    # its extraction raises: the repeated subject is the error
    entries = manifest_entries(cohort)
    manifest = parse_session_manifest(cohort / entries[0])
    wrist = "again_wrist.csv"
    shutil.copy(cohort / manifest.recordings[Placement.WRIST], cohort / wrist)
    recordings = {**manifest.recordings, Placement.WRIST: wrist}
    again = dataclasses.replace(manifest, recordings=recordings)
    (cohort / "again_session.txt").write_bytes(write_session_manifest(again))
    corrupt_sample(cohort / "again_session.txt", "1e200")
    lines = [entries[0], "again_session.txt", entries[2]]
    (cohort / COHORT_MANIFEST_NAME).write_text("\n".join(lines) + "\n")


class TestReadAhead:
    """`extract` splits the cohort directory by position, as `iter_cohort`
    and `load_cohort` do: one helper process reads (and extracts) the
    entries at odd positions, entry 1 among them. It gives what the
    in-process walk gives, and leaves no process behind."""

    @pytest.fixture
    def cohort(self, small_cohort, tmp_path):
        # three sessions
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        entries = manifest_entries(cohort)
        (cohort / COHORT_MANIFEST_NAME).write_text("\n".join(entries[:3]) + "\n")
        return cohort

    def extract(self, capsys, cohort, out):
        code = main(["extract", "--cohort", str(cohort), "--out", str(out)])
        matrix = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, capsys.readouterr().err, matrix

    @pytest.mark.parametrize(
        "corrupt, code",
        [
            (non_numeric_cell, EXIT_FORMAT),
            (missing_recording, EXIT_INVALID),
            (fifo_recording, EXIT_FORMAT),
            (non_utf8_recording, EXIT_FORMAT),
            (crlf_recording, EXIT_OK),
            (silent_recording, EXIT_DEGENERATE),
            (duplicate_subject, EXIT_INVALID),
            pytest.param(sample_before_a_broken_session("1e200"), EXIT_INVALID, id="overflowing"),
            pytest.param(sample_before_a_broken_session("1e309"), EXIT_INVALID, id="infinite"),
            (broken_entries_1_and_2, EXIT_INVALID),
            (repeated_subject_that_overflows, EXIT_INVALID),
        ],
    )
    def test_extract_matches_the_in_process_walker(
        self, cohort, tmp_path, capsys, monkeypatch, corrupt, code
    ):
        corrupt(cohort)
        out = tmp_path / "m.csv"
        result = self.extract(capsys, cohort, out)
        assert result[0] == code, result[1]
        if corrupt is repeated_subject_that_overflows:
            assert "is already in" in result[1]
        # `extract` looks the function up in `features` when it runs
        monkeypatch.setattr(
            features,
            "extract_cohort",
            lambda cohort, params: extract_cohort(in_process_sessions(cohort), params),
        )
        assert result == self.extract(capsys, cohort, out)

    def test_extract_ends_the_helper_before_its_error_leaves(self, cohort, tmp_path):
        # the traceback holds the suspended walkers, so only closing them ends the helper
        args = build_parser().parse_args(
            ["extract", "--cohort", str(cohort), "--out", str(tmp_path / "m.csv")]
        )
        # raised in this process's own session
        sample_before_a_broken_session("1e200")(cohort)
        with pytest.raises(ValidationError, match="WH/complete/wrist") as info:
            cmd_extract(args)
        assert_no_child_process()
        assert info.traceback
        # raised on taking a session the helper sent: entry 3 repeats entry 0
        entries = manifest_entries(cohort)
        entries[0] = entries[1]
        (cohort / COHORT_MANIFEST_NAME).write_text("\n".join(entries + entries[:1]) + "\n")
        with pytest.raises(CohortError, match="is already in") as info:
            cmd_extract(args)
        assert_no_child_process()
        assert info.traceback

    def test_iter_cohort_and_load_cohort_each_fork_one_helper(self, cohort, monkeypatch):
        # which ends once the walk is exhausted or closed
        want = [s.subject_id for s in in_process_sessions(cohort)]
        forked = record_forks(monkeypatch)
        sessions = ingest.iter_cohort(cohort)
        first = next(sessions)
        assert len(forked) == 1
        sessions.close()
        assert_no_child_process()
        loaded = ingest.load_cohort(cohort)
        assert len(forked) == 2
        assert_no_child_process()
        walked = [s.subject_id for s in ingest.iter_cohort(cohort)]
        assert len(forked) == 3
        assert_no_child_process()
        assert first.subject_id == want[0]
        assert [s.subject_id for s in loaded] == walked == want

    def test_parent_reads_the_rest_once_the_helper_dies(self, small_cohort, monkeypatch):
        # the helper sends P02 and stalls in H02; the parent kills it once it
        # reads H01, and then reads H02 itself
        want = extract_cohort(in_process_sessions(small_cohort))
        parent = os.getpid()
        forked = record_forks(monkeypatch)
        reads = []
        parse = ingest.parse_recording

        def read(path, *args):
            if os.getpid() != parent:
                if path.name.startswith("H02"):
                    time.sleep(60)  # the helper is killed here
            else:
                reads.append(path.name[:3])
                if path.name == "H01_wrist.csv":
                    os.kill(forked[0], signal.SIGKILL)
            return parse(path, *args)

        monkeypatch.setattr(ingest, "parse_recording", read)
        assert extract_cohort(small_cohort) == want
        assert reads == ["P01", "P01", "H01", "H01", "H02", "H02"]


@pytest.fixture(scope="module", params=[42, 1234])
def six_sessions(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(f"split{request.param}")
    write_small_profile(work / "profile.ini", n_per_group=3, seed=request.param)
    cohort = work / "cohort"
    argv = ["simulate", "--out", str(cohort), "--params", str(work / "profile.ini")]
    assert main(argv) == EXIT_OK
    return ingest.load_cohort(cohort)


def extracted(sessions, params=None):
    """`extract_cohort`'s rows, and each failure's class and message."""
    rows, failures = extract_cohort(sessions, params)
    return rows, [(type(err), str(err)) for err in failures]


def raised(sessions):
    """The class and message of the `ValidationError` that `extract_cohort` raises."""
    with pytest.raises(ValidationError) as info:
        extract_cohort(sessions)
    return type(info.value), str(info.value)


def short_subtasks(session):
    """`session` with WH's first two subtasks cut to 2 samples, too few for most features."""
    label = session.labels[TaskKind.WH]
    short = SegmentLabel(label.s1, label.s1 + 2, label.s1 + 4, label.e3)
    return dataclasses.replace(session, labels={**session.labels, TaskKind.WH: short})


def overflowing(session):
    """`session` with a wrist sample inside WH whose square overflows."""
    stream = session.streams[Placement.WRIST]
    accel = stream.accel.copy()
    accel[session.labels[TaskKind.WH].s1 + 1, 0] = 1e200
    streams = {**session.streams, Placement.WRIST: dataclasses.replace(stream, accel=accel)}
    return dataclasses.replace(session, streams=streams)


class TestListSplit:
    """`extract_cohort` on a list hands the sessions at odd positions to one
    helper process, and gives what the in-process walk of an iterator gives:
    the same rows, failures and error, in the same order."""

    @pytest.mark.parametrize("pad", [0, 4])
    def test_a_list_matches_the_in_process_walk(self, six_sessions, monkeypatch, pad):
        params = FeatureParams(sparc_pad_level=pad)
        forked = record_forks(monkeypatch)
        got = extracted(six_sessions, params)
        assert len(forked) == 1
        assert got == extracted(iter(six_sessions), params)
        assert len(got[0]) == 6 * len(TaskKind) * len(SegmentKind) * len(Placement)

    @pytest.mark.parametrize("positions", [(3,), (1, 2), (1, 5)])
    def test_failing_cells_in_helper_sessions(self, six_sessions, positions, monkeypatch):
        sessions = [short_subtasks(s) if i in positions else s for i, s in enumerate(six_sessions)]
        want = extracted(iter(sessions))
        parent = os.getpid()
        calls = []
        extract_session = features._extract_session

        def extract(session, *args):
            if os.getpid() == parent:
                calls.append(session)
            return extract_session(session, *args)

        monkeypatch.setattr(features, "_extract_session", extract)
        got = extracted(sessions)
        # WH sub1 and sub2 fail on each placement
        assert len(got[1]) == 2 * len(Placement) * len(positions)
        assert got == want
        # the helper sends its sessions' failures, so this process extracts only its own
        assert calls == sessions[::2]

    def test_an_invalid_value_in_a_helper_session(self, six_sessions):
        sessions = [overflowing(s) if i == 3 else s for i, s in enumerate(six_sessions)]
        got = raised(sessions)
        assert got == raised(iter(sessions))
        assert got[1].startswith(f"{sessions[3].subject_id} WH/")

    def test_the_first_invalid_session_in_order_raises(self, six_sessions):
        sessions = [overflowing(s) if i in (2, 3) else s for i, s in enumerate(six_sessions)]
        got = raised(sessions)
        assert got == raised(iter(sessions))
        assert got[1].startswith(f"{sessions[2].subject_id} WH/")

    def test_without_a_fork_the_list_is_extracted_in_process(self, six_sessions, monkeypatch):
        want = extracted(iter(six_sessions))
        calls = []
        extract_session = features._extract_session
        monkeypatch.setattr(
            features,
            "_extract_session",
            lambda session, *args: calls.append(session) or extract_session(session, *args),
        )

        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        assert extracted(six_sessions) == want
        assert calls == six_sessions

    def test_parent_extracts_the_rest_once_the_helper_dies(self, six_sessions, monkeypatch):
        want = extracted(iter(six_sessions))
        forked = record_forks(monkeypatch)
        parent = os.getpid()
        calls = []
        extract_session = features._extract_session

        def extract(session, *args):
            if os.getpid() == parent:
                calls.append(session)
                if len(calls) == 2:  # session 2: the helper has sent session 1
                    os.kill(forked[0], signal.SIGKILL)
            elif session is six_sessions[3]:
                time.sleep(60)  # the helper is killed here
            return extract_session(session, *args)

        monkeypatch.setattr(features, "_extract_session", extract)
        assert extracted(six_sessions) == want
        assert calls == [six_sessions[i] for i in (0, 2, 3, 4, 5)]

    def test_one_fork_for_a_list_and_none_for_one_session_or_an_iterator(
        self, seed42_cohort, tmp_path, monkeypatch
    ):
        # a worker count or a fork per session would show here
        forked = record_forks(monkeypatch)
        synth.generate_cohort(default_profile(n_per_group=2), tmp_path / "cohort")
        assert len(forked) == 1
        sessions = ingest.load_cohort(seed42_cohort)
        assert len(forked) == 2
        list(ingest.iter_cohort(seed42_cohort))
        assert len(forked) == 3
        extract_cohort(sessions)
        assert len(forked) == 4
        extract_cohort(sessions[:2])
        assert len(forked) == 5
        extract_cohort(seed42_cohort)
        assert len(forked) == 6
        extract_cohort(str(seed42_cohort))
        assert len(forked) == 7
        one = tmp_path / "one"
        shutil.copytree(seed42_cohort, one)
        (one / COHORT_MANIFEST_NAME).write_text(manifest_entries(one)[0] + "\n")
        extract_cohort(one)
        ingest.load_cohort(one)
        extract_cohort(sessions[:1])
        extract_cohort(session for session in sessions)
        assert len(forked) == 7
        # the one fork is the walk's own: `extract_cohort` forks none for an iterator
        extract_cohort(ingest.iter_cohort(seed42_cohort))
        assert len(forked) == 8


class TestSimulateWriter:
    """`simulate` fails as one process writing the sessions in order does,
    though its helper process writes every other one (P02 and H02 here)."""

    @pytest.mark.parametrize(
        "blocked", [("P02", "H01"), ("P02",), ("H01",), ("P01", "P02"), ("H02",)]
    )
    def test_simulate_matches_the_in_process_writer(self, tmp_path, capsys, monkeypatch, blocked):
        profile = tmp_path / "profile.ini"
        write_small_profile(profile, n_per_group=2)
        out = tmp_path / "cohort"

        def simulate():
            shutil.rmtree(out, ignore_errors=True)
            for sid in blocked:  # a directory where a recording goes
                (out / f"{sid}_wrist.csv").mkdir(parents=True)
            code = main(["simulate", "--out", str(out), "--params", str(profile)])
            return code, capsys.readouterr().err, (out / COHORT_MANIFEST_NAME).exists()

        result = simulate()
        assert result[0] != EXIT_OK
        assert f"{blocked[0]}_wrist.csv" in result[1]
        assert not result[2]
        monkeypatch.setattr(synth, "generate_cohort", write_in_process)
        assert result == simulate()

    def test_a_failed_simulate_leaves_no_earlier_manifest(self, tmp_path, capsys):
        # the earlier manifest would list the old sessions the run did not
        # rewrite beside the new ones, and `extract` would read the mix
        profile = tmp_path / "profile.ini"
        write_small_profile(profile, n_per_group=2)
        out = tmp_path / "cohort"
        argv = ["simulate", "--out", str(out), "--params", str(profile)]
        assert main(argv + ["--seed", "42"]) == EXIT_OK
        (out / "H01_wrist.csv").unlink()
        (out / "H01_wrist.csv").mkdir()  # a directory where a recording goes
        assert main(argv) != EXIT_OK
        assert "H01_wrist.csv" in capsys.readouterr().err
        assert not (out / COHORT_MANIFEST_NAME).exists()
        extract = ["extract", "--cohort", str(out), "--out", str(tmp_path / "m.csv")]
        assert main(extract) == EXIT_FORMAT  # no cohort manifest


class TestAllOrNothingOutputs:
    """An interrupt while an output is written leaves the old file, or
    none, and no temporary file beside it."""

    @staticmethod
    def interrupt_writes(monkeypatch):
        write_bytes = Path.write_bytes

        def write_half(path, data):
            if path.name.endswith(".tmp"):
                write_bytes(path, data[: len(data) // 2])
                raise KeyboardInterrupt
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_half)

    @pytest.mark.parametrize("old", [b"old\n", None])
    @pytest.mark.parametrize("command", ["extract", "compare", "report"])
    def test_an_interrupted_output(self, seed42_cohort, tmp_path, monkeypatch, command, old):
        matrix, out_dir, text = tmp_path / "matrix.csv", tmp_path / "out", tmp_path / "report.txt"
        assert main(["extract", "--cohort", str(seed42_cohort), "--out", str(matrix)]) == EXIT_OK
        assert main(["compare", str(matrix), "--out", str(out_dir)]) == EXIT_OK
        dump = out_dir / DUMP_FILENAME
        argv, target = {
            "extract": (["extract", "--cohort", str(seed42_cohort), "--out", str(matrix)], matrix),
            "compare": (["compare", str(matrix), "--out", str(out_dir)], dump),
            "report": (["report", str(dump), "--out", str(text)], text),
        }[command]
        target.unlink(missing_ok=True)
        if old is not None:
            target.write_bytes(old)
        self.interrupt_writes(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert (target.read_bytes() if target.exists() else None) == old
        assert not list(target.parent.glob(".*"))

    def test_an_interrupted_simulate_leaves_no_manifest(self, tmp_path, monkeypatch):
        profile = tmp_path / "profile.ini"
        write_small_profile(profile, n_per_group=2)
        argv = ["simulate", "--out", str(tmp_path / "cohort"), "--params", str(profile)]
        assert main(argv) == EXIT_OK
        self.interrupt_writes(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert not (tmp_path / "cohort" / COHORT_MANIFEST_NAME).exists()
        assert not list((tmp_path / "cohort").glob(".*"))


class TestFeatureParamsFile:
    def extract(self, cohort, out, params=None):
        argv = ["extract", "--cohort", str(cohort), "--out", str(out)]
        return main(argv + (["--params", str(params)] if params else []))

    def test_overrides_change_the_matrix(self, small_cohort, tmp_path):
        params = tmp_path / "params.txt"
        params.write_text("# coarser SPARC spectrum\n\nsparc_pad_level = 2\n")
        assert self.extract(small_cohort, tmp_path / "default.csv") == EXIT_OK
        assert self.extract(small_cohort, tmp_path / "pad2.csv", params) == EXIT_OK
        default = read_matrix(tmp_path / "default.csv")
        pad2 = read_matrix(tmp_path / "pad2.csv")
        assert len(pad2) == len(default)
        assert [r.features.sparc for r in pad2] != [r.features.sparc for r in default]
        assert [r.features.ldlj_a for r in pad2] == [r.features.ldlj_a for r in default]

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("sparc_padding = 2\n", EXIT_FORMAT, ":1: unknown key 'sparc_padding'"),
            ("# ok\nsparc_pad_level = two\n", EXIT_FORMAT, ":2: cannot parse value"),
            ("sparc_pad_level = 2.0\n", EXIT_FORMAT, ":1: cannot parse value"),
            ("sparc_pad_level = 60\n", EXIT_INVALID, "sparc_pad_level must be an integer in"),
            ("peak_prominence_frac = 1.5\n", EXIT_INVALID, "peak_prominence_frac must be in (0,1)"),
            ("min_segment_s = inf\n", EXIT_INVALID, "min_segment_s must be positive and finite"),
            ("min_segment_s = nan\n", EXIT_INVALID, "min_segment_s must be positive and finite"),
        ],
    )
    def test_bad_file_exit_codes(self, tmp_path, capsys, text, code, message):
        params = tmp_path / "params.txt"
        params.write_text(text)
        # the params are read before the cohort, so no cohort is needed
        assert self.extract(tmp_path / "no-cohort", tmp_path / "m.csv", params) == code
        assert message in capsys.readouterr().err

    def test_crlf_file_parses_like_lf(self, tmp_path):
        text = "# tuned\nsparc_pad_level = 2\nmin_segment_s = 0.5\n"
        (tmp_path / "lf.txt").write_bytes(text.encode())
        (tmp_path / "crlf.txt").write_bytes(text.replace("\n", "\r\n").encode())
        lf = _load_feature_params(tmp_path / "lf.txt")
        assert lf == _load_feature_params(tmp_path / "crlf.txt")
        assert (lf.sparc_pad_level, lf.min_segment_s) == (2, 0.5)


class TestUnreadableInputs:
    COMMANDS = {
        "compare": lambda path, out: ["compare", path, "--out", out],
        "report": lambda path, out: ["report", path],
        "extract": lambda path, out: ["extract", "--cohort", out, "--out", out, "--params", path],
        "simulate": lambda path, out: ["simulate", "--out", out, "--params", path],
    }

    def run(self, capsys, command, path, out):
        code = main(self.COMMANDS[command](str(path), str(out)))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: {path}")
        return code, err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_non_utf8_file_exits_format(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"rule,strict\n\xff\n")
        code, err = self.run(capsys, command, bad, tmp_path / "out")
        assert code == EXIT_FORMAT
        assert "not valid UTF-8" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_directory_exits_format(self, tmp_path, capsys, command):
        code, err = self.run(capsys, command, tmp_path, tmp_path / "out")
        assert code == EXIT_FORMAT
        assert "cannot read" in err


class TestConsoleScript:
    def test_help_runs(self):
        exe = shutil.which("shoulderkin")
        if exe is not None:
            proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        else:
            # not installed: run the target pyproject.toml names for the script
            tomllib = pytest.importorskip("tomllib")
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["shoulderkin"]
            module, func = target.split(":")
            code = f"import sys; from {module} import {func}; sys.exit({func}())"
            proc = run_python("-c", code, "--help")
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "report" in proc.stdout


SRC_DIR = str(Path(shoulderkin.__file__).resolve().parents[1])


def python_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    # one BLAS thread keeps numpy's own address-space reservations small
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}


def run_python(*args, cwd=None, timeout=None):
    """Run a fresh interpreter that imports this checkout's package."""
    env = python_env()
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout
    )


class TestFreshProcess:
    # runs one subcommand, then lists which of scipy, configparser and
    # multiprocessing it loaded: the package needs none of them
    PROBE = (
        "import sys\n"
        "import shoulderkin\n"
        "code = shoulderkin.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "unused = {'scipy', 'configparser', 'multiprocessing'}\n"
        "print(sorted({m.partition('.')[0] for m in sys.modules} & unused))\n"
        "sys.exit(code)\n"
    )

    @pytest.fixture(scope="class")
    def inputs(self, small_cohort, tmp_path_factory):
        work = tmp_path_factory.mktemp("fresh")
        write_small_profile(work / "profile.ini", n_per_group=2)
        (work / "out").mkdir()
        rng = np.random.default_rng(3)
        # one random vector per subject, so every comparison cell is testable
        per_subject = {}
        rows = []
        for r in constant_matrix_rows():
            if r.subject_id not in per_subject:
                counts = rng.integers(0, 9, 2).tolist()
                reals = (rng.uniform(0.5, 4.0, 5) * (-1, -1, 1, 1, 1)).tolist()
                per_subject[r.subject_id] = FeatureVector(*counts, *reals)
            rows.append(dataclasses.replace(r, features=per_subject[r.subject_id]))
        (work / "m.csv").write_bytes(write_matrix(rows))
        assert main(["compare", str(work / "m.csv"), "--out", str(work / "cmp")]) == EXIT_OK
        return {
            "profile": str(work / "profile.ini"),
            "cohort": str(small_cohort),
            "matrix": str(work / "m.csv"),
            "dump": str(work / "cmp" / DUMP_FILENAME),
            "out": str(work / "out"),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["simulate", "--out", "{out}/cohort", "--params", "{profile}"],
            ["extract", "--cohort", "{cohort}", "--out", "{out}/m.csv"],
            ["compare", "{matrix}", "--out", "{out}/cmp"],
            ["report", "{dump}", "--out", "{out}/report.txt"],
        ],
        ids=["import", "simulate", "extract", "compare", "report"],
    )
    def test_no_subcommand_loads_scipy(self, inputs, argv):
        proc = run_python("-c", self.PROBE, *[arg.format(**inputs) for arg in argv])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    # runs one subcommand through the documented entry point, then says
    # whether numpy was loaded
    NUMPY_PROBE = (
        "import sys\n"
        "from shoulderkin.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["compare", "{matrix}", "--out", "{out}/cmp-numpy"],
            ["compare", "{matrix}", "--out", "{out}/cmp-numpy-inclusive", "--rule", "inclusive"],
            ["report", "{dump}"],
            ["report", "{dump}", "--out", "{out}/report-numpy.txt"],
        ],
        ids=["import", "compare", "compare-inclusive", "report-stdout", "report"],
    )
    def test_compare_and_report_load_no_numpy(self, inputs, argv):
        # both read and write only text; numpy would double their run time
        proc = run_python("-c", self.NUMPY_PROBE, *[arg.format(**inputs) for arg in argv])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_extract_loads_numpy(self, inputs):
        # the probe itself can see numpy
        argv = ["extract", "--cohort", inputs["cohort"], "--out", inputs["out"] + "/m-numpy.csv"]
        proc = run_python("-c", self.NUMPY_PROBE, *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"

    # imports the package, then lists the package modules in sys.modules and
    # whether each function the benchmark's tracer wraps is found there by name
    REGISTRY_PROBE = (
        "import importlib.util, json, sys\n"
        "import shoulderkin\n"
        "modules = sorted(name for name in sys.modules if name.startswith('shoulderkin.'))\n"
        "numpy = 'numpy' in sys.modules\n"
        "spec = importlib.util.spec_from_file_location('perfbench_spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "found = [\n"
        "    f'{module}.{name}' for module, name, _ in spans.WRAPPED\n"
        "    if callable(getattr(sys.modules[f'shoulderkin.{module}'], name, None))\n"
        "]\n"
        "print(json.dumps({'modules': modules, 'numpy': numpy, 'found': found}))\n"
    )

    def test_import_registers_every_module_where_the_tracer_finds_it(self):
        # perfbench/spans.py looks each wrapped function up as
        # sys.modules["shoulderkin.<module>"].<name> right after the import
        spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        proc = run_python("-c", self.REGISTRY_PROBE, str(spans))
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        package = Path(shoulderkin.__file__).parent
        stems = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
        assert got["modules"] == sorted(f"shoulderkin.{stem}" for stem in stems)
        assert not got["numpy"]
        spec = importlib.util.spec_from_file_location("perfbench_spans", spans)
        wrapped = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(wrapped)
        assert got["found"] == [f"{module}.{name}" for module, name, _ in wrapped.WRAPPED]

    def test_python_m_runs_the_cli_without_warnings(self, tmp_path):
        proc = run_python("-m", "shoulderkin", "--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "simulate" in proc.stdout


def has_exited(pid):
    """Whether process `pid` is gone or a zombie, from its /proc stat line."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    # the state follows the command name, which is in parentheses
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


class TestKilledSimulate:
    """A `simulate` process killed with SIGKILL leaves no helper running.

    The helper writes the session it is on, finds the pipe to its dead
    parent broken when it sends that session, and exits. Nothing else
    reaps it here: once its parent is gone it belongs to PID 1, which in a
    container may leave it a zombie."""

    # `simulate`, with the helper's pid written to the file named first
    CHILD = (
        "import os, sys\n"
        "fork = os.fork\n"
        "def recording_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        with open(sys.argv[1] + '.part', 'w') as out:\n"
        "            out.write(str(pid))\n"
        "        os.replace(sys.argv[1] + '.part', sys.argv[1])\n"
        "    return pid\n"
        "os.fork = recording_fork\n"
        "from shoulderkin.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )

    def test_a_killed_simulate_leaves_no_helper(self, tmp_path):
        # 200v200 sessions take several seconds to write; the kill comes
        # once the first recording is on disk
        write_small_profile(tmp_path / "profile.ini", n_per_group=200)
        cohort, pid_file = tmp_path / "cohort", tmp_path / "helper.pid"
        argv = ["simulate", "--params", str(tmp_path / "profile.ini"), "--out", str(cohort)]
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(pid_file), *argv],
            env=python_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not (pid_file.exists() and any(cohort.glob("*.csv"))):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        helper = int(pid_file.read_text())
        at_kill = set(os.listdir(cohort))
        deadline = time.monotonic() + 10
        while not has_exited(helper):
            assert time.monotonic() < deadline, "the helper outlived its parent by 10 s"
            time.sleep(0.01)
        written = set(os.listdir(cohort))
        assert "cohort.txt" not in written
        # at most the rest of one session: two recordings, labels and manifest
        assert len(written - at_kill) <= 4, sorted(written - at_kill)


class TestSpecialFiles:
    """A recording that is a FIFO or a device is refused before any read.

    Each run is a child process under an address-space limit and a timeout,
    so code that blocks on the FIFO or reads /dev/zero to the end fails the
    test instead of hanging or filling the machine's memory."""

    PROBE = (
        "import resource, sys\n"
        "limit = 512 << 20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "import shoulderkin\n"
        "sys.exit(shoulderkin.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("kind", ["fifo", "/dev/zero", "/dev/null"])
    def test_special_recording_exits_format(self, small_cohort, tmp_path, kind):
        if kind == "fifo":
            special = tmp_path / "wrist.fifo"
            os.mkfifo(special)
        else:
            special = Path(kind)
            if not special.exists():
                pytest.skip(f"{kind} does not exist here")
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort, cohort)
        session = cohort / manifest_entries(cohort)[0]
        manifest = parse_session_manifest(session)
        recordings = {**manifest.recordings, Placement.WRIST: str(special)}
        session.write_bytes(
            write_session_manifest(dataclasses.replace(manifest, recordings=recordings))
        )
        argv = ["extract", "--cohort", str(cohort), "--out", str(tmp_path / "m.csv")]
        proc = run_python("-c", self.PROBE, *argv, timeout=60)
        assert proc.returncode == EXIT_FORMAT, proc.stderr
        assert f"{special}: not a regular file" in proc.stderr
        assert "Traceback" not in proc.stderr
