"""Command-line pipeline: simulate -> extract -> compare -> report."""

import dataclasses
import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import shoulderkin
from shoulderkin import default_profile, main, read_matrix, write_matrix, write_profile
from shoulderkin.cli import (
    DUMP_FILENAME,
    EXIT_DEGENERATE,
    EXIT_FORMAT,
    EXIT_INVALID,
    EXIT_OK,
    _load_feature_params,
)
from shoulderkin.features import FeatureRow
from shoulderkin.ingest import (
    COHORT_MANIFEST_NAME,
    RECORDING_HEADER,
    parse_labels,
    parse_recording,
    parse_session_manifest,
    write_recording,
)
from shoulderkin.model import FeatureVector, Group, Placement, SegmentKind, SensorStream, TaskKind

TABLE_NAMES = ("wh.txt", "wub.txt", "wlb.txt", "poh.txt", "rop.txt")


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


class TestPipeline:
    def test_full_run_produces_all_outputs(self, tmp_path, capsys):
        cohort, matrix, out_dir = run_pipeline(tmp_path)
        assert (cohort / COHORT_MANIFEST_NAME).exists()
        assert len(list(cohort.glob("*_session.txt"))) == 6
        assert len(read_matrix(matrix)) == 6 * 5 * 4 * 2
        assert (out_dir / DUMP_FILENAME).exists()
        for name in TABLE_NAMES:
            assert (out_dir / name).exists()

        report_path = tmp_path / "report.txt"
        assert main(["report", str(out_dir / DUMP_FILENAME), "--out", str(report_path)]) == EXIT_OK
        text = report_path.read_text(encoding="utf-8")
        assert "WH: Washing hair" in text
        assert "ROP: Removing an object from back pocket" in text
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

    def test_seed_override_changes_data(self, tmp_path):
        ini = tmp_path / "profile.ini"
        write_small_profile(ini, n_per_group=2, seed=31)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), "--params", str(ini)]) == EXIT_OK
        assert (
            main(["simulate", "--out", str(b), "--params", str(ini), "--seed", "32"]) == EXIT_OK
        )
        assert (a / "P01_wrist.csv").read_bytes() != (b / "P01_wrist.csv").read_bytes()

    def test_compare_table_only_format(self, tmp_path):
        # 2-per-group cohorts can tie the integer count features in both
        # groups, which makes a handful of cells untestable; 3 per group
        # keeps this a clean exit-0 path
        ini = tmp_path / "profile.ini"
        write_small_profile(ini)
        cohort, matrix = tmp_path / "cohort", tmp_path / "matrix.csv"
        main(["simulate", "--out", str(cohort), "--params", str(ini)])
        main(["extract", "--cohort", str(cohort), "--out", str(matrix)])
        out_dir = tmp_path / "tables"
        assert (
            main(["compare", str(matrix), "--out", str(out_dir), "--format", "table"]) == EXIT_OK
        )
        assert not (out_dir / DUMP_FILENAME).exists()
        for name in TABLE_NAMES:
            assert (out_dir / name).exists()


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
        assert (out_dir / DUMP_FILENAME).exists()
        assert (out_dir / "wh.txt").exists()

    def test_report_truncated_dump(self, tmp_path):
        dump = tmp_path / "comparison.csv"
        dump.write_text("rule,strict\nn1,3\n")
        assert main(["report", str(dump)]) == EXIT_FORMAT

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


def manifest_entries(cohort):
    return (cohort / COHORT_MANIFEST_NAME).read_text().split()


def recording_of(session_path):
    return parse_session_manifest(session_path).recordings[Placement.WRIST]


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
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
        assert "report" in proc.stdout


SRC_DIR = str(Path(shoulderkin.__file__).resolve().parents[1])


def run_python(*args, cwd=None):
    """Run a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


class TestFreshProcess:
    # runs one subcommand, then reports whether any scipy module was loaded
    PROBE = (
        "import sys\n"
        "import shoulderkin\n"
        "code = shoulderkin.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n"
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
        assert proc.stdout.splitlines()[-1] == "False"

    def test_python_m_runs_the_cli_without_warnings(self, tmp_path):
        proc = run_python("-m", "shoulderkin", "--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "simulate" in proc.stdout
