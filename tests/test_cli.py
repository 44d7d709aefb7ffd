"""Command-line pipeline: simulate -> extract -> compare -> report."""

import dataclasses
import os
import shutil
import subprocess
import sys
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
        victim = cohort / "P01_wrist.csv"
        lines = victim.read_text().splitlines()
        cells = lines[start + 1].split(",")
        cells[RECORDING_HEADER.split(",").index(column)] = "1e200"
        lines[start + 1] = ",".join(cells)
        victim.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["extract", "--cohort", str(cohort), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "error: P01 WH/complete/wrist: " in err
        assert "Traceback" not in err and "Warning" not in err

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
