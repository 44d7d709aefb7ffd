"""On-disk format round-trips and strict-parser diagnostics."""

import errno
import multiprocessing
import os
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from builders import session_manifest
from cohort_oracle import in_process_sessions
from shoulderkin import (
    BoundaryError,
    CohortError,
    ParseError,
    ValidationError,
    default_profile,
    ingest,
    load_cohort,
    read_matrix,
    write_profile,
)
from shoulderkin.formats import (
    MATRIX_HEADER,
    Group,
    Placement,
    TaskKind,
    parse_key_values,
    read_lines,
    write_atomically,
    write_chunks,
)
from shoulderkin.ingest import (
    LABELS_HEADER,
    RECORDING_HEADER,
    iter_cohort,
    load_session,
    save_cohort,
    save_session,
    walk_cohort,
    parse_labels,
    parse_recording,
    parse_session_manifest,
    write_labels,
    write_recording,
    write_session_manifest,
)
from shoulderkin.model import SegmentLabel, SensorStream, Session

RATE = 128.0


def quantized_stream(rng, n, rate=RATE):
    """A stream whose values survive 9-significant-digit rendering exactly.

    Six decimal places under 1000 in magnitude never exceed nine
    significant digits, which is how real sensor exports look anyway.
    """
    accel = np.round(rng.normal(0.0, 20.0, (n, 3)), 6)
    gyro = np.round(rng.normal(0.0, 200.0, (n, 3)), 6)
    return SensorStream(accel=accel, gyro=gyro, sample_rate_hz=rate)


def noisy_stream(n):
    """Full-precision samples, whose cells mostly take all nine digits."""
    rng = np.random.default_rng(127)
    return SensorStream(
        accel=rng.normal(0.0, 20.0, (n, 3)),
        gyro=rng.normal(0.0, 200.0, (n, 3)),
        sample_rate_hz=RATE,
    )


class TestRecordingRoundTrip:
    def test_quantized_values_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(103)
        for i in range(20):
            stream = quantized_stream(rng, int(rng.integers(1, 400)))
            path = tmp_path / f"rec_{i}.csv"
            path.write_bytes(write_recording(stream))
            back = parse_recording(path, RATE)
            assert np.array_equal(back.accel, stream.accel)
            assert np.array_equal(back.gyro, stream.gyro)
            assert back.sample_rate_hz == RATE

    def test_arbitrary_doubles_stay_within_nine_digit_drift(self, tmp_path):
        rng = np.random.default_rng(107)
        stream = SensorStream(
            accel=rng.normal(0.0, 20.0, (300, 3)),
            gyro=rng.normal(0.0, 200.0, (300, 3)),
            sample_rate_hz=RATE,
        )
        path = tmp_path / "rec.csv"
        path.write_bytes(write_recording(stream))
        back = parse_recording(path, RATE)
        for a, b in ((back.accel, stream.accel), (back.gyro, stream.gyro)):
            denom = np.maximum(np.abs(b), 1e-12)
            assert np.max(np.abs(a - b) / denom) < 1e-8

    def test_header_and_time_column(self, tmp_path):
        rng = np.random.default_rng(109)
        stream = quantized_stream(rng, 5)
        text = write_recording(stream).decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "time_s,ax,ay,az,gx,gy,gz"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "0"
        assert float(lines[2].split(",")[0]) == pytest.approx(1.0 / RATE)
        assert "\r" not in text

    def test_crlf_input_accepted(self, tmp_path):
        rng = np.random.default_rng(113)
        stream = quantized_stream(rng, 8)
        path = tmp_path / "rec.csv"
        path.write_bytes(write_recording(stream).replace(b"\n", b"\r\n"))
        back = parse_recording(path, RATE)
        assert np.array_equal(back.accel, stream.accel)

    def test_writer_holds_one_small_block_of_temporaries(self):
        # Beside the rendered blocks and their join, the writer holds one
        # block's rows and temporaries, about 1.3 KB a row: under 1 MB at
        # 512 rows, where 2048-row blocks took about 3.7 MB.
        stream = noisy_stream(20_000)
        write_recording(stream)  # builds the writer's tables once
        tracemalloc.start()
        try:
            data = write_recording(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(data) + 1_000_000, (peak, len(data))

    def test_a_block_renders_without_an_index_of_its_bytes(self):
        # The kernel's temporaries take about 1.3 KB a row. An index of the
        # bytes each block shows, 8 bytes per byte of text, took about 1.8.
        stream = noisy_stream(ingest._BLOCK_ROWS)
        rows = np.column_stack((stream.times_s(), stream.accel, stream.gyro))
        ingest._format_rows(rows)  # builds the writer's tables once
        tracemalloc.start()
        try:
            ingest._format_rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ingest._BLOCK_ROWS * 1_550, peak

    def test_saving_holds_one_block_whatever_the_length(self, tmp_path):
        # one block's rows and temporaries, about 0.7 MB, and the text of
        # two blocks; rendering the whole recording before the write held
        # 4.3 MB at 20,000 rows and 21 MB at 100,000
        write_recording(noisy_stream(1))  # builds the writer's tables once
        peaks = []
        for n in (20_000, 100_000):
            stream = noisy_stream(n)
            path = tmp_path / f"rec_{n}.csv"
            tracemalloc.start()
            try:
                ingest.save_recording(stream, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert path.read_bytes() == write_recording(stream)
        assert max(peaks) < ingest._BLOCK_ROWS * 2_000 + 500_000, peaks
        assert peaks[1] < peaks[0] + 50_000, peaks

    def test_row_ranges_join_to_the_whole_recording(self):
        stream = noisy_stream(3 * ingest._BLOCK_ROWS + 5)
        n = stream.n_samples
        edges = [0, 1, 7, ingest._BLOCK_ROWS, ingest._BLOCK_ROWS + 2, 2 * ingest._BLOCK_ROWS + 3, n]
        parts = [write_recording(stream, a, b) for a, b in zip(edges, edges[1:])]
        assert parts[0].startswith(RECORDING_HEADER.encode() + b"\n0,")
        assert b"".join(parts) == write_recording(stream) == write_recording(stream, 0, n)
        assert write_recording(stream, 5, 5) == b""
        for start, stop in ((-1, 3), (4, 3), (0, n + 1)):
            with pytest.raises(ValueError, match=f"rows {start} to {stop} are not within {n}"):
                write_recording(stream, start, stop)

    def test_time_column_is_informative_only(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n999.5,1,2,3,4,5,6\n")
        stream = parse_recording(path, RATE)
        assert stream.n_samples == 1
        assert np.array_equal(stream.accel[0], [1.0, 2.0, 3.0])


class TestRecordingDiagnostics:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="does not exist"):
            parse_recording(tmp_path / "absent.csv")

    def test_bad_header_names_line_one(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n")
        with pytest.raises(ParseError, match=r"rec\.csv:1"):
            parse_recording(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n")
        with pytest.raises(ParseError, match="no sample rows"):
            parse_recording(path)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n0,1,2,3,4,5,6\n0,1,2\n")
        with pytest.raises(ParseError, match=r"rec\.csv:3"):
            parse_recording(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n0,1,2,3,4,5,6\n0.01,1,2,oops,4,5,6\n")
        with pytest.raises(ParseError, match=r"rec\.csv:3.*'az'"):
            parse_recording(path)

    def test_nan_cell_names_channel(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n0,1,2,3,nan,5,6\n")
        with pytest.raises(ValidationError, match="'gx'"):
            parse_recording(path)

    # Cells are plain C-style decimals: what Python's float() takes beyond
    # that is rejected, and every rejection names its line and column.
    @pytest.mark.parametrize(
        "row, column",
        [
            ("0.01,1_0,2,3,4,5,6", "ax"),
            ("0.01,1,\u0661,3,4,5,6", "ay"),
            ("0.01,1,2,,4,5,6", "az"),
            ("0.01,1,2,3\r,4,5,6", "az"),
            ("0.01,1,2,3,4\r5,5,6", "gx"),
            ("0.01,1,2,3,4,5,6\r\r", "gz"),  # CR CR LF: one CR left at the row's end
            ("0.01,1,2,3,4,5,0x1p3", "gz"),
        ],
    )
    def test_off_grammar_cell_names_line_and_column(self, tmp_path, row, column):
        path = tmp_path / "rec.csv"
        path.write_bytes(
            (RECORDING_HEADER + "\n0,1,2,3,4,5,6\n" + row + "\n0.02,1,2,3,4,5,6\n").encode()
        )
        with pytest.raises(ParseError, match=rf"rec\.csv:3: cannot parse value for '{column}': .* is not a number"):
            parse_recording(path)

    def test_blank_body_line_names_its_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n0,1,2,3,4,5,6\n\n0.02,1,2,3,4,5,6\n")
        with pytest.raises(ParseError, match=r"rec\.csv:3: expected 7 columns, got 1"):
            parse_recording(path)

    def test_ragged_row_reported_before_an_earlier_bad_cell(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n0,1,oops,3,4,5,6\n0,1,2\n")
        with pytest.raises(ParseError, match=r"rec\.csv:3: expected 7 columns"):
            parse_recording(path)

    def test_whitespace_around_a_cell_is_accepted(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text(RECORDING_HEADER + "\n 0 ,\t1,2 ,+3,-4.5e0,.5,6.\n")
        stream = parse_recording(path, RATE)
        assert stream.accel.tolist() == [[1.0, 2.0, 3.0]]
        assert stream.gyro.tolist() == [[-4.5, 0.5, 6.0]]


def sample_labels():
    return {
        TaskKind.WH: SegmentLabel(0, 100, 250, 400),
        TaskKind.POH: SegmentLabel(10, 90, 180, 300),
    }


class TestLabels:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(write_labels(sample_labels()))
        back = parse_labels(path)
        assert set(back) == {TaskKind.WH, TaskKind.POH}
        lb = back[TaskKind.POH]
        assert (lb.s1, lb.e1, lb.e2, lb.e3) == (10, 90, 180, 300)

    def test_random_round_trips_exact(self, tmp_path):
        rng = np.random.default_rng(127)
        for i in range(50):
            labels = {}
            for task in TaskKind:
                if rng.random() < 0.3:
                    continue
                edges = np.sort(rng.integers(0, 5000, size=4))
                while len(set(edges.tolist())) < 4:
                    edges = np.sort(rng.integers(0, 5000, size=4))
                s1, e1, e2, e3 = (int(v) for v in edges)
                labels[task] = SegmentLabel(s1, e1, e2, e3)
            path = tmp_path / f"labels_{i}.csv"
            path.write_bytes(write_labels(labels))
            back = parse_labels(path)
            assert set(back) == set(labels)
            assert back == labels

    def test_written_in_task_order(self):
        text = write_labels(sample_labels()).decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == LABELS_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["WH", "POH"]

    def test_empty_map_writes_header_only(self):
        assert write_labels({}).decode("utf-8") == LABELS_HEADER + "\n"

    def test_unknown_task_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(LABELS_HEADER + "\nXYZ,0,1,1,2,2,3\n")
        with pytest.raises(ParseError, match=r"labels\.csv:2: cannot parse value for 'TASK': 'XYZ' is not one of"):
            parse_labels(path)

    def test_non_integer_boundary_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(LABELS_HEADER + "\nWH,0,1.5,1.5,2,2,3\n")
        with pytest.raises(ParseError, match=r"labels\.csv:2: cannot parse value for 'e1': '1\.5' is not an integer"):
            parse_labels(path)

    def test_duplicate_task_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(LABELS_HEADER + "\nWH,0,1,1,2,2,3\nWH,0,1,1,2,2,3\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_labels(path)

    def test_gap_between_windows_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(LABELS_HEADER + "\nWH,0,10,11,20,20,30\n")
        message = r"labels\.csv:2: WH: subtasks must be contiguous \(e1=s2, e2=s3\), got \(0, 10, 11, 20, 20, 30\)$"
        with pytest.raises(BoundaryError, match=message):
            parse_labels(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("WH,-1,10,10,20,20,30", "WH: s1 must be >= 0, got -1"),
            ("POH,0,10,10,10,10,30", r"POH: each subtask window must be non-empty: \(0, 10, 10, 30\)"),
        ],
    )
    def test_a_bad_label_names_its_line_and_task(self, tmp_path, row, message):
        # the label holds no task: the reader names it, as the labels file does
        path = tmp_path / "labels.csv"
        path.write_text(LABELS_HEADER + f"\n{row}\n")
        with pytest.raises(BoundaryError, match=rf"labels\.csv:2: {message}$"):
            parse_labels(path)

    @pytest.mark.parametrize("row", ["WH,0,10,10,20,21,30", "WH,0,10,5,8,8,30"])
    def test_a_start_that_is_not_the_previous_end_is_rejected(self, tmp_path, row):
        # a gap before subtask 3; subtask 2 starting inside subtask 1
        path = tmp_path / "labels.csv"
        path.write_text(LABELS_HEADER + f"\n{row}\n")
        with pytest.raises(BoundaryError, match=r"labels\.csv:2: WH: subtasks must be contiguous"):
            parse_labels(path)


class TestSessionManifest:
    def manifest(self):
        return session_manifest("P01", sample_rate_hz=RATE)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "session.txt"
        path.write_bytes(write_session_manifest(self.manifest()))
        back = parse_session_manifest(path)
        assert back == self.manifest()

    def test_rate_is_written_as_a_profile_writes_a_float(self):
        # one float rule for every `key = value` writer: 100.1, not 100.09999999999999
        manifest = replace(self.manifest(), sample_rate_hz=100.1)
        assert "\nsample_rate_hz = 100.1\n" in write_session_manifest(manifest).decode()
        profile = default_profile()
        profile = replace(profile, patient=replace(profile.patient, accel_noise_sigma=100.1))
        assert "\naccel_noise_sigma = 100.1\n" in write_profile(profile).decode()

    @pytest.mark.parametrize("rate", [0.0, float("inf"), float("nan")])
    def test_rate_must_be_positive_and_finite(self, rate):
        # an infinite rate would be written as `inf`, which load_session refuses
        with pytest.raises(ValidationError, match="sample_rate_hz must be positive and finite"):
            replace(self.manifest(), sample_rate_hz=rate)

    @pytest.mark.parametrize("subject", ["", " P01", "P01\t", "P\r01", "\x0bP01"])
    def test_feature_matrix_subject_ids_follow_the_same_rule(self, tmp_path, subject):
        with pytest.raises(ValidationError) as manifest_error:
            replace(self.manifest(), subject_id=subject)
        matrix = tmp_path / "matrix.csv"
        row = f"{subject},patient,WH,complete,wrist,3,4,-1.5,-4.0,2.0,1.0,2.0"
        matrix.write_text(f"{MATRIX_HEADER}\n{row}\n", newline="")
        with pytest.raises(ValidationError) as matrix_error:
            read_matrix(matrix)
        assert str(matrix_error.value) == f"{matrix}:2: {manifest_error.value}"

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "session.txt"
        text = write_session_manifest(self.manifest()).decode("utf-8")
        text = "\n".join(l for l in text.splitlines() if not l.startswith("labels"))
        path.write_text(text + "\n")
        with pytest.raises(ParseError, match="missing keys: labels"):
            parse_session_manifest(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "session.txt"
        path.write_bytes(write_session_manifest(self.manifest()) + b"extra = 1\n")
        with pytest.raises(ParseError, match="unknown key"):
            parse_session_manifest(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "session.txt"
        path.write_bytes(write_session_manifest(self.manifest()) + b"side = right\n")
        with pytest.raises(ParseError, match="duplicate key"):
            parse_session_manifest(path)

    def test_unknown_group_rejected(self, tmp_path):
        path = tmp_path / "session.txt"
        text = write_session_manifest(self.manifest()).decode("utf-8")
        path.write_text(text.replace("group = patient", "group = sick"))
        with pytest.raises(ParseError, match=r"session\.txt:2: cannot parse value for 'group': 'sick' is not one of"):
            parse_session_manifest(path)

    def test_value_error_names_its_line(self, tmp_path):
        path = tmp_path / "session.txt"
        text = write_session_manifest(self.manifest()).decode("utf-8")
        path.write_text(text.replace("sample_rate_hz = 128", "sample_rate_hz = fast"))
        with pytest.raises(ParseError, match=r"session\.txt:4: cannot parse value for 'sample_rate_hz': 'fast' is not a number"):
            parse_session_manifest(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "session.txt"
        text = write_session_manifest(self.manifest()).decode("utf-8")
        path.write_text("# exported by hand\n\n" + text.replace("side", "  # note\nside"))
        assert parse_session_manifest(path) == self.manifest()


class TestReadLines:
    def test_lf_crlf_and_missing_final_newline_agree(self, tmp_path):
        for name, data in (("lf", b"a\nb\n"), ("crlf", b"a\r\nb\r\n"), ("bare", b"a\nb")):
            (tmp_path / name).write_bytes(data)
            assert read_lines(tmp_path / name) == ["a", "b"]

    def test_lone_carriage_return_stays_in_line(self, tmp_path):
        (tmp_path / "f").write_bytes(b"a\rb\n")
        assert read_lines(tmp_path / "f") == ["a\rb"]

    def test_empty_file_has_no_lines(self, tmp_path):
        (tmp_path / "f").write_bytes(b"")
        assert read_lines(tmp_path / "f") == []
        with pytest.raises(ParseError, match="empty file"):
            read_lines(tmp_path / "f", header="h")

    def test_header_mismatch_names_line_one(self, tmp_path):
        (tmp_path / "f").write_bytes(b"x\n")
        with pytest.raises(ParseError, match=r"f:1: bad header"):
            read_lines(tmp_path / "f", header="h")

    def test_missing_file_raises_the_callers_error(self, tmp_path):
        with pytest.raises(ParseError, match="file not found"):
            read_lines(tmp_path / "absent")
        with pytest.raises(ValidationError, match="gone"):
            read_lines(tmp_path / "absent", missing=ValidationError("gone"))

    def test_undecodable_and_unopenable_are_parse_errors(self, tmp_path):
        (tmp_path / "f").write_bytes(b"ok\n\xff\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            read_lines(tmp_path / "f")
        with pytest.raises(ParseError, match="cannot read: Is a directory"):
            read_lines(tmp_path)
        # a manifest value can carry a NUL byte into a referenced path
        with pytest.raises(ParseError, match="cannot read: embedded null byte"):
            read_lines(str(tmp_path / "a\x00b"))


class TestWriteAtomically:
    def test_replaces_the_file_and_leaves_nothing_else(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        write_atomically(path, b"new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_a_replaced_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o640)
        write_atomically(path, b"new\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_a_failed_rename_removes_the_temporary_file(self, tmp_path, monkeypatch):
        def refuse(source, target):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), source, None, target)

        monkeypatch.setattr(os, "replace", refuse)
        path = tmp_path / "out.csv"
        with pytest.raises(PermissionError) as info:
            write_atomically(path, b"new\n")
        # the error names the path asked for, not the temporary file
        assert str(info.value) == f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{path}'"
        assert list(tmp_path.iterdir()) == []

    def test_a_missing_directory_is_named_as_given(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as info:
            write_atomically(path, b"new\n")
        assert info.value.filename == str(path) and info.value.filename2 is None

    def test_a_symbolic_link_keeps_pointing_at_the_new_bytes(self, tmp_path):
        (tmp_path / "real.csv").write_bytes(b"old\n")
        (tmp_path / "link.csv").symlink_to("real.csv")
        write_atomically(tmp_path / "link.csv", b"new\n")
        assert (tmp_path / "link.csv").is_symlink()
        assert (tmp_path / "real.csv").read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_a_fifo_is_written_in_place(self, tmp_path):
        # a rename would put a regular file where the FIFO (or a device) was
        path = tmp_path / "fifo"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_atomically(path, b"new\n")
            assert os.read(reader, 100) == b"new\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(path).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_a_directory_is_refused(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            write_atomically(tmp_path / "out", b"new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    # the temporary name adds `.`, `.<pid>.tmp` and so up to 13 bytes; it is
    # cut short, inside a character too, to fit the directory's limit
    @pytest.mark.parametrize("name", ["r" * 251 + ".txt", "r" + "\u00e9" * 127], ids=["ascii", "utf-8"])
    def test_a_255_byte_name_is_written_whole(self, tmp_path, name):
        assert len(os.fsencode(name)) == 255 <= os.pathconf(tmp_path, "PC_NAME_MAX")
        write_atomically(tmp_path / name, b"new\n")
        assert (tmp_path / name).read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_a_failed_cleanup_leaves_the_first_error(self, tmp_path, monkeypatch):
        def refuse(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.setattr(Path, "unlink", refuse)
        path = tmp_path / "out.csv"
        with pytest.raises(OSError) as info:
            write_atomically(path, b"new\n")
        assert info.value.errno == errno.EACCES
        assert info.value.filename == str(path) and info.value.filename2 is None


def test_write_chunks_writes_each_chunk_once_the_next_is_made(tmp_path):
    # held across the next render, a recording block keeps glibc's malloc
    # from trimming the heap top after every block (see `write_chunks`)
    path = tmp_path / "out"
    size = 1 << 20  # past the file object's buffer, so each write lands at once
    on_disk = []

    def chunks():
        for k in range(4):
            on_disk.append(path.stat().st_size)
            yield bytes([ord("a") + k]) * size

    write_chunks(path, chunks())
    assert on_disk == [0, 0, size, 2 * size]
    assert path.read_bytes() == b"".join(bytes([ord(c)]) * size for c in "abcd")


class TestParseKeyValues:
    KINDS = {"a": int, "b": str, "c": float}

    def test_values_come_back_converted_by_kind(self):
        lines = ["# c", "", "a = 1", "  b=two words  ", "c = -2.5e1", "g = healthy"]
        values = parse_key_values(lines, {**self.KINDS, "g": Group}, "f")
        assert values == {"a": 1, "b": "two words", "c": -25.0, "g": Group.HEALTHY}
        assert type(values["a"]) is int and type(values["c"]) is float

    def test_a_lo_hi_pair(self):
        values = parse_key_values(["r = 2  3.5"], {"r": (int, float)}, "f")
        assert values == {"r": (2, 3.5)}

    @pytest.mark.parametrize("text", ["4", "", "1 2 3"])
    def test_a_pair_needs_two_cells(self, text):
        with pytest.raises(ParseError, match=f"f:3: r must be two values 'lo hi', got '{text}'"):
            parse_key_values(["", "# c", f"r = {text}"], {"r": (int, int)}, "f")

    # a section's missing keys are named at its header; a whole file's at no line
    @pytest.mark.parametrize("first_line, where", [(5, "f:4"), (1, "f")])
    def test_missing_keys_are_named_at_the_header_line(self, first_line, where):
        with pytest.raises(ParseError, match=f"^{where}: missing keys: b, c$"):
            parse_key_values(["a = 1"], self.KINDS, "f", first_line=first_line)

    def test_absent_keys_are_left_out_unless_required(self):
        assert parse_key_values(["c = 2"], self.KINDS, "f", required=False) == {"c": 2.0}
        assert parse_key_values([], self.KINDS, "f", required=False) == {}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("a 1", "expected 'key = value'"),
            ("z = 1", "unknown key 'z'"),
            ("a = 2", "duplicate key 'a'"),
        ],
    )
    def test_bad_line_names_its_number(self, line, message):
        with pytest.raises(ParseError, match=f"f:2: {message}"):
            parse_key_values(["a = 1", line], {"a": int}, "f")


def write_full_session(dirpath, sid="S01", n=400, group=Group.PATIENT, rate=RATE):
    rng = np.random.default_rng(abs(hash(sid)) % 2**32)
    streams = {placement: quantized_stream(rng, n, rate) for placement in Placement}
    labels = {TaskKind.WH: SegmentLabel(0, 100, 250, n)}
    return dirpath / save_session(Session(sid, group, "left", streams, labels), dirpath)


class TestLoadSession:
    def test_loads_streams_and_labels(self, tmp_path):
        path = write_full_session(tmp_path)
        session = load_session(path)
        assert session.subject_id == "S01"
        assert set(session.streams) == set(Placement)
        assert set(session.labels) == {TaskKind.WH}
        assert session.streams[Placement.WRIST].n_samples == 400

    def test_label_past_recording_end_rejected(self, tmp_path):
        path = write_full_session(tmp_path, n=300)
        labels = {TaskKind.WH: SegmentLabel(0, 100, 250, 301)}
        (tmp_path / "S01_labels.csv").write_bytes(write_labels(labels))
        with pytest.raises(ValidationError):
            load_session(path)

    def test_missing_recording_file(self, tmp_path):
        path = write_full_session(tmp_path)
        (tmp_path / "S01_arm.csv").unlink()
        with pytest.raises(ValidationError, match="does not exist"):
            load_session(path)

class TestLoadCohort:
    def build_cohort(self, dirpath, sids=("P01", "P02", "H01", "H02")):
        entries = []
        for sid in sids:
            group = Group.PATIENT if sid.startswith("P") else Group.HEALTHY
            path = write_full_session(dirpath, sid=sid, group=group)
            entries.append(path.name)
        (dirpath / "cohort.txt").write_text("\n".join(entries) + "\n")
        return dirpath

    def test_loads_in_manifest_order(self, tmp_path):
        self.build_cohort(tmp_path)
        sessions = load_cohort(tmp_path)
        assert [s.subject_id for s in sessions] == ["P01", "P02", "H01", "H02"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError, match="cohort manifest not found"):
            load_cohort(tmp_path)

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "cohort.txt").write_text("\n")
        with pytest.raises(CohortError, match="no sessions"):
            load_cohort(tmp_path)

    def test_broken_session_names_entry_and_chains_cause(self, tmp_path):
        self.build_cohort(tmp_path)
        (tmp_path / "P02_wrist.csv").write_text(RECORDING_HEADER + "\n0,1,2,x,4,5,6\n")
        with pytest.raises(CohortError, match="P02_session.txt") as exc_info:
            load_cohort(tmp_path)
        assert isinstance(exc_info.value.__cause__, ParseError)

    def test_iter_cohort_loads_each_session_when_asked(self, tmp_path):
        self.build_cohort(tmp_path)
        (tmp_path / "H01_wrist.csv").write_text(RECORDING_HEADER + "\n0,1,2,x,4,5,6\n")
        sessions = iter_cohort(tmp_path)
        assert [next(sessions).subject_id for _ in range(2)] == ["P01", "P02"]
        with pytest.raises(CohortError, match="H01_session.txt"):
            next(sessions)

    def assert_sessions_equal(self, got, want):
        assert [s.subject_id for s in got] == [s.subject_id for s in want]
        for a, b in zip(got, want):
            assert (a.group, a.side, a.labels) == (b.group, b.side, b.labels)
            for placement in Placement:
                x, y = a.streams[placement], b.streams[placement]
                assert x.sample_rate_hz == y.sample_rate_hz
                assert x.accel.tobytes() == y.accel.tobytes()
                assert x.gyro.tobytes() == y.gyro.tobytes()

    def split_walk(self, cohort):
        """`walk_cohort`, whose helper loads the entries at odd positions and
        sends each session back."""
        return walk_cohort(cohort, lambda session: session)

    def test_the_helper_ends_at_the_first_session_it_cannot_parse(self, tmp_path, monkeypatch):
        # the parent reads that session and every later one itself
        self.build_cohort(tmp_path)
        want = list(in_process_sessions(tmp_path))
        parent = os.getpid()
        parse = ingest.parse_recording
        read_here = []

        def fail_in_the_helper(path, *args):
            if os.getpid() == parent:
                read_here.append(path.name)
            elif path.name == "P02_arm.csv":
                raise MemoryError
            return parse(path, *args)

        monkeypatch.setattr(ingest, "parse_recording", fail_in_the_helper)
        sessions = self.split_walk(tmp_path)
        got = [next(sessions), next(sessions)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        got.extend(sessions)
        self.assert_sessions_equal(got, want)
        # all four sessions: P02 as well, after the helper failed on it
        sids = ("P01", "P02", "H01", "H02")
        assert read_here == [f"{sid}_{p.value}.csv" for sid in sids for p in Placement]

    @pytest.mark.parametrize("cause", ["fork fails"])
    def test_without_a_helper_every_recording_is_read_in_process(
        self, tmp_path, monkeypatch, cause
    ):
        self.build_cohort(tmp_path)
        want = list(in_process_sessions(tmp_path))

        def fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        sessions = self.split_walk(tmp_path)
        got = [next(sessions)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        got.extend(sessions)
        self.assert_sessions_equal(got, want)

    def test_a_daemonic_process_still_forks_the_helper(self, tmp_path, monkeypatch):
        # such as a pool worker: a bare fork has no daemon rule
        self.build_cohort(tmp_path)
        want = list(in_process_sessions(tmp_path))
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        got = list(self.split_walk(tmp_path))
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        self.assert_sessions_equal(got, want)


class TestSaveCohort:
    """`save_session` and `save_cohort` write what `load_session` and
    `walk_cohort` read back."""

    def hand_session(self, rng, sid, group, side, rate, n, labels):
        streams = {placement: quantized_stream(rng, n, rate) for placement in Placement}
        return Session(sid, group, side, streams, labels)

    def hand_sessions(self, count):
        # each with a different subset of the tasks labelled, none with all
        rng = np.random.default_rng(2024)
        specs = [
            ("P01", Group.PATIENT, "left", RATE, 300, {TaskKind.WH: SegmentLabel(0, 100, 250, 300)}),
            ("H07", Group.HEALTHY, "right", 51.2, 37, {}),
            ("P12", Group.PATIENT, "both arms", 100.0, 700, {
                TaskKind.WUB: SegmentLabel(5, 60, 61, 300),
                TaskKind.ROP: SegmentLabel(310, 400, 555, 700),
            }),
        ]
        return [self.hand_session(rng, *spec) for spec in specs[:count]]

    @pytest.mark.parametrize("count, forks_wanted", [(1, 0), (3, 2)], ids=["in-process", "helper"])
    def test_sessions_come_back_as_written(self, tmp_path, monkeypatch, count, forks_wanted):
        # three sessions fork one helper to write and one to read
        sessions = self.hand_sessions(count)
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        paths = save_cohort(tmp_path / "cohort", sessions, lambda session: session)
        got = load_cohort(tmp_path / "cohort")
        assert len(forks) == forks_wanted
        sids = [session.subject_id for session in sessions]
        assert [path.name for path in paths] == [f"{sid}_session.txt" for sid in sids]
        assert (tmp_path / "cohort" / "cohort.txt").read_text().split() == [p.name for p in paths]
        assert len(got) == len(sessions)
        for a, b in zip(got, sessions):
            assert (a.subject_id, a.group, a.side, a.labels) == (b.subject_id, b.group, b.side, b.labels)
            assert a.streams.keys() == b.streams.keys()
            for placement in Placement:
                x, y = a.streams[placement], b.streams[placement]
                assert x.sample_rate_hz == y.sample_rate_hz
                for got_array, want_array in ((x.accel, y.accel), (x.gyro, y.gyro)):
                    assert got_array.shape == want_array.shape
                    assert got_array.tobytes() == want_array.tobytes()

    @pytest.mark.parametrize("missing", list(Placement), ids=lambda placement: placement.value)
    def test_a_session_without_a_placement_is_refused_before_any_file(self, tmp_path, missing):
        # the manifest names a recording of each placement
        session = self.hand_sessions(1)[0]
        streams = {p: stream for p, stream in session.streams.items() if p is not missing}
        one_stream = Session("P01", Group.PATIENT, "left", streams, session.labels)
        with pytest.raises(ValidationError, match=f"^P01: no {missing.value} stream to write$"):
            save_session(one_stream, tmp_path)
        assert list(tmp_path.iterdir()) == []
