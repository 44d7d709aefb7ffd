"""Property tests for the input layer.

Every reader, fed arbitrary bytes or a one-byte mutation of a valid file,
either returns a value or raises a ShoulderKinError; and the CLI maps a
malformed input to a documented exit code, never to 1 or a traceback.
The recording writer is pinned byte for byte, the recording parser's
fast and diagnostic paths are held to one cell grammar, and every reader
is held to the same number grammar.
"""

import contextlib
import io
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shoulderkin import (  # noqa: E402
    FeatureRow,
    FeatureVector,
    Group,
    ParseError,
    RECORDING_HEADER,
    Placement,
    SegmentKind,
    SegmentLabel,
    SensorStream,
    SessionManifest,
    ShoulderKinError,
    TaskKind,
    ValidationError,
    compare_cohort,
    default_profile,
    load_cohort,
    main,
    parse_labels,
    parse_profile,
    parse_recording,
    parse_session_manifest,
    read_dump,
    read_matrix,
    write_dump,
    write_labels,
    write_matrix,
    write_profile,
    write_recording,
    write_session_manifest,
)
from shoulderkin.cli import _load_feature_params  # noqa: E402

# Derandomized and bounded so the suite runs the same examples every time
# and stays quick; raise max_examples locally to search harder.
settings.register_profile(
    "tier1", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("tier1")

N_SAMPLES = 64


def _mutate(data: bytes, op: str, index: int, byte: int) -> bytes:
    index %= len(data)
    if op == "replace":
        return data[:index] + bytes([byte]) + data[index + 1 :]
    if op == "insert":
        return data[:index] + bytes([byte]) + data[index:]
    return data[:index] + data[index + 1 :]


def malformed(data: bytes):
    """Arbitrary bytes, or `data` with one byte replaced, inserted or deleted."""
    mutations = st.builds(
        _mutate,
        st.just(data),
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, len(data) - 1),
        st.integers(0, 255),
    )
    return st.one_of(st.binary(max_size=120), mutations)


def session_files(sid="S01", group=Group.PATIENT) -> dict[str, bytes]:
    rng = np.random.default_rng(5)
    files = {
        f"{sid}_{placement.value}.csv": write_recording(
            SensorStream(
                accel=np.round(rng.normal(0.0, 9.0, (N_SAMPLES, 3)), 3),
                gyro=np.round(rng.normal(0.0, 90.0, (N_SAMPLES, 3)), 3),
                sample_rate_hz=32.0,
            )
        )
        for placement in Placement
    }
    labels = {TaskKind.WH: SegmentLabel(TaskKind.WH, 0, 20, 20, 40, 40, N_SAMPLES)}
    files[f"{sid}_labels.csv"] = write_labels(labels)
    manifest = SessionManifest(
        subject_id=sid,
        group=group,
        side="left",
        recordings={p: f"{sid}_{p.value}.csv" for p in Placement},
        labels_path=f"{sid}_labels.csv",
        sample_rate_hz=32.0,
    )
    files[f"{sid}_session.txt"] = write_session_manifest(manifest)
    return files


def matrix_rows() -> list[FeatureRow]:
    rng = np.random.default_rng(11)
    rows = []
    for group, prefix in ((Group.PATIENT, "P"), (Group.HEALTHY, "H")):
        for i in range(3):
            for task in TaskKind:
                for segment in SegmentKind:
                    for placement in Placement:
                        fv = FeatureVector(
                            int(rng.integers(0, 9)),
                            int(rng.integers(0, 9)),
                            *rng.uniform(0.5, 4.0, 5) * (-1, -1, 1, 1, 1),
                        )
                        rows.append(FeatureRow(f"{prefix}{i}", group, task, segment, placement, fv))
    return rows


SESSION = session_files()
VALID = {
    "recording": (parse_recording, SESSION["S01_wrist.csv"]),
    "labels": (parse_labels, SESSION["S01_labels.csv"]),
    "session": (parse_session_manifest, SESSION["S01_session.txt"]),
    "matrix": (read_matrix, write_matrix(matrix_rows()[:12])),
    "dump": (read_dump, write_dump(compare_cohort(matrix_rows()))),
    "profile": (parse_profile, write_profile(default_profile(n_per_group=2))),
    "params": (_load_feature_params, b"# tuned\nsparc_pad_level = 2\nmin_segment_s = 0.5\n"),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@pytest.fixture(scope="module")
def cohort(work):
    """Two tiny sessions, one per group, for load_cohort and `extract`."""
    cohort = work / "cohort"
    cohort.mkdir()
    files = {**session_files("P01", Group.PATIENT), **session_files("H01", Group.HEALTHY)}
    files["cohort.txt"] = b"P01_session.txt\nH01_session.txt\n"
    for name, data in files.items():
        (cohort / name).write_bytes(data)
    return cohort, files


def returns_or_raises_own_error(reader, path):
    try:
        reader(path)
    except ShoulderKinError:
        pass


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_fixture_is_accepted(work, name):
    # otherwise the mutation property below never starts from an accepted file
    reader, valid = VALID[name]
    path = work / name
    path.write_bytes(valid)
    reader(path)


@pytest.mark.parametrize("name", sorted(VALID))
@given(st.data())
def test_reader_survives_malformed_input(work, name, data):
    reader, valid = VALID[name]
    path = work / name
    path.write_bytes(data.draw(malformed(valid)))
    returns_or_raises_own_error(reader, path)


@given(st.data())
def test_load_cohort_survives_one_malformed_file(cohort, data):
    cohort_dir, files = cohort
    name = data.draw(st.sampled_from(sorted(files)))
    (cohort_dir / name).write_bytes(data.draw(malformed(files[name])))
    try:
        returns_or_raises_own_error(load_cohort, cohort_dir)
    finally:
        (cohort_dir / name).write_bytes(files[name])


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_documented_exit(argv, malformed_input=True):
    code, err = run_cli(argv)
    assert "Traceback" not in err
    assert code in ((3, 4, 5) if malformed_input else (0, 3, 4, 5)), err


@pytest.mark.parametrize("command", ["compare", "report"])
@given(st.data())
def test_cli_compare_and_report_exit_codes(work, command, data):
    name = "matrix" if command == "compare" else "dump"
    path = work / f"cli-{name}.csv"
    path.write_bytes(data.draw(malformed(VALID[name][1])))
    argv = [command, str(path)] + (["--out", str(work / "cli-out")] if command == "compare" else [])
    # a mutation can leave the file valid (a changed digit), which exits 0
    assert_documented_exit(argv, malformed_input=False)


def digit_edits(data: bytes):
    """`data` with one ASCII digit replaced by another: mostly still valid."""
    positions = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
    return st.builds(
        lambda i, digit: data[:i] + digit.encode() + data[i + 1 :],
        st.sampled_from(positions),
        st.sampled_from("0123456789"),
    )


@given(st.data())
def test_cli_simulate_exit_codes(work, data):
    path = work / "cli-profile.ini"
    valid = VALID["profile"][1]
    path.write_bytes(data.draw(st.one_of(malformed(valid), digit_edits(valid))))
    out = str(work / "cli-sim")
    try:
        profile = parse_profile(path)
    except ShoulderKinError:
        assert_documented_exit(["simulate", "--out", out, "--params", str(path)])
        return
    # a profile that still parses is valid; capped at 2 sessions per group
    # so that a mutated n_per_group cannot ask for a large cohort
    path.write_bytes(write_profile(replace(profile, n_per_group=min(profile.n_per_group, 2))))
    code, err = run_cli(["simulate", "--out", out, "--params", str(path)])
    assert code == 0, err


@given(st.data())
def test_cli_extract_exit_codes(work, cohort, data):
    cohort_dir, files = cohort
    params = work / "cli-params.txt"
    params.write_bytes(VALID["params"][1])
    name = data.draw(st.sampled_from(["params"] + sorted(files)))
    target = params if name == "params" else cohort_dir / name
    original = target.read_bytes()
    target.write_bytes(data.draw(malformed(original)))
    argv = ["extract", "--cohort", str(cohort_dir), "--out", str(work / "cli-m.csv")]
    argv += ["--params", str(params)]
    try:
        assert_documented_exit(argv, malformed_input=False)
    finally:
        target.write_bytes(original)


# One number cell of each reader: where it is (line index and column index,
# or the key), how its errors name it, and how to read it back.
NUMBER_CELLS = {
    "recording": ((1, 2), "ay", lambda stream: stream.accel[0, 1]),
    "labels": ((1, 1), "s1", lambda labels: labels[TaskKind.WH].s1),
    "session": ("sample_rate_hz", "sample_rate_hz", lambda manifest: manifest.sample_rate_hz),
    "matrix": ((1, 9), "rav", lambda rows: rows[0].features.rav),
    "dump": ((4, 5), "t", lambda table: next(iter(table.cells.values())).t_stat),
    "profile": ("seed", "[cohort] seed", lambda profile: profile.seed),
    "params": ("sparc_pad_level", "sparc_pad_level", lambda params: params.sparc_pad_level),
}
COHORT_FILES = {"recording": "P01_wrist.csv", "labels": "P01_labels.csv", "session": "P01_session.txt"}


def with_cell(data: bytes, where, value: str) -> tuple[bytes, int]:
    """`data` with one cell or key's value set to `value`, and that line's number."""
    lines = data.decode().split("\n")
    if isinstance(where, str):
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{where} ="))
        lines[i] = f"{where} = {value}"
    else:
        i, j = where
        cells = lines[i].split(",")
        cells[j] = value
        lines[i] = ",".join(cells)
    return "\n".join(lines).encode(), i + 1


@pytest.mark.parametrize("name", sorted(NUMBER_CELLS))
@pytest.mark.parametrize("value", ["7", " 7 ", "1_0", "\u0661", "\uff12", "0x10"])
def test_every_reader_shares_one_number_grammar(work, cohort, name, value):
    where, column, read_back = NUMBER_CELLS[name]
    reader, valid = VALID[name]
    path = work / f"grammar-{name}"
    data, line_no = with_cell(valid, where, value)
    path.write_bytes(data)
    if value.strip() == "7":
        assert read_back(reader(path)) == 7
        return
    with pytest.raises(ParseError) as err:
        reader(path)
    where_text = str(path) if name == "profile" else f"{path}:{line_no}"
    assert str(err.value).startswith(f"{where_text}: cannot parse value for '{column}': ")

    # through the CLI: cohort files are read by `extract`, the rest named on its command line
    cohort_dir, files = cohort
    extract = ["extract", "--cohort", str(cohort_dir), "--out", str(work / "grammar-m.csv")]
    argv = {
        "matrix": ["compare", str(path), "--out", str(work / "grammar-out")],
        "dump": ["report", str(path)],
        "profile": ["simulate", "--out", str(work / "grammar-sim"), "--params", str(path)],
        "params": extract + ["--params", str(path)],
    }.get(name, extract)
    target = cohort_dir / COHORT_FILES.get(name, "")
    if name in COHORT_FILES:
        target.write_bytes(with_cell(files[target.name], where, value)[0])
    try:
        code, stderr = run_cli(argv)
    finally:
        if name in COHORT_FILES:
            target.write_bytes(files[target.name])
    assert code == 3, stderr


# Values that stress "%.9g": signed zeros, subnormals, extremes, and
# integers too long for nine digits.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e9, 123456789012.0, -(2.0**53))
stream_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)


def reference_recording(stream) -> bytes:
    times = np.arange(stream.n_samples) / stream.sample_rate_hz
    lines = [RECORDING_HEADER]
    for i in range(stream.n_samples):
        row = (times[i], *stream.accel[i], *stream.gyro[i])
        lines.append(",".join("%.9g" % v for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


@given(
    st.integers(1, 12).flatmap(lambda n: st.lists(stream_values, min_size=6 * n, max_size=6 * n)),
    st.sampled_from((1.0, 32.0, 100.0, 128.0, 1000.0 / 3.0)),
)
def test_write_recording_matches_reference_formatter(work, values, rate):
    samples = np.array(values).reshape(-1, 6)
    stream = SensorStream(accel=samples[:, :3], gyro=samples[:, 3:], sample_rate_hz=rate)
    data = write_recording(stream)
    assert data == reference_recording(stream)
    path = work / "written.csv"
    path.write_bytes(data)
    back = parse_recording(path, rate)
    printed = [line.split(",")[1:] for line in data.decode().splitlines()[1:]]
    expected = np.array([[np.float64(cell) for cell in row] for row in printed])
    assert np.hstack((back.accel, back.gyro)).tobytes() == expected.tobytes()


# Characters around the cell grammar's edges: separators, non-ASCII digits
# and spaces, carriage returns, quotes and the comment mark.
CELL_CHARS = "0123456789+-.eEnaifty_ \t\r\x0b\x1c\xa0\u2003\u0661\uff11\"#'x"


@given(st.text(CELL_CHARS, max_size=8))
def test_any_cell_parses_as_float_or_names_its_line_and_column(work, cell):
    path = work / "cell.csv"
    path.write_bytes(f"{RECORDING_HEADER}\n0,1,2,3,4,5,6\n0,1,{cell},3,4,5,6\n".encode())
    try:
        stream = parse_recording(path)
    except ParseError as err:
        assert str(err).startswith(f"{path}:3: cannot parse value for 'ay': ")
        assert str(err).endswith("is not a number")
        return
    except ValidationError as err:
        assert f"{path}:3: column 'ay' is not finite" in str(err)
        return
    assert stream.accel[1, 1] == float(cell.strip())
