"""Property tests for the input layer and the per-cell feature kernels.

Every reader, fed arbitrary bytes or a one-byte mutation of a valid file,
either returns a value or raises a ShoulderKinError; and the CLI maps a
malformed input to a documented exit code, never to 1 or a traceback.
The recording writer is pinned byte for byte, the recording parser's
fast and diagnostic paths are held to one cell grammar, and every reader
is held to the same number grammar. A session manifest reads back as
written or is rejected when built, and any cohort profile within the
bounds reads back as written. `read_matrix`, which converts a row in
one pass, reads any mutated matrix as the per-cell reader of `cell_oracle`
does. `compare_cohort` turns any finite
features into cells that are finite or untestable, and its means and
variances, summed without numpy, equal numpy's bit for bit. The norm and
derivative kernels are pinned bit for bit against the plainer formulas
they replaced, which are kept here as references, the mean-crossing and
SPARC kernels against `cell_oracle`'s forward fill and full-spectrum
SPARC, and `extract_cohort`, which computes a whole session's cells in array passes,
against the seven kernels applied to each window alone and against the
per-cell arithmetic it replaced (`cell_oracle`). The simulator's pulse
renderer, which evaluates a session's pulses once for both placements, is
pinned against the pulse-by-pulse renderer it replaced. One movement
rendered at 64, 128 and 256 Hz pins how SPARC, LDLJ-A and the two counts
depend on the rate.
"""

import contextlib
import io
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from builders import grid_rows, session_manifest, varied_vector  # noqa: E402
from cell_oracle import (  # noqa: E402
    extract_per_cell,
    forward_fill_crossings,
    full_spectrum_sparc,
    read_matrix_per_cell,
)
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shoulderkin import (  # noqa: E402
    ParseError,
    ShoulderKinError,
    ValidationError,
    compare_cohort,
    default_profile,
    extract_cohort,
    load_cohort,
    main,
    read_dump,
    read_matrix,
    write_dump,
    write_matrix,
    write_profile,
)
from shoulderkin import features, synth  # noqa: E402
from shoulderkin.cli import _load_feature_params  # noqa: E402
from shoulderkin.dsp import derivative, euclidean_norm  # noqa: E402
from shoulderkin.features import (  # noqa: E402
    FeatureParams,
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    spectral_arc_length,
)
from shoulderkin.formats import (  # noqa: E402
    MATRIX_COLUMNS,
    MATRIX_HEADER,
    FeatureRow,
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    TaskKind,
)
from shoulderkin.ingest import (  # noqa: E402
    _BLOCK_ROWS,
    RECORDING_HEADER,
    SessionManifest,
    parse_labels,
    parse_recording,
    parse_session_manifest,
    write_labels,
    write_recording,
    write_session_manifest,
)
from shoulderkin.model import (  # noqa: E402
    GRAVITY_MS2,
    SegmentLabel,
    SensorStream,
    assemble_session,
)
from shoulderkin.stats import _mean_and_variance  # noqa: E402
from shoulderkin.synth import (  # noqa: E402
    MAX_N_PER_GROUP,
    MAX_NOISE_SIGMA,
    MAX_PHASE_DURATION_S,
    MAX_SUBMOVEMENTS,
    PLACEMENT_AMPLITUDE_SCALE,
    PLACEMENT_LEVER_M,
    CohortProfile,
    GroupProfile,
    parse_profile,
    synth_segment,
)

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
    labels = {TaskKind.WH: SegmentLabel(0, 20, 40, N_SAMPLES)}
    files[f"{sid}_labels.csv"] = write_labels(labels)
    files[f"{sid}_session.txt"] = write_session_manifest(session_manifest(sid, group, 32.0))
    return files


def matrix_rows() -> list[FeatureRow]:
    rng = np.random.default_rng(11)
    return grid_rows(3, 3, lambda group, i: FeatureVector(
        int(rng.integers(0, 9)), int(rng.integers(0, 9)), *rng.uniform(0.5, 4.0, 5) * (-1, -1, 1, 1, 1)
    ))


SESSION = session_files()
VALID = {
    "recording": (parse_recording, SESSION["S01_wrist.csv"]),
    "labels": (parse_labels, SESSION["S01_labels.csv"]),
    "session": (parse_session_manifest, SESSION["S01_session.txt"]),
    # 2v2, so that mutations of an accepted matrix reach the statistics
    "matrix": (read_matrix, write_matrix([r for r in matrix_rows() if r.subject_id[1] != "2"])),
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
    "profile": ("seed", "seed", lambda profile: profile.seed),
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
    assert str(err.value).startswith(f"{path}:{line_no}: cannot parse value for '{column}': ")

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


MATRIX_LINES = write_matrix(grid_rows(2, 2, varied_vector)).decode().split("\n")[1:-1]
# what a mutated matrix cell is padded with, and what it is replaced by:
# subject ids in the subject column, enum values in the grid columns, and
# numbers elsewhere
CELL_PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
SUBJECT_CELLS = ("P0", "P1", "H0", "H1", "P\u00e91", "P_1", "P2")
GRID_CELLS = ("patient", "healthy", "Patient", "WH", "ROP", "complete", "sub3", "wrist", "arm", "")
NUMBER_CELLS_ANY = (
    "1_0", "\u0661", "\uff12", "+3", "-3", "-0", "+2.5e+2", "1E-3", "0", "3.0", "0x10", "nan",
    "-inf", "Infinity", str(2**1024), "1e309", "True", "", "x",
)
# the number columns are drawn three times as often as each other column
MUTATED_COLUMNS = (0, 1, 2, 3, 4) + tuple(range(5, 12)) * 3


@st.composite
def mutated_matrix_line(draw):
    """A row of a valid 2v2 matrix with up to two cells padded, replaced,
    or given a carriage return, digit separator, exponent or sign inside."""
    cells = draw(st.sampled_from(MATRIX_LINES)).split(",")
    for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2)))):
        j = draw(st.sampled_from(MUTATED_COLUMNS))
        op = draw(st.sampled_from(("pad", "replace", "insert")))
        if op == "pad":
            padding = st.text(CELL_PADDING, max_size=2)
            cells[j] = draw(padding) + cells[j] + draw(padding)
        elif op == "replace":
            values = SUBJECT_CELLS if j == 0 else GRID_CELLS if j < 5 else NUMBER_CELLS_ANY
            cells[j] = draw(st.sampled_from(values))
        else:
            i = draw(st.integers(0, len(cells[j])))
            cells[j] = cells[j][:i] + draw(st.sampled_from("\r_e+-")) + cells[j][i:]
    return ",".join(cells)


@st.composite
def mutated_matrix_lines(draw):
    lines = draw(st.lists(mutated_matrix_line(), min_size=1, max_size=4))
    if draw(st.sampled_from((False, False, True))):  # a repeated row
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return lines


def read_outcome(reader, path):
    """The rows' repr, so that 3 and 3.0 or 0.0 and -0.0 differ, or the error's class and text."""
    try:
        return repr(reader(path))
    except ShoulderKinError as err:
        return type(err), str(err)


def matrix_line(i, **cells):
    """Line i of `MATRIX_LINES` with the named cells replaced."""
    values = dict(zip(MATRIX_COLUMNS, MATRIX_LINES[i].split(",")), **cells)
    return ",".join(values.values())


@settings(max_examples=300)
@given(mutated_matrix_lines())
# each kind of mutation at least once, whatever the draws
@example([matrix_line(0), matrix_line(0)])
@example([matrix_line(0), matrix_line(80, subject_id="P0")])
@example([matrix_line(0, nmcp_a=str(2**1024)), matrix_line(1, sparc=str(2**1024))])
@example([matrix_line(0, np_a="True")])
@example([matrix_line(0, rav="2.\r5"), matrix_line(1, pi="\r")])
@example([matrix_line(0, sparc="\x1c\t-1.5\x0b\x1f", ldlj_a=" \x0c-4.0\x1d")])
@example([matrix_line(0, nmcp_a="1_0"), matrix_line(1, np_a="\u0661")])
@example([matrix_line(0, sparc="+1.5e+2", nmcp_a="+3", rav="2E-1")])
@example([matrix_line(0, pi="nan"), matrix_line(1, duration_s="inf")])
@example([matrix_line(0, subject_id="P\u00e91", sparc="-1.5")])
def test_read_matrix_reads_any_mutated_matrix_as_the_per_cell_reader(work, lines):
    path = work / "mutated-matrix.csv"
    path.write_bytes((MATRIX_HEADER + "\n" + "\n".join(lines) + "\n").encode("utf-8"))
    assert read_outcome(read_matrix, path) == read_outcome(read_matrix_per_cell, path)


# Values that stress "%.9g": signed zeros, subnormals, extremes, integers
# too long for nine digits, and, with both neighbours of each, the values
# where the writer rounds up to a new power of ten or changes notation
# (9.9999999995, 999999999.5, 1e-4, 9.99999999949e-05) or leaves its
# exact powers of ten for "%.8e" (1e-14, 1e31).
_BOUNDARIES = (9.9999999995, 999999999.5, 0.0001, 9.99999999949e-05, 1e-14, 1e31)
EDGE_VALUES = (
    (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1e9, 123456789012.0, -(2.0**53))
    + (2.0**-1074,)
    + tuple(n for x in _BOUNDARIES for n in (math.nextafter(x, 0), x, math.nextafter(x, math.inf)))
)
stream_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)


def reference_recording(stream) -> bytes:
    """The recording as Python's "%.9g" prints each value, one row at a time."""
    times = np.arange(stream.n_samples) / stream.sample_rate_hz
    rows = np.column_stack((times, stream.accel, stream.gyro)).tolist()
    row_format = ",".join(["%.9g"] * len(RECORDING_HEADER.split(",")))
    lines = [RECORDING_HEADER] + [row_format % tuple(row) for row in rows]
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


def test_write_recording_matches_reference_across_blocks():
    """Two blocks and a part of one, with each value's magnitude drawn from
    1e-20 to 1e35, a third of them a 10-digit decimal that ends in 5: a
    tie for "%.9g" that binary only comes near."""
    rng = np.random.default_rng(8)
    n = 6 * (2 * _BLOCK_ROWS + 7)
    values = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-20, 35, n)
    ties = rng.random(n) < 1 / 3
    digits = rng.integers(10**8, 10**9, n) * 10 + 5
    values[ties] = (digits * 10.0 ** rng.integers(-30, 30, n))[ties]
    values[rng.integers(0, n, 64)] = rng.choice(EDGE_VALUES, 64)
    samples = values.reshape(-1, 6)
    stream = SensorStream(accel=samples[:, :3], gyro=samples[:, 3:], sample_rate_hz=1000 / 3)
    assert write_recording(stream) == reference_recording(stream)


def mask_code(cell: str) -> tuple[int, bool, int]:
    """The writer's mask for one "%.9g" cell, read from the text: its layout
    (0-12 for fixed notation at exponent -4 to 8, 13 for two exponent
    digits, 14 for three), its sign, and its digits up to the last nonzero
    one (1 for zero)."""
    mantissa, _, exponent = cell.lstrip("-").partition("e")
    if exponent:
        layout = 13 if len(exponent) == 3 else 14
    else:
        layout = int(("%.8e" % float(mantissa))[11:]) + 4
    return layout, cell.startswith("-"), len(mantissa.replace(".", "").strip("0")) or 1


def values_for_every_mask_code():
    """For each layout, exponent of that layout, and count of digits kept,
    one random 9-digit mantissa ending at that digit, with each sign; then
    values that carry into a new power of ten, ties, three-digit exponents,
    subnormals and signed zeros."""
    rng = np.random.default_rng(45)
    exponents = [[e] for e in range(-4, 9)]
    exponents += [[9, 30, 31, 99, -5, -14, -15, -99], [100, 307, -100, -307]]
    values = []
    for layout_exponents in exponents:
        for e in layout_exponents:
            for kept in range(1, 10):
                digits = rng.integers(0, 10, kept)
                digits[[0, -1]] = rng.integers(1, 10, 2)
                mantissa = "".join(map(str, digits))
                x = float(f"{mantissa[0]}.{mantissa[1:]}e{e}")
                values += [x, -x]
    carries = [999999999.5, 9.9999999995, 99999999.95, 9.9999999995e-5, 9.9999999996e99]
    carries += [9.99999999951e-100, 9.9999999996e30, 9.9999999996e-15]
    ties = [1234567885.0, 1234567895.0, 1000000005.0, 9999999995.0, 1234567885e5]
    extremes = [1e100, 1.5e-100, 1.7976931348623157e308, 2.2250738585072014e-308]
    subnormals = [5e-324, 2.0**-1074, 1e-320, 4.2e-315, 2.2250738585072009e-308]
    for x in carries + ties + extremes + subnormals + [0.0]:
        values += [x, -x]
    return np.array(values)


def test_write_recording_matches_percent_for_every_mask_code():
    """Every (layout, sign, digits kept) mask, in every value column."""
    values = values_for_every_mask_code()
    codes = {mask_code("%.9g" % x) for x in values.tolist()}
    every = {(layout, sign, kept) for layout in range(15) for sign in (False, True) for kept in range(1, 10)}
    assert codes == every
    samples = np.stack([np.roll(values, k) for k in range(6)], axis=1)
    stream = SensorStream(accel=samples[:, :3], gyro=samples[:, 3:], sample_rate_hz=1000 / 3)
    assert write_recording(stream) == reference_recording(stream)


def test_write_recording_matches_percent_on_a_million_random_doubles():
    """Random bit patterns, finite ones kept. In 19 of 20 the exponent
    field is redrawn from 2**-56 to 2**112, about ten binades either side of the
    range the writer scales exactly, so most values are formatted by
    numpy; the rest span the whole range and mostly ask "%.8e"."""
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2**64, 1_030_000, dtype=np.uint64)
    near = rng.random(bits.size) < 0.95
    exponent_field = rng.integers(1023 - 56, 1023 + 113, bits.size, dtype=np.uint64)
    bits[near] = (bits & ~np.uint64(0x7FF << 52) | exponent_field << np.uint64(52))[near]
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][: 6 * 170_000].reshape(-1, 6)
    stream = SensorStream(accel=values[:, :3], gyro=values[:, 3:], sample_rate_hz=128.0)
    assert write_recording(stream) == reference_recording(stream)


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


@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_session_manifest_rate_reads_back_as_the_same_double(work, rate):
    path = work / "rate_session.txt"
    path.write_bytes(SESSION["S01_session.txt"])
    manifest = replace(parse_session_manifest(path), sample_rate_hz=rate)
    path.write_bytes(write_session_manifest(manifest))
    assert parse_session_manifest(path).sample_rate_hz == rate


# Characters that `key = value` lines treat specially: separators, the
# comment mark, line breaks and whitespace that `str.strip` removes; and
# lone surrogates, which UTF-8 cannot encode.
MANIFEST_CHARS = "ab_./,=#\u00e9 \t\r\n\x0b\x85\u2028\ud800\udc80"
clean_texts = (
    st.text(MANIFEST_CHARS.translate({ord(c): None for c in ",\r\n\ud800\udc80"}))
    .map(str.strip)
    .filter(bool)
)


@given(st.data())
def test_session_manifest_reads_back_as_written_or_is_rejected(work, data):
    # at most one of the five text fields is drawn from every character
    texts = data.draw(st.lists(clean_texts, min_size=5, max_size=5))
    dirty = data.draw(st.integers(0, 5))
    if dirty < 5:
        texts[dirty] = data.draw(st.text(MANIFEST_CHARS, min_size=1, max_size=8))
    subject_id, side, wrist, arm, labels = texts
    fits_one_line = all(
        "\r" not in text and "\n" not in text and text == text.strip() for text in texts
    )
    encodable = not any("\ud800" <= c <= "\udfff" for text in texts for c in text)
    try:
        manifest = SessionManifest(
            subject_id=subject_id,
            group=Group.HEALTHY,
            side=side,
            sample_rate_hz=128.0,
            wrist=wrist,
            arm=arm,
            labels=labels,
        )
    except ValidationError:
        assert not (fits_one_line and encodable) or "," in subject_id
        return
    assert fits_one_line and encodable and "," not in subject_id
    path = work / "round_trip_session.txt"
    path.write_bytes(write_session_manifest(manifest))
    assert parse_session_manifest(path) == manifest


def ranges(values):
    return st.tuples(values, values).map(sorted).map(tuple)


# every group profile the bounds allow: durations from the least subnormal to
# the bound, sigmas from 0 to theirs
durations = st.floats(min_value=0.0, max_value=MAX_PHASE_DURATION_S, exclude_min=True)
sigmas = st.floats(min_value=0.0, max_value=MAX_NOISE_SIGMA)
group_profiles = st.builds(
    GroupProfile,
    submovements=ranges(st.integers(1, MAX_SUBMOVEMENTS)),
    subtask_duration_s=ranges(durations),
    hold_duration_s=ranges(durations),
    pause_probability=st.floats(0.0, 1.0),
    accel_noise_sigma=sigmas,
    gyro_noise_sigma=sigmas,
)


@given(
    st.builds(
        CohortProfile,
        patient=group_profiles,
        healthy=group_profiles,
        n_per_group=st.integers(2, MAX_N_PER_GROUP),
        seed=st.integers(0, 2**64 - 1),
    )
)
def test_profile_reads_back_as_written(work, profile):
    path = work / "round_trip_profile.ini"
    path.write_bytes(write_profile(profile))
    assert parse_profile(path) == profile


magnitudes = st.floats(min_value=1e-300, max_value=1e300)
signed = st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes).map(lambda s: s[0] * s[1])
# FeatureVector field order: two counts, four signed features, a positive duration
FEATURE_DRAWS = (st.integers(0, 10**300),) * 2 + (signed,) * 4 + (magnitudes,)


def group_column(values, n: int):
    """n observations for one group: all free, tied from a pool of two, or constant."""
    return st.one_of(
        st.lists(values, min_size=n, max_size=n),
        st.lists(values, min_size=1, max_size=2).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        ),
        values.map(lambda v: [v] * n),
    )


@given(st.data())
def test_compare_cohort_cells_are_finite_or_untestable(data):
    vectors = {}
    for group in (Group.PATIENT, Group.HEALTHY):
        n = data.draw(st.integers(2, 4))
        columns = [data.draw(group_column(values, n)) for values in FEATURE_DRAWS]
        vectors[group] = [FeatureVector(*features) for features in zip(*columns)]
    rows = grid_rows(
        len(vectors[Group.PATIENT]), len(vectors[Group.HEALTHY]), lambda group, i: vectors[group][i]
    )
    # both groups have 2 or more subjects, so no cell's values may raise
    for cell in compare_cohort(rows).cells.values():
        if cell is not None:
            stats = (cell.t_stat, cell.dof, cell.p_value, cell.d, cell.d_ci_low, cell.d_ci_high)
            assert all(map(math.isfinite, stats)), cell


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# sizes on each side of numpy's pairwise-sum boundaries: the plain loop
# under 8, the eight running sums up to 128, and the split above it (whose
# halves are multiples of 8)
SAMPLE_SIZES = st.one_of(
    st.sampled_from([2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137, 255, 256, 257, 1031]),
    st.integers(2, 600),
)
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308)
SAMPLE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals to overflow
    st.floats(-1e3, 1e3),
    st.sampled_from(EDGE_VALUES),
    st.integers(-(2**80), 2**80),  # a count is summed as the double it rounds to
)


@given(st.data())
def test_mean_and_variance_match_numpy_bit_for_bit(data):
    """The statistics load no numpy: their means and ``ddof=1`` variances
    are summed in numpy's pairwise order, and numpy is the oracle here."""
    n = data.draw(SAMPLE_SIZES)
    sample = data.draw(
        st.one_of(
            st.lists(SAMPLE_VALUES, min_size=n, max_size=n),
            st.lists(st.sampled_from(EDGE_VALUES), min_size=n, max_size=n),  # signed zeros
            SAMPLE_VALUES.map(lambda v: [v] * n),
        )
    )
    array = np.asarray(sample, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        want = (float(np.mean(array)), float(np.var(array, ddof=1)))
    got = _mean_and_variance(sample)
    for value, expected in zip(got, want):
        assert type(value) is float
        assert math.isnan(value) == math.isnan(expected)
        if not math.isnan(value):
            assert bits(value) == bits(expected), (n, got, want)


def reference_norm(triax: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(triax * triax, axis=1))


@given(
    st.integers(1, 300),
    st.sampled_from(("C", "F", "strided")),
    st.integers(-160, 160),
    st.integers(-160, 160),
    st.integers(0, 2**32 - 1),
)
def test_euclidean_norm_matches_sum_along_axis_bit_for_bit(n, layout, lo, hi, seed):
    """Each row's three values lie within two decades of each other, so the
    order in which their squares are added changes the last bit often."""
    rng = np.random.default_rng(seed)
    lo, hi = sorted((lo, hi))
    scale = 10.0 ** rng.uniform(lo, hi, (n, 1))
    values = rng.choice((-1.0, 1.0), (n, 3)) * rng.uniform(0.1, 10.0, (n, 3)) * scale
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        wide = np.zeros((2 * n, 5))
        wide[::2, 1:4] = values
        values = wide[::2, 1:4]
    with np.errstate(over="ignore"):
        # a square that overflows gives inf on both sides
        assert euclidean_norm(values).tobytes() == reference_norm(values).tobytes()


@given(
    st.integers(3, 300),
    st.sampled_from((1e-300, 100.0 / 3.0, 128.0, 7e5)),
    st.integers(0, 100),
    st.integers(0, 2**32 - 1),
)
def test_derivative_matches_np_gradient_bit_for_bit(n, rate, decades, seed):
    rng = np.random.default_rng(seed)
    values = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-decades, decades, n)
    expected = np.gradient(values, 1.0 / rate)
    got = derivative(values, rate)
    assert got.tobytes() == expected.tobytes()


@given(st.data())
def test_mean_crossing_count_matches_forward_fill_bit_for_bit(data):
    # each value v comes with 4 - v, so the mean is exactly 2.0 and every 2
    # (about a fifth of the samples) sits on it
    half = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=80))
    values = np.array(data.draw(st.permutations(half + [4 - v for v in half])), dtype=float)
    values += data.draw(st.sampled_from((0.0, 1e6, 2.0**40)))
    assert mean_crossing_count(values) == forward_fill_crossings(values)


def non_negative_series(rng, n: int, shape: str) -> np.ndarray:
    """A w_norm-like series: a positive random walk, an integer staircase,
    or one pulse on zeros, whose spectrum is flat at the DC magnitude."""
    if shape == "walk":
        return np.abs(np.cumsum(rng.normal(0.0, 1.0, n))) + rng.uniform(0.0, 3.0)
    if shape == "steps":
        steps = rng.integers(0, 5, n // 4 + 1)
        steps[0] = 5
        return np.repeat(steps, 4)[:n].astype(float)
    pulse = np.zeros(n)
    pulse[rng.integers(0, n)] = rng.uniform(0.5, 2.0)
    return pulse


sparc_cases = st.tuples(
    st.integers(4, 700),
    st.sampled_from(("walk", "steps", "pulse")),
    st.sampled_from((32.0, 100.0 / 3.0, 128.0, 7e5)),
    st.builds(
        FeatureParams,
        sparc_amp_threshold=st.sampled_from((0.01, 0.05, 0.5, 0.999)),
        sparc_max_cutoff_hz=st.sampled_from((0.5, 10.0, 64.0, 1e9)),
        sparc_pad_level=st.integers(0, 4),
        min_segment_s=st.just(1e-9),
    ),
    st.integers(0, 2**32 - 1),
)


@given(sparc_cases)
def test_sparc_matches_boolean_mask_version_bit_for_bit(case):
    # rate 128 puts a bin exactly on the 10 and 64 Hz cutoffs, which counts
    n, shape, rate, params, seed = case
    values = non_negative_series(np.random.default_rng(seed), n, shape)
    expected = full_spectrum_sparc(values, rate, params)
    assert bits(spectral_arc_length(values, rate, params)) == bits(expected)


@given(sparc_cases)
def test_sparc_dc_normalisation_agrees_with_max_normalisation(case):
    """Balasubramanian et al. (J NeuroEng Rehabil 2015) divide the spectrum
    by its largest magnitude; this package divides by the DC bin. For x >= 0,
    |X(f)| <= sum(x) = X(0), so the two agree up to the FFT's rounding,
    which can lift a bin above DC by a relative O(eps * log2 n_fft). With
    n_fft <= 2**14, the SPARC values then agree to a relative 1e-12."""
    n, shape, rate, params, seed = case
    values = non_negative_series(np.random.default_rng(seed), n, shape)
    by_max = full_spectrum_sparc(values, rate, params, np.max)
    assert spectral_arc_length(values, rate, params) == pytest.approx(by_max, rel=1e-12, abs=0.0)


@given(
    st.integers(32, 256),  # the pulse, in samples at 64 Hz: 0.5 to 4 s
    st.integers(2, 64),  # rest before it, likewise
    st.integers(2, 64),  # rest after it
    st.floats(10.0, 500.0),  # peak speed, deg/s
    st.floats(0.1, 0.8),  # lever arm, m
    st.integers(0, 2**32 - 1),  # seeds the axis
)
def test_one_movement_at_three_rates(pulse, before, after, amplitude, lever_arm_m, seed):
    """One noise-free minimum-jerk pulse on the 1/64 s grid, with rest on
    both sides, rendered by `synth_segment` at 64, 128 and 256 Hz. Measured over 1500
    random draws of these inputs:

    - SPARC (gyro norm) is flat in the rate to 1e-5; the largest spread
      was 4.1e-6. The sample count doubles with the rate, so the padded
      bins keep their spacing in Hz.
    - NMCP-A and NP-A (acceleration norm) are the same at all three rates.
    - LDLJ-A (acceleration norm) falls as the rate rises, by 0.001 to 0.13
      from 64 to 256 Hz, and each doubling moves it 0.25 to 0.50 times as
      far as the one before: it converges as 1/rate. The minimum-jerk
      acceleration leaves zero with a nonzero slope, so the norm has a
      kink where the pulse starts and ends.
    - LDLJ of the pulse's own gyro norm, on duration * rate + 1 samples,
      rises towards -ln(120 / (7 * 1.875^2)) and stays below it, as the
      `log_dimensionless_jerk` docstring says.
    """
    axis = np.random.default_rng(seed).normal(size=3)
    total_s, onset_s, duration_s = (before + pulse + after) / 64, before / 64, pulse / 64
    unit = axis / np.linalg.norm(axis)
    row, alone = (onset_s, duration_s, amplitude, unit), (0.0, duration_s, amplitude, unit)
    values = []
    for rate in (64.0, 128.0, 256.0):
        stream = synth_segment([row], total_s, rate, 0.0, 0.0, np.random.default_rng(0), lever_arm_m)
        a_norm, w_norm = euclidean_norm(stream.accel), euclidean_norm(stream.gyro)
        bare = synth_segment([alone], duration_s + 1 / rate, rate, 0.0, 0.0, np.random.default_rng(0))
        values.append((
            spectral_arc_length(w_norm, rate),
            mean_crossing_count(a_norm),
            peak_count(a_norm),
            log_dimensionless_jerk(a_norm, rate),
            log_dimensionless_jerk(euclidean_norm(bare.gyro), rate),
        ))
    sparc, nmcp_a, np_a, ldlj_a, ldlj_pulse = zip(*values)
    assert max(sparc) - min(sparc) < 1e-5
    assert len(set(nmcp_a)) == len(set(np_a)) == 1
    first, second = ldlj_a[1] - ldlj_a[0], ldlj_a[2] - ldlj_a[1]
    assert first < 0 and second < 0
    assert second > 0.55 * first
    assert ldlj_pulse[0] < ldlj_pulse[1] < ldlj_pulse[2] < -math.log(120 / (7 * 1.875**2))


@st.composite
def task_labels(draw, flat_span):
    """Labels of one to five tasks, one after another, whose subtask windows
    are often 1 to 3 samples long; the spans that `flat_span(draw, label)`
    picks in about half of the tasks, to be held constant; and a stream
    length 0 to 3 samples past the last label."""
    tasks = draw(st.lists(st.sampled_from(list(TaskKind)), min_size=1, max_size=5, unique=True))
    lengths = st.one_of(st.integers(1, 3), st.integers(4, 40))
    labels, flat, end = {}, [], 0
    for task in tasks:
        s1 = end + draw(st.integers(0, 3))
        e1 = s1 + draw(lengths)
        e2 = e1 + draw(lengths)
        end = e2 + draw(lengths)
        labels[task] = SegmentLabel(s1, e1, e2, end)
        if draw(st.booleans()):
            flat.append(flat_span(draw, labels[task]))
    return labels, flat, end + draw(st.integers(0, 3))


def bound_to_later_bound(draw, label):
    """From one bound to a later one: a whole task, or subtasks."""
    first = draw(st.sampled_from((label.s1, label.e1, label.e2)))
    return first, draw(st.sampled_from([b for b in (label.e1, label.e2, label.e3) if b > first]))


@st.composite
def window_sessions(draw):
    """One session on one or both placements whose subtask windows are
    often 1 to 3 samples long, sometimes constant, and plateau-edged when
    the samples are small integers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels, constant, n = draw(task_labels(lambda draw, label: (label.e1, label.e2)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    rate = draw(st.sampled_from((32.0, 100.0 / 3.0, 128.0)))
    streams = {}
    for placement in draw(st.sampled_from(([Placement.WRIST], list(Placement)))):
        if draw(st.booleans()):
            accel = rng.integers(0, 3, (n, 3)).astype(float)
        else:
            accel = rng.normal(0.0, 2.0, (n, 3)) + np.array([0.0, 0.0, 9.81])
        gyro = rng.normal(0.0, 30.0, (n, 3))
        for start, stop in constant:
            accel[start:stop] = accel[start]
        streams[placement] = SensorStream(accel=scale * accel, gyro=gyro, sample_rate_hz=rate)
    return assemble_session("S01", Group.PATIENT, "left", streams, labels)


def cell_bits(rows):
    """Each row's cell and the bits of its seven values."""
    return [
        (
            (row.task, row.segment, row.placement),
            [bits(getattr(row.features, name)) for name in FeatureVector.FIELD_NAMES],
        )
        for row in rows
    ]


def reference_extract(session, params):
    """Each present cell in grid order, from copies of its own window and
    the seven per-window kernels, the way a cell was extracted alone."""
    rows, failures = extract_per_cell(session, params, features)
    return cell_bits(rows), [str(err) for err in failures]


@given(
    window_sessions(),
    st.builds(
        FeatureParams,
        peak_prominence_frac=st.sampled_from((0.01, 0.05, 0.3)),
        sparc_pad_level=st.integers(0, 2),
        min_segment_s=st.just(1e-3),
    ),
)
def test_extract_cohort_matches_each_window_alone_bit_for_bit(session, params):
    rows, failures = extract_cohort([session], params)
    got = cell_bits(rows)
    assert (got, [str(err) for err in failures]) == reference_extract(session, params)


# amplitudes from LDLJ-A's scaled path (a peak under about 1.5e-154) to
# past the one where a squared sample overflows
AMPLITUDES = st.one_of(
    st.sampled_from((1.0, 1e-160, 3e-155, 1e150, 1e152, 1e153)),
    st.integers(-100, 100).map(lambda k: 10.0**k),
)


@st.composite
def oracle_cases(draw):
    """A session and parameters for the per-cell oracle: windows of 1 to 3
    samples and longer ones, some shorter than min_segment_s, constant
    windows, an all-zero gyro, amplitudes from about 1e-160 to 1e153, and
    now and then one sample of 1e200, whose norm overflows, at 100/3, 128
    or 7e5 Hz, with pad levels 0 to 8 and cutoffs of 0.5, 10 and 1e9 Hz."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from((100.0 / 3.0, 128.0, 7e5)))
    labels, constant, n = draw(task_labels(bound_to_later_bound))
    streams = {}
    for placement in draw(st.sampled_from(([Placement.WRIST], list(Placement)))):
        if draw(st.booleans()):
            accel = rng.integers(0, 3, (n, 3)).astype(float)
        else:
            accel = rng.normal(0.0, 2.0, (n, 3)) + np.array([0.0, 0.0, 9.81])
        gyro = np.zeros((n, 3)) if draw(st.booleans()) else rng.normal(0.0, 30.0, (n, 3))
        for start, stop in constant:
            accel[start:stop] = accel[start]
            gyro[start:stop] = gyro[start]
        accel *= draw(AMPLITUDES)
        gyro *= draw(AMPLITUDES)
        if draw(st.integers(0, 3)) == 0:
            spiked = draw(st.sampled_from((accel, gyro)))
            spiked[draw(st.integers(0, n - 1)), draw(st.integers(0, 2))] = 1e200
        streams[placement] = SensorStream(accel=accel, gyro=gyro, sample_rate_hz=rate)
    session = assemble_session("S01", Group.PATIENT, "left", streams, labels)
    params = FeatureParams(
        peak_prominence_frac=draw(st.sampled_from((0.01, 0.05, 0.3))),
        sparc_max_cutoff_hz=draw(st.sampled_from((0.5, 10.0, 1e9))),
        sparc_pad_level=draw(st.integers(0, 8)),
        # a window shorter than this many samples is too short for SPARC
        min_segment_s=draw(st.integers(1, 12)) / rate,
    )
    return session, params


def extraction(run):
    """The rows `run` returns, bit for bit, and its failures, or the
    validation error it raises, each by type and text."""
    try:
        rows, failures = run()
    except ValidationError as err:
        return type(err), str(err)
    got = [
        (
            (row.task, row.segment, row.placement),
            [(type(value), bits(value)) for value in astuple(row.features)],
        )
        for row in rows
    ]
    return got, [(type(err), type(err.cause), str(err)) for err in failures]


@settings(max_examples=300)
@given(oracle_cases())
def test_extract_cohort_matches_the_per_cell_oracle_bit_for_bit(case):
    """A session's cells, computed in array passes over each placement's
    windows, against the per-cell arithmetic they replaced: the same rows,
    bit for bit, the same failures in the same order, and the same first
    invalid value."""
    session, params = case
    assert extraction(lambda: extract_cohort([session], params)) == extraction(
        lambda: extract_per_cell(session, params)
    )


def reference_pulse_speed(t, pulse):
    onset_s, duration_s, amplitude_dps, _ = pulse
    tau = (t - onset_s) / duration_s
    inside = (tau >= 0.0) & (tau <= 1.0)
    tau = np.where(inside, tau, 0.0)
    poly = 30.0 * tau**2 - 60.0 * tau**3 + 30.0 * tau**4
    return np.where(inside, amplitude_dps * poly / 1.875, 0.0)


def reference_pulse_accel(t, pulse):
    onset_s, duration_s, amplitude_dps, _ = pulse
    tau = (t - onset_s) / duration_s
    inside = (tau >= 0.0) & (tau <= 1.0)
    tau = np.where(inside, tau, 0.0)
    dpoly = 60.0 * tau - 180.0 * tau**2 + 120.0 * tau**3
    return np.where(inside, amplitude_dps * dpoly / (1.875 * duration_s), 0.0)


def reference_render(pulses, n, rate, lever_arm_m, noise, rng):
    """One placement's (accel, gyro) from (onset_s, duration_s,
    amplitude_dps, unit axis) rows, pulse by pulse: each pulse's speed and
    acceleration on its own window, spread over its axis by np.outer."""
    t = np.arange(n) / rate
    gyro = np.zeros((n, 3))
    accel = np.zeros((n, 3))
    accel[:, 2] = GRAVITY_MS2
    for pulse in pulses:
        onset_s, duration_s, _, axis = pulse
        lo = max(0, int(math.floor(onset_s * rate)))
        hi = min(n, int(math.ceil((onset_s + duration_s) * rate)) + 1)
        window = t[lo:hi]
        linear = lever_arm_m * np.deg2rad(reference_pulse_accel(window, pulse))
        gyro[lo:hi] += np.outer(reference_pulse_speed(window, pulse), axis)
        accel[lo:hi] += np.outer(linear, axis)
    accel += rng.normal(0.0, noise[0], (n, 3))
    gyro += rng.normal(0.0, noise[1], (n, 3))
    return accel, gyro


def reference_render_pulses(pulses, n, rate, placements, noise, rng):
    """`synth._render_pulses` pulse by pulse: each placement's rows, with
    the amplitude scaled, rendered by `reference_render`."""
    streams = []
    for scale, lever_arm_m in placements:
        scaled = [(on, span, amp * scale, axis) for on, span, amp, axis in pulses]
        accel, gyro = reference_render(scaled, n, rate, lever_arm_m, noise, rng)
        streams.append(SensorStream(accel=accel, gyro=gyro, sample_rate_hz=rate))
    return streams


PLACEMENTS = [(PLACEMENT_AMPLITUDE_SCALE[p], PLACEMENT_LEVER_M[p]) for p in Placement]


@st.composite
def pulse_tables(draw):
    """Pulse rows on a sample grid and its length: 8-sample and longer
    pulses, back to back, so that neighbouring windows share a sample, or
    after a pause, with onsets on a sample or between two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from((128.0, 100.0 / 3.0)))
    rows, cursor = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 12))):
        n_i = draw(st.one_of(st.just(8), st.integers(9, 200)))
        shift = draw(st.sampled_from((0.0, 0.0, 0.25, 0.999)))
        amplitude = draw(st.floats(-1e4, 1e4, allow_subnormal=False))
        axis = rng.normal(0.0, 1.0, 3)
        axis /= float(np.sqrt(np.sum(axis * axis)))
        rows.append(((cursor + shift) / rate, n_i / rate, amplitude, axis))
        cursor += n_i + draw(st.one_of(st.just(0), st.integers(1, 90)))
    return rows, cursor + 1 + draw(st.integers(0, 3)), rate


def stream_bits(stream) -> tuple[bytes, bytes]:
    return stream.accel.tobytes(), stream.gyro.tobytes()


@given(pulse_tables(), st.integers(0, 2**32 - 1))
def test_pulse_renderer_matches_pulse_by_pulse_reference_bit_for_bit(table, seed):
    rows, n, rate = table
    noise = (0.02, 0.6)
    got = synth._render_pulses(rows, n, rate, PLACEMENTS, noise, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = reference_render_pulses(rows, n, rate, PLACEMENTS, noise, rng)
    assert list(map(stream_bits, got)) == list(map(stream_bits, want))
    # synth_segment renders its rows through the same renderer
    stream = synth_segment(rows, n / rate, rate, *noise, np.random.default_rng(seed), 0.55)
    want = reference_render(rows, n, rate, 0.55, noise, np.random.default_rng(seed))
    assert stream_bits(stream) == (want[0].tobytes(), want[1].tobytes())


def test_generate_session_at_most_submovements_matches_pulse_by_pulse_reference(monkeypatch):
    base = default_profile(n_per_group=2, seed=42)
    most = (MAX_SUBMOVEMENTS, MAX_SUBMOVEMENTS)
    busy = replace(base, patient=replace(base.patient, submovements=most))
    got = synth.generate_session(busy, Group.PATIENT, 0)
    monkeypatch.setattr(synth, "_render_pulses", reference_render_pulses)
    want = synth.generate_session(busy, Group.PATIENT, 0)
    assert got.labels == want.labels
    for placement in Placement:
        assert stream_bits(got.streams[placement]) == stream_bits(want.streams[placement])
