"""Line endings in every line-based reader, the integer rule without numpy,
and the `key = value` writer that the reader reads back.

`read_lines` replaces CRLF only in a text that holds a carriage return.
A property holds it to the plain replace-and-split on random text that
mixes LF, CRLF and lone carriage returns, and the examples pin that a
CRLF or mixed file reads as its LF twin and that a lone carriage return
inside a row or at the end of the last one keeps its message and line
number in each reader. `_is_integer`, which no longer imports numpy, is
held to the numpy check it replaced, and `FeatureVector`'s messages are
pinned field by field. `format_key_values` writes every kind that
`parse_key_values` reads back, each float as the same double. A work pin
holds the matrix and dump round trip to no call of `Enum.__hash__` and
`read_matrix` to no `parse_cell` call on rows that pass its per-line gate.
"""

import enum
import fractions
import math
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from builders import grid_rows, varied_vector
from shoulderkin import ParseError, ShoulderKinError, ValidationError, compare_cohort
from shoulderkin import formats
from shoulderkin.formats import (
    FeatureVector,
    Group,
    TaskKind,
    _is_integer,
    format_key_values,
    parse_key_values,
    read_lines,
    read_matrix,
    write_matrix,
)
from shoulderkin.ingest import RECORDING_HEADER, parse_labels, parse_recording, write_labels
from shoulderkin.model import SegmentLabel
from shoulderkin.report import read_dump, write_dump


def recording_bytes():
    rows = [f"{i / 128!r},{i},2,3,4,5,{6 + i}" for i in range(4)]
    return ("\n".join([RECORDING_HEADER, *rows]) + "\n").encode()


def labels_bytes():
    starts = {task: 10 * i for i, task in enumerate(TaskKind)}
    return write_labels({task: SegmentLabel(s, s + 3, s + 5, s + 9) for task, s in starts.items()})


# each line-based reader, a valid file for it, and what a result is compared by
READERS = {
    "recording": (
        parse_recording,
        recording_bytes,
        lambda stream: (stream.accel.tobytes(), stream.gyro.tobytes()),
    ),
    "labels": (parse_labels, labels_bytes, lambda labels: labels),
    "matrix": (read_matrix, lambda: write_matrix(grid_rows(2, 2, varied_vector)), lambda rows: rows),
    "dump": (
        read_dump,
        lambda: write_dump(compare_cohort(grid_rows(2, 2, varied_vector))),
        lambda table: (table.n1, table.n2, table.cells),
    ),
}


def read(reader, path, data):
    """The reader's result on `data` as its comparable key, or its error's class and text."""
    parse, _, key = READERS[reader]
    path.write_bytes(data)
    try:
        return key(parse(path))
    except ShoulderKinError as err:
        return type(err), str(err).replace(str(path), "<path>")


def with_endings(data: bytes, endings) -> bytes:
    """`data` with its line ends replaced in turn by `endings`."""
    lines = data.split(b"\n")
    out = [line + endings[i % len(endings)] for i, line in enumerate(lines[:-1])]
    return b"".join(out) + lines[-1]


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize(
    "endings", [(b"\r\n",), (b"\n", b"\r\n"), (b"\r\n", b"\n")], ids=["crlf", "lf-crlf", "crlf-lf"]
)
def test_crlf_and_mixed_endings_read_as_lf(tmp_path, reader, endings):
    data = READERS[reader][1]()
    want = read(reader, tmp_path / "f.csv", data)
    assert not isinstance(want, tuple) or not isinstance(want[0], type)  # the LF file reads
    assert read(reader, tmp_path / "f.csv", with_endings(data, endings)) == want


# a lone carriage return after the first cell of line 3, and at the end of
# the last line with no newline after it; each reader's error, pinned
LONE_CR = {
    ("recording", "inside"): (
        ParseError,
        "<path>:3: cannot parse value for 'time_s': '0.0078125\\r' is not a number",
    ),
    ("recording", "end"): (
        ParseError,
        "<path>:5: cannot parse value for 'gz': '9\\r' is not a number",
    ),
    ("labels", "inside"): (
        ParseError,
        "<path>:3: cannot parse value for 'TASK': 'WUB\\r' is not one of WH, WUB, WLB, POH, ROP",
    ),
    ("labels", "end"): (
        ParseError,
        "<path>:6: cannot parse value for 'e3': '49\\r' is not an integer",
    ),
    ("matrix", "inside"): (
        ValidationError,
        "<path>:3: subject_id must not contain a comma or line break, got 'P0\\r'",
    ),
    ("matrix", "end"): (
        ParseError,
        "<path>:161: cannot parse value for 'duration_s': '3.0\\r' is not a number",
    ),
    ("dump", "inside"): (
        ParseError,
        "<path>:3: expected 'n2,<value>', got 'n2\\r,2'",
    ),
    ("dump", "end"): (
        ParseError,
        "<path>:264: significant must be true/false, got 'false\\r'",
    ),
}


@pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
@pytest.mark.parametrize("reader, where", LONE_CR)
def test_a_lone_carriage_return_names_its_line(tmp_path, reader, where, crlf):
    lines = READERS[reader][1]().split(b"\n")[:-1]
    if where == "inside":
        lines[2] = lines[2].replace(b",", b"\r,", 1)
        data = b"\n".join(lines) + b"\n"
    else:
        data = b"\n".join(lines) + b"\r"
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    assert read(reader, tmp_path / "f.csv", data) == LONE_CR[(reader, where)]


def old_lines(text: str) -> list[str]:
    """What `read_lines` gave before it skipped text with no carriage return."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def test_read_lines_matches_the_replace_and_split_on_random_text(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pieces = st.sampled_from(["a", "1.5", ",", " ", "é", "\n", "\r\n", "\r", "\r\r\n", "\n\r"])

    @hypothesis.given(st.lists(pieces, max_size=40).map("".join))
    def check(text):
        path = tmp_path / "text.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_lines(path) == old_lines(text)

    check()


# every kind of value the counts may be handed, numpy's included
INTEGER_CANDIDATES = [
    0, 7, -3, 10**400, True, False, 1.0, float("nan"), "3", None, fractions.Fraction(3),
    np.int8(3), np.int64(-2), np.uint64(2**64 - 1), np.intc(1), np.bool_(True),
    np.float64(3.0), np.array(3), np.array([3]), np.timedelta64(3),
]


@pytest.mark.parametrize("value", INTEGER_CANDIDATES, ids=repr)
def test_is_integer_is_the_numpy_integer_check(value):
    assert _is_integer(value) == (isinstance(value, (int, np.integer)) and not isinstance(value, bool))


@pytest.mark.parametrize("count", [np.int32(4), np.uint8(4), 4])
def test_feature_vector_takes_numpy_integer_counts(count):
    assert FeatureVector(count, 1, -1.0, -2.0, 1.0, 1.0, 1.0).nmcp_a == 4


@pytest.mark.parametrize("count", [True, np.bool_(True), np.array(4), 4.0])
def test_feature_vector_refuses_other_counts(count):
    with pytest.raises(ValidationError, match="counts must be integers"):
        FeatureVector(count, 1, -1.0, -2.0, 1.0, 1.0, 1.0)


LARGEST = int(sys.float_info.max)
VALID_FIELDS = dict(nmcp_a=1, np_a=2, sparc=-1.0, ldlj_a=-2.0, rav=1.0, pi=1.0, duration_s=1.0)


# the fields replaced, and the message of the first check that fails
@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(nmcp_a=1.0, np_a=-1), "counts must be integers, got (1.0, -1)"),
        (dict(np_a=True, sparc=math.nan), "counts must be integers, got (1, True)"),
        (dict(nmcp_a=-1, np_a=LARGEST + 1), "nmcp_a must be non-negative, got -1"),
        (dict(nmcp_a=LARGEST + 1, np_a=-1), "nmcp_a is larger than the largest double"),
        (dict(np_a=-2, duration_s=0.0), "np_a must be non-negative, got -2"),
        (dict(np_a=np.int64(-2)), "np_a must be non-negative, got -2"),
        (dict(np_a=LARGEST + 1), "np_a is larger than the largest double"),
        (dict(duration_s=math.nan, sparc=math.nan), "duration_s must be positive, got nan"),
        (dict(duration_s=-0.0), "duration_s must be positive, got -0.0"),
        (dict(sparc=math.inf, ldlj_a=math.nan), "sparc is not finite"),
        (dict(ldlj_a=-math.inf, pi=math.nan), "ldlj_a is not finite"),
        (dict(rav=math.nan, pi=math.nan), "rav is not finite"),
        (dict(pi=math.nan, duration_s=math.inf), "pi is not finite"),
        (dict(duration_s=math.inf), "duration_s is not finite"),
    ],
)
def test_feature_vector_names_the_first_failing_check(fields, message):
    with pytest.raises(ValidationError) as err:
        FeatureVector(**{**VALID_FIELDS, **fields})
    assert str(err.value) == message


def test_feature_vector_checks_finiteness_in_field_order():
    # a non-finite field before a non-number reports the former; a
    # non-number first fails `math.isfinite` itself
    with pytest.raises(ValidationError, match="^sparc is not finite$"):
        FeatureVector(**{**VALID_FIELDS, "sparc": math.nan, "rav": "x"})
    with pytest.raises(TypeError):
        FeatureVector(**{**VALID_FIELDS, "sparc": "x", "rav": math.nan})


def calls_while(run, functions):
    """`run()`'s result, and how many times it called each function, by name."""
    names = {function.__code__: function.__qualname__ for function in functions}
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_round_trip_hashes_no_enum_and_reads_valid_rows_in_one_pass(tmp_path):
    # `Enum.__hash__` is a Python call per hash of a cell key; the grid
    # enums hash by identity instead. `parse_cell` runs only for a row
    # that fails `read_matrix`'s per-line gate or its one-pass conversion.
    watched = (enum.Enum.__hash__, formats.parse_cell)
    rows = grid_rows(2, 2, varied_vector)
    matrix, dump = tmp_path / "matrix.csv", tmp_path / "dump.csv"
    matrix.write_bytes(write_matrix(rows))
    read_back, calls = calls_while(lambda: read_matrix(matrix), watched)
    assert read_back == rows
    assert calls == {}

    def compare_and_dump():
        dump.write_bytes(write_dump(compare_cohort(read_back)))
        return read_dump(dump)

    table, calls = calls_while(compare_and_dump, watched)
    assert table.cells == compare_cohort(rows).cells
    assert calls["Enum.__hash__"] == 0

    # a non-ASCII subject id fails the gate, and float() refuses the
    # padding that str.strip() removes: both rows are read cell by cell
    lines = matrix.read_text().split("\n")
    p1 = lines.index(next(line for line in lines if line.startswith("P1,")))
    lines[p1] = lines[p1].replace("P1,", "P\u00e91,", 1)
    cells = lines[p1 + 1].split(",")
    cells[7] = f"\x1c{cells[7]}\x1f"
    lines[p1 + 1] = ",".join(cells)
    matrix.write_text("\n".join(lines), encoding="utf-8")
    read_back, calls = calls_while(lambda: read_matrix(matrix), watched)
    assert calls == {"parse_cell": 2 * (len(formats.MATRIX_COLUMNS) - 1)}
    i = p1 - 1
    assert read_back[i].subject_id == "P\u00e91"
    assert read_back[i].features == rows[i].features
    assert read_back[i + 1] == rows[i + 1]
    assert read_back[: i] == rows[: i] and read_back[i + 2 :] == rows[i + 2 :]


def test_format_key_values_writes_each_kind_as_parse_key_values_reads_it():
    values = dict(
        path="P01 wrist.csv",
        group=Group.HEALTHY,
        count=7,
        numpy_count=np.int64(-3),
        counts=(1, np.int32(4)),
        span=(0.5, 2.0),
    )
    kinds = dict(
        path=str, group=Group, count=int, numpy_count=int, counts=(int, int), span=(float, float)
    )
    text = format_key_values(SimpleNamespace(**values), kinds)
    assert text == (
        "path = P01 wrist.csv\ngroup = healthy\ncount = 7\nnumpy_count = -3\n"
        "counts = 1 4\nspan = 0.5 2\n"
    )
    assert parse_key_values(text.splitlines(), kinds, "values.txt") == values


@pytest.mark.parametrize(
    "value, text",
    [
        (0.1, "0.1"),
        (128.0, "128"),
        (1e16, "1e+16"),
        (1e22, "1e+22"),
        (5e-324, "5e-324"),
        (-0.0, "-0"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (np.float64(100.1), "100.1"),
    ],
    ids=repr,
)
def test_format_key_values_writes_a_float_that_reads_back_as_the_same_double(value, text):
    # the shortest text that reads back, with an integral value's ".0" dropped
    line = format_key_values(SimpleNamespace(x=value), {"x": float})
    assert line == f"x = {text}\n"
    back = parse_key_values([line], {"x": float}, "values.txt")["x"]
    assert repr(back) == repr(float(value))
