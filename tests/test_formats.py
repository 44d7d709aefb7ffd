"""Line endings in every line-based reader, and the integer rule without numpy.

`read_lines` replaces CRLF only in a text that holds a carriage return.
A property holds it to the plain replace-and-split on random text that
mixes LF, CRLF and lone carriage returns, and the examples pin that a
CRLF or mixed file reads as its LF twin and that a lone carriage return
inside a row or at the end of the last one keeps its message and line
number in each reader. `_is_integer`, which no longer imports numpy, is
held to the numpy check it replaced.
"""

import fractions

import numpy as np
import pytest

from shoulderkin import ParseError, ShoulderKinError, ValidationError, compare_cohort
from shoulderkin.formats import (
    FeatureRow,
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    TaskKind,
    _is_integer,
    read_lines,
    read_matrix,
    write_matrix,
)
from shoulderkin.ingest import RECORDING_HEADER, parse_labels, parse_recording, write_labels
from shoulderkin.model import SegmentLabel
from shoulderkin.report import read_dump, write_dump


def varied_rows():
    """2v2 matrix rows, a different vector per subject."""
    rows = []
    for group, prefix in ((Group.PATIENT, "P"), (Group.HEALTHY, "H")):
        for i in range(2):
            vector = FeatureVector(1 + i, 2 + i, -1.5 - i, -4.0 - i, 2.0 + i, 1.0 + i, 2.0 + i)
            for task in TaskKind:
                for segment in SegmentKind:
                    for placement in Placement:
                        rows.append(FeatureRow(f"{prefix}{i}", group, task, segment, placement, vector))
    return rows


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
    "matrix": (read_matrix, lambda: write_matrix(varied_rows()), lambda rows: rows),
    "dump": (
        read_dump,
        lambda: write_dump(compare_cohort(varied_rows())),
        lambda table: (table.n1, table.n2, table.rule, table.cells),
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
