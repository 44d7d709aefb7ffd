"""The text formats and the grid types they carry, with no numpy.

The grid enums (`TaskKind`, `SegmentKind`, `Placement`, `Group`), the
subject-id rule, `FeatureVector` with the feature grid, and `FeatureRow`
live here, beside the text primitives every reader and writer goes
through and the feature-matrix format. `read_lines` opens and decodes
every input file, `parse_key_values` parses every `key = value` line
(session manifests, params files and the sections of a cohort profile),
`split_rows` splits every comma-separated row, and `parse_number` is the
one grammar for a number cell (through `parse_cell`, which names the bad
cell). `write_atomically` writes each output that a later stage takes as
complete: the cohort manifest, the feature matrix, the comparison dump
and the report.

Nothing here imports numpy, so `compare` and `report`, which read and
write only text, load none. Import each name from here, the module that
defines it; the signal arrays and the recording format stay in `model`
and `ingest`.
"""
from __future__ import annotations

import math
import operator
import os
import stat
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ParseError, ValidationError


class TaskKind(Enum):
    """The five shoulder tasks, in protocol order."""

    WH = "WH"
    WUB = "WUB"
    WLB = "WLB"
    POH = "POH"
    ROP = "ROP"


class SegmentKind(Enum):
    """A scoring window within one task: the whole task or one subtask."""

    COMPLETE = "complete"
    SUB1 = "sub1"
    SUB2 = "sub2"
    SUB3 = "sub3"


class Placement(Enum):
    """Which limb segment the sensor was strapped to."""

    WRIST = "wrist"
    ARM = "arm"


class Group(Enum):
    PATIENT = "patient"
    HEALTHY = "healthy"


def check_subject_id(sid: str) -> None:
    """The one subject-id rule, so that a matrix row or a manifest line reads the id back."""
    if not sid:
        raise ValidationError("subject_id must be non-empty")
    if any(c in sid for c in ",\r\n"):
        raise ValidationError(f"subject_id must not contain a comma or line break, got {sid!r}")
    if sid != sid.strip():
        raise ValidationError(f"subject_id must not start or end with whitespace, got {sid!r}")


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool: writers would print `True`.

    A numpy integer can exist only once numpy is loaded, so it is looked
    up there rather than imported.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(value, numpy.integer)


@dataclass(frozen=True)
class FeatureVector:
    """The seven per-segment features.

    Construction requires integer counts, none larger than the largest
    double, and every field finite; degenerate signals must be rejected
    with an error before this point, never smuggled through as NaN.
    """

    nmcp_a: int
    np_a: int
    sparc: float
    ldlj_a: float
    rav: float
    pi: float
    duration_s: float

    def __post_init__(self):
        counts = [getattr(self, name) for name in self.COUNT_NAMES]
        if not all(map(_is_integer, counts)):
            raise ValidationError(f"counts must be integers, got {tuple(counts)}")
        for name, count in zip(self.COUNT_NAMES, counts):
            if count < 0:
                raise ValidationError(f"{name} must be non-negative, got {count}")
            # the statistics take each count as a double
            if count > sys.float_info.max:
                raise ValidationError(f"{name} is larger than the largest double")
        if not self.duration_s > 0:
            raise ValidationError(f"duration_s must be positive, got {self.duration_s}")
        for name in self.FIELD_NAMES:
            if name not in self.COUNT_NAMES and not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} is not finite")

    # the feature-matrix column order, and the fields that are integer
    # counts; every other field is a float
    FIELD_NAMES = ("nmcp_a", "np_a", "sparc", "ldlj_a", "rav", "pi", "duration_s")
    COUNT_NAMES = ("nmcp_a", "np_a")


# The feature grid in dump and report row order: each feature, its report
# label, and the placements it is scored at. Duration is counted once per
# subject, so its one placement is None.
FEATURE_GRID = (
    ("nmcp_a", "NMCP-A", tuple(Placement)),
    ("np_a", "NP-A", tuple(Placement)),
    ("ldlj_a", "LDLJ-A", tuple(Placement)),
    ("sparc", "SPARC", tuple(Placement)),
    ("rav", "RAV", tuple(Placement)),
    ("pi", "PI", tuple(Placement)),
    ("duration_s", "Duration", (None,)),
)


@dataclass(frozen=True)
class FeatureRow:
    """One feature-matrix row: a cell's coordinates plus its values."""

    subject_id: str
    group: Group
    task: TaskKind
    segment: SegmentKind
    placement: Placement
    features: FeatureVector


def _open_nonblocking(path, flags: int) -> int:
    # without O_NONBLOCK, opening a FIFO waits for a writer
    return os.open(path, flags | os.O_NONBLOCK)


def read_lines(path, header: str | None = None, missing: Exception | None = None) -> list[str]:
    """Read a UTF-8 text file as lines, accepting LF or CRLF endings.

    The final newline does not yield an empty last line. When `header` is
    given, the first line must equal it. A missing file raises `missing`,
    by default a "file not found" parse error; any other unreadable,
    undecodable or non-file path is a parse error. Only a regular file is
    read: a directory, FIFO or device (``/dev/zero``) is refused before
    any read, so none can block or fill memory.
    """
    try:
        with open(path, "rb", opener=_open_nonblocking) as fh:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                raise ParseError("not a regular file", path=path)
            text = fh.read().decode("utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise missing or ParseError("file not found", path=path) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"not valid UTF-8: {err}", path=path) from None
    except (OSError, ValueError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ParseError(f"cannot read: {reason}", path=path) from None
    # a text with no carriage return has no CRLF to replace
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if header is not None:
        if not lines:
            raise ParseError("empty file", path=path)
        if lines[0] != header:
            raise ParseError(
                f"bad header: expected {header!r}, got {lines[0]!r}", path=path, line=1
            )
    return lines


def write_atomically(path, data: bytes) -> None:
    """Write `data` to `path` whole or not at all.

    The bytes go to a temporary name beside the file that `path` names,
    after symbolic links, which then replaces that file in one rename and
    keeps its permission bits. On any error or interrupt the temporary
    file is removed, so the file keeps its old bytes, or stays absent, and
    an `OSError` names `path`. Nothing is synced to disk: this survives a
    failed or killed run, not a power loss, and a SIGKILL can leave the
    temporary file behind. A path to anything but a regular file, such as
    ``/dev/null`` or a FIFO, is written in place, because a rename would
    replace the device itself.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:  # absent, or not reachable: the write below says which
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        Path(path).write_bytes(data)
        return
    target = Path(os.path.realpath(path))
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        temporary.write_bytes(data)
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        os.replace(temporary, target)
    except BaseException as err:
        temporary.unlink(missing_ok=True)
        if isinstance(err, OSError):  # of the class the errno gives
            raise OSError(err.errno, err.strerror, os.fspath(path)) from err
        raise


def parse_key_values(
    lines: list[str], keys, path, first_line: int = 1
) -> dict[str, tuple[str, int]]:
    """Map each `key = value` line to ``{key: (value, line_no)}``.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped. Keys outside `keys`, repeated keys and lines without ``=``
    are parse errors naming the line; which keys are required is up to
    the caller. `first_line` is the line number of ``lines[0]``.
    """
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", path=path, line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ParseError(f"unknown key {key!r}", path=path, line=line_no)
        if key in pairs:
            raise ParseError(f"duplicate key {key!r}", path=path, line=line_no)
        pairs[key] = (value.strip(), line_no)
    return pairs


def parse_number(cell: str, kind=float):
    """One number cell of any input file, as `kind` (float or int).

    The grammar is the one `np.loadtxt` applies to recordings: a C-style
    decimal (sign, digits, point, exponent, or nan/inf/infinity for
    floats) in ASCII, with surrounding whitespace other than a carriage
    return. Python's `float` and `int` alone would also take digit
    separators (``1_0``) and non-ASCII digits (``١``, ``２``).
    """
    text = cell.strip()
    if not text.isascii() or "_" in text or "\r" in cell:
        raise ValueError(cell)
    return kind(text)


_NUMBER_KINDS = {float: "a number", int: "an integer"}


def parse_cell(convert, cell: str, column: str, path, line_no: int | None):
    """`cell` converted by `convert`, or a parse error naming path, line and column.

    `convert` is `float` or `int`, both read by `parse_number`, or an
    Enum class, whose values must match the cell exactly.
    """
    try:
        if convert in _NUMBER_KINDS:
            return parse_number(cell, convert)
        return convert(cell)
    except ValueError:
        expected = _NUMBER_KINDS.get(convert) or "one of " + ", ".join(m.value for m in convert)
        message = f"cannot parse value for {column!r}: {cell!r} is not {expected}"
        raise ParseError(message, path=path, line=line_no) from None


def split_rows(lines: list[str], n_columns: int, path, first_line: int = 2):
    """Yield ``(line_no, cells)`` for comma-separated `lines`.

    A row with other than `n_columns` cells is a parse error naming its
    line; `first_line` is the line number of ``lines[0]``.
    """
    for line_no, line in enumerate(lines, start=first_line):
        cells = line.split(",")
        if len(cells) != n_columns:
            message = f"expected {n_columns} columns, got {len(cells)}"
            raise ParseError(message, path=path, line=line_no)
        yield line_no, cells


def format_float(value) -> str:
    """Shortest text that reads back as the same double, numpy scalars included."""
    return repr(float(value))


MATRIX_COLUMNS = (
    "subject_id",
    "group",
    "task",
    "segment",
    "placement",
) + FeatureVector.FIELD_NAMES
MATRIX_HEADER = ",".join(MATRIX_COLUMNS)
_feature_values = operator.attrgetter(*FeatureVector.FIELD_NAMES)
# each feature's type in column order: a count is written as digits, a
# float by `format_float`
_TYPES = tuple(int if n in FeatureVector.COUNT_NAMES else float for n in FeatureVector.FIELD_NAMES)


def write_matrix(rows) -> bytes:
    """Serialize feature rows as the documented CSV, floats via `format_float`."""
    lines = [MATRIX_HEADER]
    for row in rows:
        values = _feature_values(row.features)
        lines.append(
            ",".join(
                (
                    row.subject_id,
                    row.group.value,
                    row.task.value,
                    row.segment.value,
                    row.placement.value,
                    *(str(v) if t is int else format_float(v) for t, v in zip(_TYPES, values)),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# how read_matrix converts each cell after the subject id
_MATRIX_CONVERTERS = (Group, TaskKind, SegmentKind, Placement) + _TYPES


def read_matrix(path) -> list[FeatureRow]:
    """Parse a feature-matrix CSV written by `write_matrix`.

    Each subject is in one group and each of its cells on one row; a
    repeated cell, a subject in both groups or a bad subject id
    (`check_subject_id`) is a validation error naming the line.
    """
    lines = read_lines(path, MATRIX_HEADER)
    rows: list[FeatureRow] = []
    group_of: dict[str, Group] = {}
    rows_seen: set[tuple] = set()
    for line_no, cells in split_rows(lines[1:], len(MATRIX_COLUMNS), path):
        subject = cells[0]
        group, task, segment, placement, *values = [
            parse_cell(convert, cell, column, path, line_no)
            for convert, cell, column in zip(_MATRIX_CONVERTERS, cells[1:], MATRIX_COLUMNS[1:])
        ]
        try:
            check_subject_id(subject)
            vector = FeatureVector(*values)
        except ValidationError as err:
            raise ValidationError(f"{path}:{line_no}: {err}") from None
        if group_of.setdefault(subject, group) is not group:
            raise ValidationError(
                f"{path}:{line_no}: subject {subject!r} is in both the "
                f"{group_of[subject].value} and the {group.value} group"
            )
        key = (subject, task, segment, placement)
        if key in rows_seen:
            raise ValidationError(
                f"{path}:{line_no}: repeated row for {subject} "
                f"{task.value}/{segment.value}/{placement.value}"
            )
        rows_seen.add(key)
        rows.append(FeatureRow(subject, group, task, segment, placement, vector))
    return rows
