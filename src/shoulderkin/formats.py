"""The text formats and the grid types they carry, with no numpy.

The grid enums (`TaskKind`, `SegmentKind`, `Placement`, `Group`), the
subject-id rule, `FeatureVector` with the feature grid, and `FeatureRow`
live here, beside the text primitives every reader and writer goes
through and the feature-matrix format. `read_lines` opens and decodes
every input file, `parse_key_values` reads and converts every
`key = value` line (session manifests, params files, cohort profiles)
by one table of kinds, and its twin `format_key_values` writes every
such line by the same table. `split_rows` splits every comma-separated
row, and `parse_number` is the one grammar for a number cell (through
`parse_cell`, which names the bad cell). `write_atomically` writes each
output that a later stage takes as complete: the cohort manifest, the
feature matrix, the comparison dump and the report. `write_chunks`
writes each session file of a cohort, a chunk at a time.

Nothing here imports numpy, so `compare` and `report`, which read and
write only text, load none. Import each name from here, the module that
defines it; the signal arrays and the recording format stay in `model`
and `ingest`.
"""
from __future__ import annotations

import contextlib
import math
import os
import stat
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import ParseError, ValidationError


# Each grid enum hashes by identity, as its members compare: `Enum`'s own
# `__hash__` is a Python-level call, run on every cell key of the grid.


class TaskKind(Enum):
    """The five shoulder tasks, in protocol order."""

    WH = "WH"
    WUB = "WUB"
    WLB = "WLB"
    POH = "POH"
    ROP = "ROP"

    __hash__ = object.__hash__


class SegmentKind(Enum):
    """A scoring window within one task: the whole task or one subtask."""

    COMPLETE = "complete"
    SUB1 = "sub1"
    SUB2 = "sub2"
    SUB3 = "sub3"

    __hash__ = object.__hash__


class Placement(Enum):
    """Which limb segment the sensor was strapped to."""

    WRIST = "wrist"
    ARM = "arm"

    __hash__ = object.__hash__


class Group(Enum):
    PATIENT = "patient"
    HEALTHY = "healthy"

    __hash__ = object.__hash__


def check_text_value(key: str, text: str, comma: bool = False) -> None:
    """The one rule for a text value written on a line of its own and read
    back stripped: non-empty, no line break (and, with `comma`, no comma),
    no whitespace at either end, and encodable as UTF-8."""
    if not text:
        raise ValidationError(f"{key} must be non-empty")
    if "\r" in text or "\n" in text or (comma and "," in text):
        refused = "a comma or line break" if comma else "a line break"
        raise ValidationError(f"{key} must not contain {refused}, got {text!r}")
    if text != text.strip():
        raise ValidationError(f"{key} must not start or end with whitespace, got {text!r}")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{key} is not encodable as UTF-8, got {text!r}") from None


def check_subject_id(sid: str) -> None:
    """The one subject-id rule, so that a matrix row or a manifest line reads the id back."""
    check_text_value("subject_id", sid, comma=True)


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


_LARGEST_DOUBLE = sys.float_info.max


@dataclass(frozen=True)
class FeatureVector:
    """The seven per-segment features.

    Construction requires integer counts, none larger than the largest
    double, and every field finite; degenerate signals must be rejected
    with an error before this point, never smuggled through as NaN. Each
    rule is first checked for all its fields at once; when one fails, the
    error names the first field that breaks it, in field order.
    """

    nmcp_a: int
    np_a: int
    sparc: float
    ldlj_a: float
    rav: float
    pi: float
    duration_s: float

    def __post_init__(self):
        counts = (self.nmcp_a, self.np_a)
        if not (_is_integer(counts[0]) and _is_integer(counts[1])):
            raise ValidationError(f"counts must be integers, got {counts}")
        # the statistics take each count as a double
        if not (0 <= self.nmcp_a <= _LARGEST_DOUBLE and 0 <= self.np_a <= _LARGEST_DOUBLE):
            for name, count in zip(self.COUNT_NAMES, counts):
                if count < 0:
                    raise ValidationError(f"{name} must be non-negative, got {count}")
                if count > _LARGEST_DOUBLE:
                    raise ValidationError(f"{name} is larger than the largest double")
        if not self.duration_s > 0:
            raise ValidationError(f"duration_s must be positive, got {self.duration_s}")
        isfinite = math.isfinite
        if not (
            isfinite(self.sparc)
            and isfinite(self.ldlj_a)
            and isfinite(self.rav)
            and isfinite(self.pi)
            and isfinite(self.duration_s)
        ):
            for name in self.FIELD_NAMES:
                if name not in self.COUNT_NAMES and not isfinite(getattr(self, name)):
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
    # without O_NONBLOCK, opening a FIFO to read waits for a writer, and
    # opening one to write waits for a reader; 0o666 is `open`'s own mode
    return os.open(path, flags | os.O_NONBLOCK, 0o666)


def write_chunks(path, chunks) -> None:
    """Write each bytes chunk of the iterable `chunks` to `path` in turn,
    creating or truncating the file, so no more than one chunk is held.

    The file is opened without blocking and then written in blocking mode:
    a FIFO with no reader fails at once with an `OSError` naming `path`,
    where a plain open would wait for a reader for ever.
    """
    with open(path, "wb", opener=_open_nonblocking) as fh:
        os.set_blocking(fh.fileno(), True)
        fh.writelines(chunks)


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
    replace the device itself. The temporary name is ``.<name>.<pid>.tmp``,
    ``<name>`` cut short where the directory's name limit needs it.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:  # absent, or not reachable: the write below says which
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        Path(path).write_bytes(data)
        return
    target = Path(os.path.realpath(path))
    suffix = f".{os.getpid()}.tmp".encode()
    try:  # the bytes of the name that fit the directory's limit beside the dot and suffix
        room = os.pathconf(target.parent, "PC_NAME_MAX") - 1 - len(suffix)
    except OSError:  # no such directory: the write below says so
        room = None
    temporary = target.with_name(os.fsdecode(b"." + os.fsencode(target.name)[:room] + suffix))
    try:
        temporary.write_bytes(data)
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        os.replace(temporary, target)
    except BaseException as err:
        with contextlib.suppress(OSError):  # the first error is the one to report
            temporary.unlink(missing_ok=True)
        if isinstance(err, OSError):  # of the class the errno gives
            raise OSError(err.errno, err.strerror, os.fspath(path)) from err
        raise


def parse_key_values(lines: list[str], kinds, path, first_line: int = 1, required: bool = True):
    """Map each `key = value` line to ``{key: value}``, converted by `kinds`.

    A kind is `str`, `int`, `float`, an Enum, or a pair of them for a
    ``lo hi`` value; each cell goes through `parse_cell`. Blank lines and
    lines whose first non-blank character is ``#`` are skipped. Keys
    outside `kinds`, repeated keys and lines without ``=`` are parse
    errors naming the line. `first_line` is the number of ``lines[0]``.
    With `required`, absent keys are an error at the line before it (a
    section header), or at no line when that is 0.
    """
    values = {}
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", path=path, line=line_no)
        key, text = map(str.strip, line.split("=", 1))
        if key not in kinds:
            raise ParseError(f"unknown key {key!r}", path=path, line=line_no)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", path=path, line=line_no)
        kind = kinds[key]
        if isinstance(kind, tuple):
            cells = text.split()
            if len(cells) != len(kind):
                message = f"{key} must be two values 'lo hi', got {text!r}"
                raise ParseError(message, path=path, line=line_no)
            values[key] = tuple(
                parse_cell(each, cell, key, path, line_no) for each, cell in zip(kind, cells)
            )
        else:
            values[key] = parse_cell(kind, text, key, path, line_no)
    missing = [key for key in kinds if key not in values]
    if required and missing:
        message = f"missing keys: {', '.join(missing)}"
        raise ParseError(message, path=path, line=first_line - 1 or None)
    return values


def format_key_values(owner, kinds) -> str:
    """The `key = value` lines that `parse_key_values` reads back by `kinds`.

    Each key of `kinds`, in its order, takes the attribute of that name on
    `owner`, written by its kind: an Enum by its value, a str as is, an
    integer as digits, a float as `format_float` text with an integral
    value's ".0" dropped (128.0 is ``128``), and a pair as its two values
    separated by a space.
    """
    lines = []
    for key, kind in kinds.items():
        value = getattr(owner, key)
        if not isinstance(kind, tuple):
            kind, value = (kind,), (value,)
        lines.append(f"{key} = {' '.join(map(_format_value, kind, value))}\n")
    return "".join(lines)


def _format_value(kind, value) -> str:
    if kind is float:
        return format_float(value).removesuffix(".0")
    if kind is int:
        return str(value)
    return value if kind is str else value.value


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

    `convert` is `float` or `int`, both read by `parse_number`, an Enum
    class, whose values must match the cell exactly, or `str`.
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
# each feature's type in column order: a count is an integer, every other
# feature a float
_TYPES = tuple(int if n in FeatureVector.COUNT_NAMES else float for n in FeatureVector.FIELD_NAMES)
# the grid cells of a row, the four enums in column order
_GRID_ENUMS = (Group, TaskKind, SegmentKind, Placement)
_VALUE_OF = {member: member.value for kind in _GRID_ENUMS for member in kind}


def write_matrix(rows) -> bytes:
    """Serialize feature rows as the documented CSV.

    Each row is one f-string: the enums by their values, the counts by
    `str` and the floats by `format_float`'s ``repr(float(v))``, so numpy
    scalars print as Python's own numbers do.
    """
    value = _VALUE_OF
    lines = [MATRIX_HEADER]
    for row in rows:
        f = row.features
        lines.append(
            f"{row.subject_id},{value[row.group]},{value[row.task]},{value[row.segment]},"
            f"{value[row.placement]},{f.nmcp_a!s},{f.np_a!s},{float(f.sparc)!r},"
            f"{float(f.ldlj_a)!r},{float(f.rav)!r},{float(f.pi)!r},{float(f.duration_s)!r}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# how `parse_cell` converts each cell after the subject id
_MATRIX_CONVERTERS = _GRID_ENUMS + _TYPES
# each grid enum's members by value, for the rows read in one pass
_MEMBERS = tuple({member.value: member for member in kind} for kind in _GRID_ENUMS)


def read_matrix(path) -> list[FeatureRow]:
    """Parse a feature-matrix CSV written by `write_matrix`.

    Each subject is in one group and each of its cells on one row; a
    repeated cell, a subject in both groups or a bad subject id
    (`check_subject_id`) is a validation error naming the line.

    A line that is ASCII, with no ``_`` and no carriage return (the
    per-line form of `parse_number`'s checks), has its grid cells looked
    up by value and its numbers converted by `int` and `float` at once.
    Any other row, or one whose lookup or conversion fails, is read cell
    by cell through `parse_cell`, which gives the same values or names
    the first bad cell.
    """
    lines = read_lines(path, MATRIX_HEADER)
    groups, tasks, segments, placements = _MEMBERS
    rows: list[FeatureRow] = []
    group_of: dict[str, Group] = {}
    rows_seen: set[tuple] = set()
    body = lines[1:]
    for line, (line_no, cells) in zip(body, split_rows(body, len(MATRIX_COLUMNS), path)):
        subject = cells[0]
        try:
            # the per-line form of `parse_number`'s checks
            if not line.isascii() or "_" in line or "\r" in line:
                raise ValueError(line)
            group, task = groups[cells[1]], tasks[cells[2]]
            segment, placement = segments[cells[3]], placements[cells[4]]
            values = (
                int(cells[5]), int(cells[6]), float(cells[7]), float(cells[8]),
                float(cells[9]), float(cells[10]), float(cells[11]),
            )
        except (KeyError, ValueError):
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
