"""On-disk formats: recordings, labels, session and cohort manifests.

Parsing is strict: anything off-grammar is rejected with a path and line
number rather than coerced. Writers emit LF line endings; parsers accept
CRLF as well. The recording time column is informative only; sample
positions are defined by row index and the manifest's sample rate.

`read_lines` is the one place the package opens and decodes an input
file, `parse_key_values` the one `key = value` parser, `split_rows` the
one comma-separated row splitter, and `parse_number` the one grammar for
a number cell (through `parse_cell`, which names the bad cell); every
reader, here and in the other modules, goes through them. `iter_cohort`
is the one cohort walker: `load_cohort` is its list.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from .errors import BoundaryError, CohortError, ParseError, ValidationError
from .model import (
    DEFAULT_SAMPLE_RATE_HZ,
    Group,
    Placement,
    SegmentLabel,
    SensorStream,
    Session,
    TaskKind,
    assemble_session,
)

RECORDING_HEADER = "time_s,ax,ay,az,gx,gy,gz"
RECORDING_COLUMNS = RECORDING_HEADER.split(",")
LABELS_HEADER = "TASK,s1,e1,s2,e2,s3,e3"
COHORT_MANIFEST_NAME = "cohort.txt"

# 9 significant digits: enough for 1e-9 relative round-trip, small files
_FLOAT_FORMAT = "%.9g"
_ROW_FORMAT = ",".join([_FLOAT_FORMAT] * len(RECORDING_COLUMNS))


def read_lines(path, header: str | None = None, missing: Exception | None = None) -> list[str]:
    """Read a UTF-8 text file as lines, accepting LF or CRLF endings.

    The final newline does not yield an empty last line. When `header` is
    given, the first line must equal it. A missing file raises `missing`,
    by default a "file not found" parse error; any other unreadable,
    undecodable or non-file path is a parse error.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise missing or ParseError("file not found", path=path) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"not valid UTF-8: {err}", path=path) from None
    except (OSError, ValueError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ParseError(f"cannot read: {reason}", path=path) from None
    lines = text.replace("\r\n", "\n").split("\n")
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


def parse_key_values(lines: list[str], keys, path) -> dict[str, tuple[str, int]]:
    """Map each `key = value` line to ``{key: (value, line_no)}``.

    Blank lines and lines whose first non-blank character is ``#`` are
    skipped. Keys outside `keys`, repeated keys and lines without ``=``
    are parse errors naming the line; which keys are required is up to
    the caller.
    """
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(lines, start=1):
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


def _referenced(path) -> ValidationError:
    return ValidationError(f"referenced file does not exist: {path}")


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


def parse_recording(path, sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ) -> SensorStream:
    """Parse one placement's CSV recording into a SensorStream.

    Every row must carry exactly 7 numeric cells (time, 3 accel, 3 gyro),
    each under the `parse_number` grammar. Non-numeric cells are parse
    errors with a line number and column; numeric but non-finite cells
    (NaN, inf) are validation errors naming the channel.
    """
    lines = read_lines(path, RECORDING_HEADER, _referenced(path))
    body = lines[1:]
    if not body:
        raise ParseError("no sample rows after the header", path=path)
    values = _parse_rows(body)
    if values is None:
        _raise_first_bad_row(body, path)
    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        cell = body[i].split(",")[j]
        raise ValidationError(
            f"{path}:{i + 2}: column {RECORDING_COLUMNS[j]!r} is not finite: {cell!r}"
        )
    return SensorStream(
        accel=values[:, 1:4], gyro=values[:, 4:7], sample_rate_hz=sample_rate_hz
    )


def _parse_rows(body: list[str]) -> np.ndarray | None:
    """All sample rows as one N x 7 array, or None if any row is off-grammar."""
    # loadtxt would skip an empty row and end a row at a carriage return
    if "" in body or "\r" in "".join(body):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return values if values.shape[1] == len(RECORDING_COLUMNS) else None


def _raise_first_bad_row(body: list[str], path) -> NoReturn:
    """Raise the error for the first ragged row, else the first bad cell."""
    rows = list(split_rows(body, len(RECORDING_COLUMNS), path))
    for line_no, cells in rows:
        for column, cell in zip(RECORDING_COLUMNS, cells):
            parse_cell(float, cell, column, path, line_no)
    raise ParseError("non-numeric cell", path=path)


def write_recording(stream: SensorStream) -> bytes:
    """Render a stream as the documented CSV, 9 significant digits."""
    rows = np.column_stack((stream.times_s(), stream.accel, stream.gyro)).tolist()
    lines = [RECORDING_HEADER]
    lines += [_ROW_FORMAT % tuple(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_labels(path) -> dict[TaskKind, SegmentLabel]:
    """Parse the per-task boundary file into a task-keyed label map."""
    lines = read_lines(path, LABELS_HEADER, _referenced(path))
    columns = LABELS_HEADER.split(",")
    labels: dict[TaskKind, SegmentLabel] = {}
    for line_no, cells in split_rows(lines[1:], len(columns), path):
        task = parse_cell(TaskKind, cells[0], columns[0], path, line_no)
        bounds = [
            parse_cell(int, cell, column, path, line_no)
            for cell, column in zip(cells[1:], columns[1:])
        ]
        if task in labels:
            raise ValidationError(f"{path}:{line_no}: duplicate label for task {task.value}")
        try:
            labels[task] = SegmentLabel(task, *bounds)
        except BoundaryError as err:
            raise BoundaryError(f"{path}:{line_no}: {err}") from None
    return labels


def write_labels(labels: dict[TaskKind, SegmentLabel]) -> bytes:
    """Render labels in task order; an empty map yields just the header."""
    lines = [LABELS_HEADER]
    for task in TaskKind:
        if task not in labels:
            continue
        lb = labels[task]
        lines.append(
            f"{task.value},{lb.s1},{lb.e1},{lb.s2},{lb.e2},{lb.s3},{lb.e3}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass(frozen=True)
class SessionManifest:
    """Pointers and metadata for one session's files.

    Recording and label paths are stored as written in the manifest,
    relative to the manifest's own directory.
    """

    subject_id: str
    group: Group
    side: str
    recordings: dict[Placement, str]
    labels_path: str
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        object.__setattr__(self, "recordings", dict(self.recordings))
        if not self.subject_id:
            raise ValidationError("subject_id must be non-empty")
        if not self.side:
            raise ValidationError("side must be non-empty")
        if set(self.recordings) != set(Placement):
            raise ValidationError("manifest must reference one recording per placement")
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValidationError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}"
            )


_MANIFEST_KEYS = ("subject_id", "group", "side", "sample_rate_hz", "wrist", "arm", "labels")


def parse_session_manifest(path) -> SessionManifest:
    """Parse the key = value session manifest."""
    pairs = parse_key_values(read_lines(path, missing=_referenced(path)), _MANIFEST_KEYS, path)
    missing = [k for k in _MANIFEST_KEYS if k not in pairs]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}", path=path)
    values = {key: value for key, (value, _) in pairs.items()}
    group_s, group_line = pairs["group"]
    rate_s, rate_line = pairs["sample_rate_hz"]
    return SessionManifest(
        subject_id=values["subject_id"],
        group=parse_cell(Group, group_s, "group", path, group_line),
        side=values["side"],
        recordings={Placement.WRIST: values["wrist"], Placement.ARM: values["arm"]},
        labels_path=values["labels"],
        sample_rate_hz=parse_cell(float, rate_s, "sample_rate_hz", path, rate_line),
    )


def write_session_manifest(manifest: SessionManifest) -> bytes:
    lines = [
        f"subject_id = {manifest.subject_id}",
        f"group = {manifest.group.value}",
        f"side = {manifest.side}",
        f"sample_rate_hz = {_FLOAT_FORMAT % manifest.sample_rate_hz}",
        f"wrist = {manifest.recordings[Placement.WRIST]}",
        f"arm = {manifest.recordings[Placement.ARM]}",
        f"labels = {manifest.labels_path}",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_session(manifest_path) -> Session:
    """Load and cross-validate one session from its manifest."""
    manifest_path = Path(manifest_path)
    manifest = parse_session_manifest(manifest_path)
    base = manifest_path.parent
    streams = {
        placement: parse_recording(base / rel, manifest.sample_rate_hz)
        for placement, rel in manifest.recordings.items()
    }
    labels = parse_labels(base / manifest.labels_path)
    return assemble_session(
        manifest.subject_id, manifest.group, manifest.side, streams, labels.values()
    )


def iter_cohort(cohort_dir) -> Iterator[Session]:
    """Yield the sessions listed in the directory's cohort manifest, one at a time.

    Order follows the manifest, and each session is read only when the
    previous one has been consumed, so a caller that keeps no session
    holds one at a time. The manifest itself is read and checked at the
    first ``next``. A failing session raises `CohortError` with its entry
    (the manifest line) and the underlying cause chained, after the
    sessions before it have been yielded.
    """
    cohort_dir = Path(cohort_dir)
    manifest = cohort_dir / COHORT_MANIFEST_NAME
    lines = read_lines(manifest, missing=ParseError("cohort manifest not found", path=manifest))
    entries = [line.strip() for line in lines if line.strip()]
    if not entries:
        raise CohortError(f"{manifest}: cohort manifest lists no sessions")
    for entry in entries:
        try:
            session = load_session(cohort_dir / entry)
        except (ParseError, ValidationError) as err:
            raise CohortError(f"session {entry}: {err}") from err
        yield session


def load_cohort(cohort_dir) -> list[Session]:
    """Load every session listed in the directory's cohort manifest at once.

    The whole cohort is in memory; `iter_cohort` is the walker, and the
    first failing session aborts the load with its `CohortError`.
    """
    return list(iter_cohort(cohort_dir))
