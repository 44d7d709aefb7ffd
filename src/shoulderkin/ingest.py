"""On-disk formats: recordings, labels, session and cohort manifests.

Parsing is strict: anything off-grammar is rejected with a path and line
number rather than coerced. Writers emit LF line endings; parsers accept
CRLF as well. The recording time column is informative only; sample
positions are defined by row index and the manifest's sample rate.

`read_lines` is the one place the package opens and decodes an input
file, and `parse_key_values` the one `key = value` parser; every reader,
here and in the other modules, goes through them.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

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


def parse_recording(path, sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ) -> SensorStream:
    """Parse one placement's CSV recording into a SensorStream.

    Every row must carry exactly 7 numeric cells (time, 3 accel, 3 gyro),
    each a plain decimal (see `_cell_value`). Non-numeric cells are parse
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


def _cell_value(cell: str) -> float:
    """One recording cell under the grammar `np.loadtxt` applies.

    That is a C-style decimal (sign, digits, point, exponent, or
    nan/inf/infinity) in ASCII, with surrounding whitespace other than a
    carriage return. Python's `float` alone would also take digit
    separators (``1_0``) and non-ASCII digits.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text or "\r" in cell:
        raise ValueError(cell)
    return float(text)


def _raise_first_bad_row(body: list[str], path) -> NoReturn:
    """Raise the error for the first ragged row, else the first bad cell."""
    for line_no, line in enumerate(body, start=2):
        n_cells = line.count(",") + 1
        if n_cells != len(RECORDING_COLUMNS):
            raise ParseError(
                f"expected {len(RECORDING_COLUMNS)} columns, got {n_cells}", path=path, line=line_no
            )
    for line_no, line in enumerate(body, start=2):
        for column, cell in zip(RECORDING_COLUMNS, line.split(",")):
            try:
                _cell_value(cell)
            except ValueError:
                raise ParseError(
                    f"column {column!r}: not a number: {cell!r}", path=path, line=line_no
                ) from None
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
    labels: dict[TaskKind, SegmentLabel] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 7:
            raise ParseError(f"expected 7 columns, got {len(cells)}", path=path, line=line_no)
        try:
            task = TaskKind(cells[0])
        except ValueError:
            raise ParseError(f"unknown task {cells[0]!r}", path=path, line=line_no) from None
        try:
            bounds = [int(c) for c in cells[1:]]
        except ValueError:
            raise ParseError(f"non-integer boundary in {line!r}", path=path, line=line_no) from None
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
        if not self.sample_rate_hz > 0:
            raise ValidationError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")


_MANIFEST_KEYS = ("subject_id", "group", "side", "sample_rate_hz", "wrist", "arm", "labels")


def parse_session_manifest(path) -> SessionManifest:
    """Parse the key = value session manifest."""
    pairs = parse_key_values(read_lines(path, missing=_referenced(path)), _MANIFEST_KEYS, path)
    missing = [k for k in _MANIFEST_KEYS if k not in pairs]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}", path=path)
    values = {key: value for key, (value, _) in pairs.items()}
    group_s, group_line = pairs["group"]
    try:
        group = Group(group_s)
    except ValueError:
        raise ParseError(f"unknown group {group_s!r}", path=path, line=group_line) from None
    rate_s, rate_line = pairs["sample_rate_hz"]
    try:
        rate = float(np.float64(rate_s))
    except ValueError:
        raise ParseError(
            f"sample_rate_hz is not a number: {rate_s!r}", path=path, line=rate_line
        ) from None
    return SessionManifest(
        subject_id=values["subject_id"],
        group=group,
        side=values["side"],
        recordings={Placement.WRIST: values["wrist"], Placement.ARM: values["arm"]},
        labels_path=values["labels"],
        sample_rate_hz=rate,
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


def load_cohort(cohort_dir) -> list[Session]:
    """Load every session listed in the directory's cohort manifest.

    Order follows the manifest. The first failing session aborts the load
    with its subject id (or manifest path when the failure precedes the
    id) and the underlying cause chained.
    """
    cohort_dir = Path(cohort_dir)
    manifest = cohort_dir / COHORT_MANIFEST_NAME
    lines = read_lines(manifest, missing=ParseError("cohort manifest not found", path=manifest))
    entries = [line.strip() for line in lines if line.strip()]
    if not entries:
        raise CohortError(f"{manifest}: cohort manifest lists no sessions")
    sessions: list[Session] = []
    for entry in entries:
        session_path = cohort_dir / entry
        try:
            sessions.append(load_session(session_path))
        except (ParseError, ValidationError) as err:
            raise CohortError(f"session {entry}: {err}") from err
    return sessions
