"""On-disk formats: recordings, labels, session and cohort manifests.

Parsing is strict: anything off-grammar is rejected with a path and line
number rather than coerced. Writers emit LF line endings; parsers accept
CRLF as well. The recording time column is informative only; sample
positions are defined by row index and the manifest's sample rate.

Every reader here goes through the text primitives of `formats`
(`read_lines`, `parse_key_values`, `split_rows`, `parse_cell`); import
each name from the module that defines it. `walk_cohort` is the one
cohort walker, which checks the cohort manifest and each session's
subject around `helper.in_order`; `iter_cohort`, `load_cohort` and
`features.extract_cohort` walk through it. `write_recording` prints
every value as "%.9g" does, with numpy, a block of rows at a time.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, NoReturn, TypeVar

import numpy as np

from .errors import BoundaryError, CohortError, ParseError, ValidationError
from .formats import (
    Group,
    Placement,
    TaskKind,
    check_subject_id,
    parse_cell,
    parse_key_values,
    read_lines,
    split_rows,
)
from .helper import in_order
from .model import DEFAULT_SAMPLE_RATE_HZ, SegmentLabel, SensorStream, Session, assemble_session

RECORDING_HEADER = "time_s,ax,ay,az,gx,gy,gz"
RECORDING_COLUMNS = RECORDING_HEADER.split(",")
LABELS_HEADER = "TASK,s1,e1,s2,e2,s3,e3"
COHORT_MANIFEST_NAME = "cohort.txt"

R = TypeVar("R")


def _referenced(path) -> ValidationError:
    return ValidationError(f"referenced file does not exist: {path}")


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
    return SensorStream(accel=values[:, 1:4], gyro=values[:, 4:7], sample_rate_hz=sample_rate_hz)


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


# Recording cells are printed as "%.9g" would print them: 9 significant
# digits, enough for a 1e-9 relative round-trip, in small files.
# `_format_rows` renders a block of rows at once. Each cell gets 32 bytes,
# filled as four little-endian words, and a mask picked by the cell's
# layout, sign and number of digits kept selects the bytes the text shows:
#
#   bytes  0-7   "-0.000" d0 "."  sign, "0." and the zeros of 1e-4 <= |x| < 0.1
#   bytes  8-23  d1 "." ... d8 "." the other digits, each followed by a point
#   bytes 24-31  "e" sign x x x   exponent, then the separator and two spare bytes
_BLOCK_ROWS = 2048
_CELL_BYTES = 32
_SEPARATOR_BYTE = 29
_MIN_EXPONENT, _MAX_EXPONENT = -324, 308
# 10**k is an exact double for |k| <= 22, so |x| * 10**(8 - e) is one
# correctly rounded multiply or divide for e from -14 to 30
_EXACT_POWER = 22


class _Tables(NamedTuple):
    groups: np.ndarray  # four digits as a word, each digit followed by a point
    group_kept: np.ndarray  # digits of a group up to its last nonzero one
    heads: np.ndarray  # the first word, by first digit
    exponents: np.ndarray  # the last word without its separator, by exponent
    separators: np.ndarray  # the separator after each cell of a row
    layout_codes: np.ndarray  # by exponent: 20 * `_layout`
    masks: np.ndarray  # by 20 * layout + 10 * negative + digits kept
    multipliers: np.ndarray  # by 8 - e + _EXACT_POWER: 10**(8 - e) or 1
    divisors: np.ndarray  # the same: 1 or 10**(e - 8)


def _words(texts) -> np.ndarray:
    """Each 8-byte text as one little-endian word."""
    return np.frombuffer(b"".join(texts), "<u8")


def _layout(exponent: int) -> int:
    """0-12: fixed notation, exponent -4..8; 13: ``e±XX``; 14: ``e±XXX``."""
    if -4 <= exponent <= 8:
        return exponent + 4
    return 13 if abs(exponent) < 100 else 14


def _cell_masks() -> np.ndarray:
    """Bytes of a cell that "%.9g" shows, by layout, sign and digits kept."""
    masks = np.zeros((15, 2, 10, _CELL_BYTES), bool)
    masks[:, 1, :, 0] = True  # the minus sign
    masks[..., _SEPARATOR_BYTE] = True
    for layout in range(15):
        # digits before the point; 1 in e-notation
        before = layout - 3 if layout < 13 else 1
        for kept in range(1, 10):
            row = masks[layout, :, kept]
            digits = max(kept, before)
            row[:, 6 : 6 + 2 * digits : 2] = True
            if before <= 0:
                row[:, 1 : 3 - before] = True  # "0." and the zeros after it
            elif digits > before:
                row[:, 5 + 2 * before] = True  # the point after the last digit before it
            if layout >= 13:
                row[:, 24:_SEPARATOR_BYTE] = True
                row[:, 26] = layout == 14  # the exponent's hundreds digit
    return masks.reshape(-1, _CELL_BYTES).view("<u8")


@functools.cache
def _tables() -> _Tables:
    """Built by the first recording written: a process that writes none,
    such as every CLI command but `simulate`, does not pay for them."""
    group = np.arange(10_000)
    text = np.full((10_000, 8), ord("."), np.uint8)
    text[:, ::2] = group[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    exponents = range(_MIN_EXPONENT, _MAX_EXPONENT + 1)
    separators = b"," * (len(RECORDING_COLUMNS) - 1) + b"\n"
    powers = range(-_EXACT_POWER, _EXACT_POWER + 1)
    return _Tables(
        groups=text.view("<u8").ravel(),
        group_kept=4 - sum(group % 10**j == 0 for j in range(1, 5)),
        heads=_words(b"-0.000%d." % d for d in range(10)),
        exponents=_words(b"e%c%03d\0\0\0" % (b"-+"[e >= 0], abs(e)) for e in exponents),
        separators=_words(b"\0\0\0\0\0%c\0\0" % c for c in separators),
        layout_codes=np.array([20 * _layout(e) for e in exponents]),
        masks=_cell_masks(),
        multipliers=np.array([float(10 ** max(k, 0)) for k in powers]),
        divisors=np.array([float(10 ** max(-k, 0)) for k in powers]),
    )


def _format_rows(rows: np.ndarray) -> bytes:
    """Rows of finite doubles as CSV lines, every cell as "%.9g" prints it."""
    t = _tables()
    values = rows.ravel()
    negative = np.signbit(values)
    zero = values == 0
    magnitudes = np.where(zero, 1.0, np.abs(values))
    # "%.8e" splits |x| into a 9-digit mantissa and an exponent e, and
    # |x| * 10**(8 - e) rounds to the mantissa. log10 estimates e, kept
    # where 10**(8 - e) is exact.
    exponents = np.floor(np.log10(magnitudes)).clip(8 - _EXACT_POWER, 8 + _EXACT_POWER)
    exponents = exponents.astype(np.int64)
    power = 8 + _EXACT_POWER - exponents
    scaled = magnitudes * t.multipliers[power] / t.divisors[power]
    # Rounding is monotone and every half-integer below 1e9 is a double, so
    # the scaled value lies on the same side of each tie as the exact one,
    # or on the tie itself: it rounds as "%.8e" does unless it is a tie.
    # It leaves [1e8, 1e9] where log10 was one off, next to a power of
    # ten, or where 10**(8 - e) is not exact (|x| < 1e-14 or >= 1e31).
    # Ties and those values ask "%.8e".
    exact = (scaled - np.floor(scaled) != 0.5) & (scaled >= 1e8) & (scaled <= 1e9)
    mantissas = np.rint(np.where(exact & ~zero, scaled, 0)).astype(np.int64)
    carry = mantissas == 1_000_000_000
    mantissas[carry] = 100_000_000
    exponents += carry
    inexact = np.flatnonzero(~exact)
    texts = ["%.8e" % x for x in magnitudes[inexact].tolist()]
    mantissas[inexact] = [int(text[0] + text[2:10]) for text in texts]
    exponents[inexact] = [int(text[11:]) for text in texts]

    high, rest = np.divmod(mantissas, 100_000_000)
    middle, low = np.divmod(rest, 10_000)
    kept = np.where(low > 0, 5 + t.group_kept[low], 1 + t.group_kept[middle])
    exponent_index = exponents - _MIN_EXPONENT
    cells = np.empty((values.size, 4), "<u8")
    cells[:, 0] = t.heads[high]
    cells[:, 1] = t.groups[middle]
    cells[:, 2] = t.groups[low]
    cells[:, 3] = (t.exponents[exponent_index].reshape(rows.shape) + t.separators).ravel()
    shown = t.masks[t.layout_codes[exponent_index] + 10 * negative + kept]
    return cells.view(np.uint8).ravel().take(np.flatnonzero(shown.view(bool))).tobytes()


def write_recording(stream: SensorStream) -> bytes:
    """Render a stream as the documented CSV, each value as "%.9g" prints it."""
    values = np.column_stack((stream.times_s(), stream.accel, stream.gyro))
    blocks = [_format_rows(values[i : i + _BLOCK_ROWS]) for i in range(0, len(values), _BLOCK_ROWS)]
    return b"".join([RECORDING_HEADER.encode() + b"\n", *blocks])


def parse_labels(path) -> dict[TaskKind, SegmentLabel]:
    """Parse the per-task boundary file into a task-keyed label map; a row
    must repeat each subtask's start (s2, s3) as the previous end (e1, e2)."""
    lines = read_lines(path, LABELS_HEADER, _referenced(path))
    columns = LABELS_HEADER.split(",")
    labels: dict[TaskKind, SegmentLabel] = {}
    for line_no, cells in split_rows(lines[1:], len(columns), path):
        task = parse_cell(TaskKind, cells[0], columns[0], path, line_no)
        bounds = tuple(
            parse_cell(int, cell, column, path, line_no)
            for cell, column in zip(cells[1:], columns[1:])
        )
        if task in labels:
            raise ValidationError(f"{path}:{line_no}: duplicate label for task {task.value}")
        s1, e1, s2, e2, s3, e3 = bounds
        try:
            if (s2, s3) != (e1, e2):
                raise BoundaryError(f"subtasks must be contiguous (e1=s2, e2=s3), got {bounds}")
            labels[task] = SegmentLabel(s1, e1, e2, e3)
        except ValidationError as err:
            raise type(err)(f"{path}:{line_no}: {task.value}: {err}") from None
    return labels


def write_labels(labels: dict[TaskKind, SegmentLabel]) -> bytes:
    """Render labels in task order; an empty map yields just the header."""
    lines = [LABELS_HEADER]
    for task in TaskKind:
        if task in labels:
            lb = labels[task]
            lines.append(f"{task.value},{lb.s1},{lb.e1},{lb.e1},{lb.e2},{lb.e2},{lb.e3}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass(frozen=True)
class SessionManifest:
    """Pointers and metadata for one session's files.

    Recording and label paths are stored as written in the manifest,
    relative to the manifest's own directory. No text value holds a line
    break, starts or ends with whitespace, or fails to encode as UTF-8, so
    `write_session_manifest` output parses back to an equal manifest.
    """

    subject_id: str
    group: Group
    side: str
    recordings: dict[Placement, str]
    labels_path: str
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        object.__setattr__(self, "recordings", dict(self.recordings))
        check_subject_id(self.subject_id)
        if not self.side:
            raise ValidationError("side must be non-empty")
        if set(self.recordings) != set(Placement):
            raise ValidationError("manifest must reference one recording per placement")
        # each value is one `key = value` line, read back stripped
        texts = {"subject_id": self.subject_id, "side": self.side, "labels_path": self.labels_path}
        for placement, path in self.recordings.items():
            texts[f"{placement.value} recording path"] = path
        for key, text in texts.items():
            if "\r" in text or "\n" in text:
                raise ValidationError(f"{key} must not contain a line break, got {text!r}")
            if text != text.strip():
                raise ValidationError(f"{key} must not start or end with whitespace, got {text!r}")
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValidationError(f"{key} is not encodable as UTF-8, got {text!r}") from None
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
        # 17 significant digits read back as the same double; 128.0 is "128"
        f"sample_rate_hz = {manifest.sample_rate_hz:.17g}",
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
    return assemble_session(manifest.subject_id, manifest.group, manifest.side, streams, labels)


def walk_cohort(cohort_dir, work: Callable[[Session], R]) -> Iterator[R]:
    """Yield ``work(session)`` for each session the directory's cohort
    manifest lists, in manifest order.

    The manifest itself is read and checked at the first ``next``. A
    session that cannot be loaded raises `CohortError` with its entry (the
    manifest line) and the underlying cause chained, and so does a session
    whose subject an earlier entry already had: checked after the load,
    before `work`, and again here as each result is taken.
    `helper.in_order` decides which process loads and works each entry;
    close the generator, or exhaust it, to end the helper.
    """
    cohort_dir = Path(cohort_dir)
    manifest = cohort_dir / COHORT_MANIFEST_NAME
    lines = read_lines(manifest, missing=ParseError("cohort manifest not found", path=manifest))
    entries = [line.strip() for line in lines if line.strip()]
    if not entries:
        raise CohortError(f"{manifest}: cohort manifest lists no sessions")
    first_of: dict[str, int] = {}

    def check(position: int, subject: str) -> None:
        # by position: called twice for a session this process loads, and
        # one entry may be listed twice
        first = first_of.setdefault(subject, position)
        if first != position:
            message = f"subject {subject!r} is already in {entries[first]}"
            raise CohortError(f"session {entries[position]}: {message}")

    def load(position: int) -> tuple[str, R]:
        entry = entries[position]
        try:
            session = load_session(cohort_dir / entry)
        except (ParseError, ValidationError) as err:
            raise CohortError(f"session {entry}: {err}") from err
        check(position, session.subject_id)
        return session.subject_id, work(session)

    results = in_order(range(len(entries)), load)
    with contextlib.closing(results):
        for position, (subject, result) in enumerate(results):
            check(position, subject)
            yield result


def iter_cohort(cohort_dir) -> Iterator[Session]:
    """Yield the sessions listed in the directory's cohort manifest, one at
    a time (`walk_cohort`, with its checks and errors, through `helper.in_order`).

    A caller that keeps no session holds one at a time. A failing session
    raises after the sessions before it have been yielded. Close the
    generator, or exhaust it, to end the helper.
    """
    return walk_cohort(cohort_dir, lambda session: session)


def load_cohort(cohort_dir) -> list[Session]:
    """Load every session listed in the directory's cohort manifest at once.

    The whole cohort is in memory; `iter_cohort` (through `helper.in_order`)
    is the walker, and the first failing session aborts the load with its `CohortError`.
    """
    return list(iter_cohort(cohort_dir))
