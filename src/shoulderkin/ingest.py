"""On-disk formats: recordings, labels, session and cohort manifests.

Parsing is strict: anything off-grammar is rejected with a path and line
number rather than coerced. Writers emit LF line endings; parsers accept
CRLF as well. The recording time column is informative only; sample
positions are defined by row index and the manifest's sample rate.

Every reader here goes through the text primitives of `formats`
(`read_lines`, `parse_key_values`, `split_rows`, `parse_cell`), and the
session manifest, whose fields are its keys, is written by their twin
`format_key_values`; import each name from the module that defines it.
`walk_cohort` is the one cohort walker, which checks the cohort manifest
and each session's subject around `helper.in_order`; `iter_cohort`,
`load_cohort` and `features.extract_cohort` walk through it.
`write_recording` prints every value as "%.9g" does, with numpy, a block
of rows at a time, and `save_recording` writes its text to a file one
block at a time. `save_session` and `save_cohort` write the files that
`load_session` and `walk_cohort` read: no other module names them.
"""
from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, TypeVar

import numpy as np

from .errors import BoundaryError, CohortError, ParseError, ValidationError
from .formats import (
    Group,
    Placement,
    TaskKind,
    check_subject_id,
    check_text_value,
    format_key_values,
    parse_cell,
    parse_key_values,
    read_lines,
    split_rows,
    write_atomically,
    write_chunks,
)
from .helper import in_order
from .model import DEFAULT_SAMPLE_RATE_HZ, SegmentLabel, SensorStream, Session, assemble_session

RECORDING_HEADER = "time_s,ax,ay,az,gx,gy,gz"
RECORDING_COLUMNS = RECORDING_HEADER.split(",")
LABELS_HEADER = "TASK,s1,e1,s2,e2,s3,e3"
COHORT_MANIFEST_NAME = "cohort.txt"

T = TypeVar("T")
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
# filled as four little-endian words:
#
#   bytes  0-7   "-0.000" d0 "."  sign, "0." and the zeros of 1e-4 <= |x| < 0.1
#   bytes  8-23  d1 "." ... d8 "." the other digits, each followed by a point
#   bytes 24-31  "e" sign x x x   exponent, then the separator and two NULs
#
# A mask picked by the cell's layout, sign and number of digits kept is
# 0xFF at each byte the text shows and 0 elsewhere. No shown byte is NUL,
# so ANDing each cell with its mask and deleting every NUL with one
# `bytes.translate` leaves the text. An index of the shown bytes takes 8
# bytes per byte of text, 320 KB a block, above glibc's default mmap and
# trim thresholds: with one, `simulate` took 0.56-0.61 s of CPU and
# 17k-39k page faults on the default cohort over eight heap layouts,
# against 0.48-0.50 s and 17k-30k.
#
# Rows per `_format_rows` call. Its temporaries take about 1.3 KB a row;
# at 2048 rows they came back as fresh pages for every block and set
# `simulate`'s peak RSS, 2.4 MB above what 512-row blocks take.
_BLOCK_ROWS = 512
_CELL_BYTES = 32
_SEPARATOR_BYTE = 29
_MIN_EXPONENT, _MAX_EXPONENT = -324, 308
# 10**k is an exact double for |k| <= 22, so |x| * 10**(8 - e) is one
# correctly rounded multiply or divide for e from -14 to 30
_EXACT_POWER = 22


class _Tables(NamedTuple):
    heads: np.ndarray  # the first word, by first digit
    groups: np.ndarray  # four digits as a word, each digit followed by a point
    # digits kept, by four digits: those up to the last nonzero one, plus
    # 1 for the middle four, or 5 for the last four unless all are zero
    middle_kept: np.ndarray
    low_kept: np.ndarray
    # the next two by one index, 7 * exponent + the column's offset
    tails: np.ndarray  # the last word, with the column's separator
    layout_codes: np.ndarray  # 20 * `_layout`
    column_offsets: np.ndarray  # by column
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
    """Bytes of a cell that "%.9g" shows, by layout, sign and digits kept:
    0xFF where shown, else 0."""
    masks = np.zeros((15, 2, 10, _CELL_BYTES), np.uint8)
    masks[:, 1, :, 0] = 0xFF  # the minus sign
    masks[..., _SEPARATOR_BYTE] = 0xFF
    for layout in range(15):
        # digits before the point; 1 in e-notation
        before = layout - 3 if layout < 13 else 1
        for kept in range(1, 10):
            row = masks[layout, :, kept]
            digits = max(kept, before)
            row[:, 6 : 6 + 2 * digits : 2] = 0xFF
            if before <= 0:
                row[:, 1 : 3 - before] = 0xFF  # "0." and the zeros after it
            elif digits > before:
                row[:, 5 + 2 * before] = 0xFF  # the point after the last digit before it
            if layout >= 13:
                row[:, 24:_SEPARATOR_BYTE] = 0xFF
                row[:, 26] = 0xFF * (layout == 14)  # the exponent's hundreds digit
    return masks.reshape(-1, _CELL_BYTES).view("<u8")


@functools.cache
def _tables() -> _Tables:
    """Built by the first recording written: a process that writes none,
    such as every CLI command but `simulate`, does not pay for them."""
    # One digit at a time, and int64 layout codes: a 2-D broadcast of the
    # four powers of ten, or a uint16 sum in `_format_rows`, runs numpy
    # code that nothing else in `simulate` does, and its pages (64-128 KB)
    # add to the peak RSS.
    group = np.arange(10_000)
    text = np.full((10_000, 8), ord("."), np.uint8)
    for i, power in enumerate((1000, 100, 10, 1)):
        text[:, 2 * i] = group // power % 10 + ord("0")
    kept = 4 - sum(group % 10**j == 0 for j in range(1, 5))
    exponents = range(_MIN_EXPONENT, _MAX_EXPONENT + 1)
    columns = len(RECORDING_COLUMNS)
    tails = np.repeat(_words(b"e%c%03d\0\0\0" % (b"-+"[e >= 0], abs(e)) for e in exponents), columns)
    separators = np.frombuffer(b"," * (columns - 1) + b"\n", np.uint8)
    tails.view(np.uint8).reshape(-1, columns, 8)[:, :, _SEPARATOR_BYTE - 24] = separators
    powers = range(-_EXACT_POWER, _EXACT_POWER + 1)
    return _Tables(
        heads=_words(b"-0.000%d." % d for d in range(10)),
        groups=text.view("<u8").ravel(),
        middle_kept=(1 + kept).astype(np.uint8),
        low_kept=np.where(group > 0, 5 + kept, 0).astype(np.uint8),
        tails=tails,
        layout_codes=np.repeat([20 * _layout(e) for e in exponents], columns),
        column_offsets=np.arange(columns) - columns * _MIN_EXPONENT,
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
    exponents = exponents.astype(np.intp)
    power = 8 + _EXACT_POWER - exponents
    scaled = magnitudes * t.multipliers[power] / t.divisors[power]
    # Rounding is monotone and every half-integer below 1e9 is a double, so
    # the scaled value lies on the same side of each tie as the exact one,
    # or on the tie itself: it rounds as "%.8e" does unless it is a tie.
    # It leaves [1e8, 1e9] where log10 was one off, next to a power of
    # ten, or where 10**(8 - e) is not exact (|x| < 1e-14 or >= 1e31).
    # Ties and those values ask "%.8e".
    exact = (scaled - np.floor(scaled) != 0.5) & (scaled >= 1e8) & (scaled <= 1e9)
    mantissas = np.rint(np.where(exact & ~zero, scaled, 0))
    carry = mantissas == 1e9
    mantissas[carry] = 1e8
    exponents += carry
    inexact = np.flatnonzero(~exact)
    texts = ["%.8e" % x for x in magnitudes[inexact].tolist()]
    mantissas[inexact] = [int(text[0] + text[2:10]) for text in texts]
    exponents[inexact] = [int(text[11:]) for text in texts]

    # integers below 2**53: each quotient's floor and each remainder is exact
    high = np.floor(mantissas / 1e8)
    rest = mantissas - high * 1e8
    middle = np.floor(rest / 1e4)
    low = (rest - middle * 1e4).astype(np.intp)
    middle = middle.astype(np.intp)
    codes = (exponents.reshape(rows.shape) * len(RECORDING_COLUMNS) + t.column_offsets).ravel()
    cells = np.empty((values.size, 4), "<u8")
    cells[:, 0] = t.heads.take(high.astype(np.intp))
    cells[:, 1] = t.groups.take(middle)
    cells[:, 2] = t.groups.take(low)
    cells[:, 3] = t.tails.take(codes)
    shown = t.layout_codes.take(codes) + np.maximum(t.middle_kept.take(middle), t.low_kept.take(low))
    shown += 10 * negative
    cells &= t.masks.take(shown, axis=0)
    return cells.tobytes().translate(None, b"\0")


def write_recording(stream: SensorStream, start: int = 0, stop: int | None = None) -> bytes:
    """Render a stream as the documented CSV, each value as "%.9g" prints it.

    With `start` and `stop`, only the rows of samples `start` to `stop`,
    with the header when `start` is 0: the renders of consecutive ranges
    join to the render of the whole stream.
    """
    stop = stream.n_samples if stop is None else stop
    if not 0 <= start <= stop <= stream.n_samples:
        raise ValueError(f"rows {start} to {stop} are not within {stream.n_samples} samples")
    blocks = [RECORDING_HEADER.encode() + b"\n"] if start == 0 else []
    for i in range(start, stop, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, stop)
        rows = np.empty((j - i, len(RECORDING_COLUMNS)))
        rows[:, 0] = stream.times_s(i, j)
        rows[:, 1:4] = stream.accel[i:j]
        rows[:, 4:] = stream.gyro[i:j]
        blocks.append(_format_rows(rows))
    return b"".join(blocks)  # a lone block is returned as it is, not copied


def save_recording(stream: SensorStream, path) -> None:
    """Write `write_recording(stream)` to `path` a block of rows at a time
    (`formats.write_chunks`), so the whole text is never held."""
    n = stream.n_samples
    blocks = (write_recording(stream, i, min(i + _BLOCK_ROWS, n)) for i in range(0, n, _BLOCK_ROWS))
    write_chunks(path, blocks)


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
    """One session's manifest: its fields are the file's keys, in file order.

    `wrist`, `arm` and `labels` are the recording and label paths as
    written, relative to the manifest's own directory. No text value is
    empty, holds a line break, starts or ends with whitespace, or fails to
    encode as UTF-8, so `write_session_manifest` output parses back to an
    equal manifest.
    """

    subject_id: str
    group: Group
    side: str
    sample_rate_hz: float
    wrist: str
    arm: str
    labels: str

    def __post_init__(self):
        check_subject_id(self.subject_id)
        # each value is one `key = value` line, read back stripped
        for key in ("side", "wrist", "arm", "labels"):
            check_text_value(key, getattr(self, key))
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValidationError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}"
            )

    def recording(self, placement: Placement) -> str:
        """The recording path of `placement`: the field of its name."""
        return getattr(self, placement.value)


# every session-manifest key, with its kind, in file order
_MANIFEST_KINDS = dict(
    subject_id=str, group=Group, side=str, sample_rate_hz=float, wrist=str, arm=str, labels=str
)


def parse_session_manifest(path) -> SessionManifest:
    """Parse the key = value session manifest."""
    lines = read_lines(path, missing=_referenced(path))
    return SessionManifest(**parse_key_values(lines, _MANIFEST_KINDS, path))


def write_session_manifest(manifest: SessionManifest) -> bytes:
    return format_key_values(manifest, _MANIFEST_KINDS).encode("utf-8")


def load_session(manifest_path) -> Session:
    """Load and cross-validate one session from its manifest."""
    manifest_path = Path(manifest_path)
    manifest = parse_session_manifest(manifest_path)
    base, rate = manifest_path.parent, manifest.sample_rate_hz
    streams = {p: parse_recording(base / manifest.recording(p), rate) for p in Placement}
    labels = parse_labels(base / manifest.labels)
    return assemble_session(manifest.subject_id, manifest.group, manifest.side, streams, labels)


def save_session(session: Session, out_dir) -> str:
    """Write `session` into `out_dir` as the files `load_session` reads
    back; returns its manifest's file name. The manifest names a recording
    of each placement: a session without one is refused before any write."""
    sid = session.subject_id
    for placement in Placement:
        if placement not in session.streams:
            raise ValidationError(f"{sid}: no {placement.value} stream to write")
    out_dir = Path(out_dir)
    manifest = SessionManifest(
        sid, session.group, session.side, session.sample_rate_hz,
        wrist=f"{sid}_wrist.csv", arm=f"{sid}_arm.csv", labels=f"{sid}_labels.csv",
    )
    for placement in Placement:
        save_recording(session.streams[placement], out_dir / manifest.recording(placement))
    write_chunks(out_dir / manifest.labels, [write_labels(session.labels)])
    name = f"{sid}_session.txt"
    write_chunks(out_dir / name, [write_session_manifest(manifest)])
    return name


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


def save_cohort(out_dir, items: Iterable[T], make: Callable[[T], Session]) -> list[Path]:
    """Write the session ``make(item)`` of each of `items` into `out_dir`,
    then the cohort manifest listing them in order, for `walk_cohort`;
    returns the session manifest paths. `helper.in_order` decides which
    process makes and writes each session. An existing cohort manifest is
    removed first, and the new one is written last, whole (`write_atomically`)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / COHORT_MANIFEST_NAME
    # a manifest left by an earlier run would list a mix of its sessions and these
    manifest.unlink(missing_ok=True)
    names = list(in_order(items, lambda item: save_session(make(item), out_dir)))
    write_atomically(manifest, ("\n".join(names) + "\n").encode("utf-8"))
    return [out_dir / name for name in names]


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
