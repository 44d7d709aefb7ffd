"""Rendering and serialization of comparison results.

Two outputs share one grid: per-task text tables, with p-values to three
decimals, a "<0.001" floor, a star suffix on significant cells and the
star-rule footnote; and a machine-readable CSV dump carrying the full
statistics, which round-trips losslessly back into a ComparisonTable.
Both take a cell's star from `significance_flag(p, d)`; the dump's
`significant` column repeats it, and `read_dump` checks it.
"""
from __future__ import annotations

from .errors import ParseError, ValidationError
from .formats import (
    FEATURE_GRID,
    SegmentKind,
    TaskKind,
    format_float,
    parse_cell,
    read_lines,
    split_rows,
)
from .stats import (
    ComparisonCell,
    ComparisonTable,
    cell_keys,
    check_group_size,
    significance_flag,
)

TASK_TITLES = {
    TaskKind.WH: "Washing hair",
    TaskKind.WUB: "Washing upper back",
    TaskKind.WLB: "Washing lower back",
    TaskKind.POH: "Placing an object on a high shelf",
    TaskKind.ROP: "Removing an object from back pocket",
}

_SEGMENT_HEADERS = (
    (SegmentKind.COMPLETE, "Complete Task"),
    (SegmentKind.SUB1, "Subtask 1"),
    (SegmentKind.SUB2, "Subtask 2"),
    (SegmentKind.SUB3, "Subtask 3"),
)

_PARAM_W = 11
_PLACEMENT_W = 11
_CELL_W = 16

UNTESTABLE_MARK = "n/a"
FOOTNOTE = "*: p < 0.05 and Cohen's d > 0.8"

# a dump's first line: the one star rule, named as in every dump written so far
DUMP_RULE_LINE = "rule,strict"
DUMP_HEADER = "task,feature,placement,segment,status,t,dof,p,d,d_ci_low,d_ci_high,significant"


def format_p(p: float) -> str:
    """Three-decimal p-value with the small-value floor."""
    if p < 0.0005:
        return "<0.001"
    return f"{p:.3f}"


def _cell_text(cell: ComparisonCell | None) -> str:
    if cell is None:
        return UNTESTABLE_MARK
    return format_p(cell.p_value) + ("*" if significance_flag(cell.p_value, cell.d) else "")


def render_task_table(table: ComparisonTable, task: TaskKind) -> str:
    """One task's table in the two-rows-per-parameter layout."""
    lines = [f"{task.value}: {TASK_TITLES[task]}"]
    header = "Parameter".ljust(_PARAM_W) + "Placement".ljust(_PLACEMENT_W)
    header += "".join(title.ljust(_CELL_W) for _, title in _SEGMENT_HEADERS)
    lines.append(header.rstrip())
    for feature, label, placements in FEATURE_GRID:
        for row_idx, placement in enumerate(placements):
            name = label if row_idx == 0 else ""
            placement_label = "N/A" if placement is None else placement.value.capitalize()
            row = name.ljust(_PARAM_W) + placement_label.ljust(_PLACEMENT_W)
            for kind, _ in _SEGMENT_HEADERS:
                cell = table.cell(task, feature, placement, kind)
                row += _cell_text(cell).ljust(_CELL_W)
            lines.append(row.rstrip())
    lines.append("")
    lines.append(FOOTNOTE)
    return "\n".join(lines) + "\n"


def render_report(table: ComparisonTable) -> str:
    """All five task tables, separated by blank lines."""
    return "\n".join(render_task_table(table, task) for task in TaskKind)


def _dump_keys() -> dict:
    """Every cell key by its dump row's first four cells, in canonical order."""
    return {(k[0].value, k[1], getattr(k[2], "value", "NA"), k[3].value): k for k in cell_keys()}


def write_dump(table: ComparisonTable) -> bytes:
    """Full-statistics CSV: three preamble lines, then one row per cell."""
    lines = [DUMP_RULE_LINE, f"n1,{table.n1}", f"n2,{table.n2}", DUMP_HEADER]
    for key_cells, key in _dump_keys().items():
        cell = table.cells[key]
        if cell is None:
            stats = ["untestable", "", "", "", "", "", "", ""]
        else:
            numbers = (cell.t_stat, cell.dof, cell.p_value, cell.d, cell.d_ci_low, cell.d_ci_high)
            star = significance_flag(cell.p_value, cell.d)
            stats = ["ok", *map(format_float, numbers), "true" if star else "false"]
        lines.append(",".join([*key_cells, *stats]))
    return ("\n".join(lines) + "\n").encode("utf-8")


_DUMP_COLUMNS = DUMP_HEADER.split(",")


def read_dump(path) -> ComparisonTable:
    """Parse a dump written by `write_dump`, each star checked against p and d."""
    lines = read_lines(path)
    if len(lines) < 4:
        raise ParseError("truncated dump: missing preamble or header", path=path)
    if lines[0] != DUMP_RULE_LINE:
        raise ParseError(f"expected {DUMP_RULE_LINE!r}, got {lines[0]!r}", path=path, line=1)
    sizes = []
    for line_no, (line, key) in enumerate(zip(lines[1:3], ("n1", "n2")), start=2):
        cells = line.split(",")
        if len(cells) != 2 or cells[0] != key:
            raise ParseError(f"expected '{key},<value>', got {line!r}", path=path, line=line_no)
        sizes.append(parse_cell(int, cells[1], key, path, line_no))
        try:
            check_group_size(key, sizes[-1])
        except ValidationError as err:
            raise ValidationError(f"{path}:{line_no}: {err}") from None
    n1, n2 = sizes
    if lines[3] != DUMP_HEADER:
        raise ParseError(
            f"bad header: expected {DUMP_HEADER!r}, got {lines[3]!r}", path=path, line=4
        )
    cells, keys = {}, _dump_keys()
    for line_no, parts in split_rows(lines[4:], len(_DUMP_COLUMNS), path, first_line=5):
        key = keys.get(tuple(parts[:4]))
        if key is None:
            raise ParseError(f"not a grid cell: {','.join(parts[:4])!r}", path=path, line=line_no)
        if key in cells:
            raise ParseError(f"duplicate cell {'/'.join(parts[:4])}", path=path, line=line_no)
        status, significant = parts[4], parts[11]
        if status == "untestable":
            if any(parts[5:]):
                raise ParseError("untestable cell carries statistics", path=path, line=line_no)
            cells[key] = None
            continue
        if status != "ok":
            raise ParseError(f"unknown status {status!r}", path=path, line=line_no)
        if significant not in ("true", "false"):
            raise ParseError(f"significant must be true/false, got {significant!r}", path=path, line=line_no)
        numbers = [
            parse_cell(float, cell, column, path, line_no)
            for cell, column in zip(parts[5:11], _DUMP_COLUMNS[5:11])
        ]
        try:
            cell = cells[key] = ComparisonCell(*numbers)
            star = "true" if significance_flag(cell.p_value, cell.d) else "false"
            if significant != star:
                given = f"p = {parts[7]} and d = {parts[8]} under the strict rule give {star}"
                raise ValidationError(f"significant is {significant}, but {given}")
        except ValidationError as err:
            raise ValidationError(f"{path}:{line_no}: {err}") from None
    try:
        return ComparisonTable(n1=n1, n2=n2, cells=cells)
    except ValidationError as err:
        raise ParseError(str(err), path=path) from None
