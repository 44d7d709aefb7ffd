"""Command-line pipeline: simulate -> extract -> compare -> report.

Each stage reads and writes only the documented file formats, so every
intermediate is inspectable and diffable. Exit codes: 0 on success, 3 for
input format errors, 4 for validation errors, 5 when results contain
degenerate (failed or untestable) cells, 1 for anything unexpected.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import ingest, report, synth
from .errors import (
    CohortError,
    DegenerateSignalError,
    DegenerateStatisticsError,
    FeatureError,
    ParseError,
    ShoulderKinError,
    TooShortError,
    ValidationError,
)
from .features import FeatureParams, extract_cohort, read_matrix, write_matrix
from .model import TaskKind
from .stats import SignificanceRule, compare_cohort

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FORMAT = 3
EXIT_INVALID = 4
EXIT_DEGENERATE = 5

DUMP_FILENAME = "comparison.csv"


def _load_feature_params(path) -> FeatureParams:
    """Read key = value overrides on top of the defaults."""
    casts = {f.name: type(f.default) for f in fields(FeatureParams)}
    pairs = ingest.parse_key_values(ingest.read_lines(path), casts, path)
    overrides = {
        key: ingest.parse_cell(casts[key], value, key, path, line_no)
        for key, (value, line_no) in pairs.items()
    }
    return replace(FeatureParams(), **overrides)


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValidationError(f"--seed must fit in u64, got {seed}")
    return seed


def cmd_simulate(args) -> int:
    if args.params is not None:
        profile = synth.parse_profile(args.params)
    else:
        profile = synth.default_profile()
    if args.seed is not None:
        profile = replace(profile, seed=_check_seed(args.seed))
    synth.generate_cohort(profile, args.out)
    print(f"wrote {2 * profile.n_per_group} sessions to {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    params = _load_feature_params(args.params) if args.params is not None else FeatureParams()
    rows, failures = extract_cohort(ingest.iter_cohort(args.cohort), params)
    Path(args.out).write_bytes(write_matrix(rows))
    print(f"wrote {len(rows)} feature rows to {args.out}")
    if failures:
        for failure in failures:
            print(f"failed cell: {failure}", file=sys.stderr)
        print(f"{len(failures)} cells failed", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = read_matrix(args.matrix)
    table = compare_cohort(rows, SignificanceRule(args.rule))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format in ("dump", "both"):
        (out_dir / DUMP_FILENAME).write_bytes(report.write_dump(table))
    if args.format in ("table", "both"):
        for task in TaskKind:
            text = report.render_task_table(table, task)
            (out_dir / f"{task.value.lower()}.txt").write_text(text, encoding="utf-8")
    print(f"wrote comparison for {table.n1} patient vs {table.n2} healthy subjects to {out_dir}")
    untestable = table.untestable_count()
    if untestable:
        print(f"{untestable} cells were untestable", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_report(args) -> int:
    table = report.read_dump(args.dump)
    text = report.render_report(table)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoulderkin",
        description="Shoulder-task IMU feature extraction and group comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic cohort directory")
    p_sim.add_argument("--out", required=True, help="cohort directory to create")
    p_sim.add_argument("--params", default=None, help="cohort profile file (INI)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the profile seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_ext = sub.add_parser("extract", help="compute the feature matrix for a cohort")
    p_ext.add_argument("--cohort", required=True, help="cohort directory (with cohort.txt)")
    p_ext.add_argument("--out", required=True, help="feature matrix CSV to write")
    p_ext.add_argument("--params", default=None, help="feature parameter overrides (key = value)")
    p_ext.set_defaults(func=cmd_extract)

    p_cmp = sub.add_parser("compare", help="two-group statistics over a feature matrix")
    p_cmp.add_argument("matrix", help="feature matrix CSV")
    p_cmp.add_argument("--out", required=True, help="directory for tables and dump")
    p_cmp.add_argument(
        "--rule",
        choices=[rule.value for rule in SignificanceRule],
        default=SignificanceRule.STRICT.value,
        help="effect-size boundary handling for the star rule",
    )
    p_cmp.add_argument(
        "--format",
        choices=["table", "dump", "both"],
        default="both",
        help="which outputs to write",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="render a comparison dump as text tables")
    p_rep.add_argument("dump", help="comparison dump CSV")
    p_rep.add_argument("--out", default=None, help="report file (stdout when omitted)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except CohortError as err:
        print(f"error: {err}", file=sys.stderr)
        cause = err.__cause__
        return EXIT_FORMAT if isinstance(cause, ParseError) else EXIT_INVALID
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except (DegenerateSignalError, DegenerateStatisticsError, TooShortError, FeatureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ShoulderKinError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
