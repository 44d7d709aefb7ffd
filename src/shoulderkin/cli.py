"""Command-line pipeline: simulate -> extract -> compare -> report.

Each stage reads and writes only the documented file formats, so every
intermediate is inspectable and diffable. Exit codes: 0 on success, 2 for
usage errors, 3 for input format errors, 4 for validation errors, 5 when
results hold degenerate (failed or untestable) cells, 1 otherwise.

Each command imports the stages it runs when it runs, and the parser
imports none, so `compare` and `report`, which read and write only text,
load no numpy, and `simulate` and `extract` load no statistics.

No stage calls a BLAS routine, so a command runs with
``OPENBLAS_NUM_THREADS=1`` unless the caller has set that variable: numpy
then loads OpenBLAS without the pool of threads it would start, and spin,
on every other CPU. `main` puts `os.environ` back as it found it.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import CohortError, ParseError, ShoulderKinError, ValidationError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FORMAT = 3
EXIT_INVALID = 4
EXIT_DEGENERATE = 5

DUMP_FILENAME = "comparison.csv"


def _load_feature_params(path):
    """Read key = value overrides on top of the default `FeatureParams`."""
    from .features import FeatureParams
    from .formats import parse_key_values, read_lines

    kinds = {f.name: type(f.default) for f in fields(FeatureParams)}
    overrides = parse_key_values(read_lines(path), kinds, path, required=False)
    return replace(FeatureParams(), **overrides)


def cmd_simulate(args) -> int:
    from . import formats, synth

    if args.params is not None:
        profile = synth.parse_profile(args.params)
    else:
        profile = synth.default_profile()
    if args.seed is not None:
        profile = replace(profile, seed=formats.parse_cell(int, args.seed, "--seed", None, None))
    synth.generate_cohort(profile, args.out)
    print(f"wrote {2 * profile.n_per_group} sessions to {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    from .features import FeatureParams, extract_cohort
    from .formats import write_atomically, write_matrix

    params = _load_feature_params(args.params) if args.params is not None else FeatureParams()
    rows, failures = extract_cohort(args.cohort, params)
    write_atomically(args.out, write_matrix(rows))
    print(f"wrote {len(rows)} feature rows to {args.out}")
    if failures:
        for failure in failures:
            print(f"failed cell: {failure}", file=sys.stderr)
        print(f"{len(failures)} cells failed", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_compare(args) -> int:
    from .formats import read_matrix, write_atomically
    from .report import write_dump
    from .stats import compare_cohort

    rows = read_matrix(args.matrix)
    table = compare_cohort(rows)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomically(out_dir / DUMP_FILENAME, write_dump(table))
    print(f"wrote comparison for {table.n1} patient vs {table.n2} healthy subjects to {out_dir}")
    untestable = table.untestable_count()
    if untestable:
        print(f"{untestable} cells were untestable", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_report(args) -> int:
    from .formats import write_atomically
    from .report import read_dump, render_report

    table = read_dump(args.dump)
    text = render_report(table)
    if args.out is not None:
        write_atomically(args.out, text.encode("utf-8"))
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
    p_sim.add_argument("--params", default=None, help="cohort profile file")
    p_sim.add_argument("--seed", default=None, help="override the profile seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_ext = sub.add_parser("extract", help="compute the feature matrix for a cohort")
    p_ext.add_argument("--cohort", required=True, help="cohort directory (with cohort.txt)")
    p_ext.add_argument("--out", required=True, help="feature matrix CSV to write")
    p_ext.add_argument("--params", default=None, help="feature parameter overrides (key = value)")
    p_ext.set_defaults(func=cmd_extract)

    p_cmp = sub.add_parser("compare", help="two-group statistics over a feature matrix")
    p_cmp.add_argument("matrix", help="feature matrix CSV")
    p_cmp.add_argument("--out", required=True, help="directory for the comparison dump")
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="render a comparison dump as text tables")
    p_rep.add_argument("dump", help="comparison dump CSV")
    p_rep.add_argument("--out", default=None, help="report file (stdout when omitted)")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    one_blas_thread = "OPENBLAS_NUM_THREADS" not in os.environ
    if one_blas_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return args.func(args)
    except (ShoulderKinError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, CohortError):
            return EXIT_FORMAT if isinstance(err.__cause__, ParseError) else EXIT_INVALID
        if isinstance(err, ParseError):
            return EXIT_FORMAT
        if isinstance(err, ValidationError):
            return EXIT_INVALID
        return EXIT_ERROR
    finally:
        if one_blas_thread:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
