"""The whole pipeline as library calls: simulate, extract, compare, render.

Generates a small two-group cohort into a temporary directory, loads it
back through the CSV layer (the same strict parser the CLI uses), runs
every feature over every (task, segment, placement) cell, and prints the
comparison table for one task. With only four subjects per group the
p-values are rougher than the default cohort's, but the patient rows
already separate.

Run:  python3 demos/03_cohort_pipeline.py
"""

import tempfile
from dataclasses import replace

from shoulderkin import (
    compare_cohort,
    default_profile,
    extract_cohort,
    generate_cohort,
    load_cohort,
)
from shoulderkin.formats import TaskKind
from shoulderkin.report import render_task_table


def main():
    profile = replace(default_profile(), n_per_group=4, seed=5)
    with tempfile.TemporaryDirectory() as work:
        paths = generate_cohort(profile, work)
        print(f"simulated {len(paths)} sessions into {work}")

        sessions = load_cohort(work)
        rows, failures = extract_cohort(sessions)
        print(f"extracted {len(rows)} feature rows ({len(failures)} failed cells)")

        table = compare_cohort(rows)
        print(f"tested {len(table.cells)} cells, {table.untestable_count()} untestable")
        print()
        print(render_task_table(table, TaskKind.WH))


if __name__ == "__main__":
    main()
