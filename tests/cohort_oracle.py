"""The oracle cohort writer and walker: one process each, with no helper.

`write_in_process` is the oracle for the tests of `simulate` and
`generate_cohort`, and `in_process_sessions` for those of every cohort
walk (`walk_cohort`, `iter_cohort`, `load_cohort` and `extract`).
"""

from pathlib import Path

from shoulderkin import synth
from shoulderkin.errors import CohortError, ParseError, ValidationError
from shoulderkin.ingest import COHORT_MANIFEST_NAME, load_session
from shoulderkin.model import Group


def write_in_process(profile, out_dir):
    """Every session written by this process, in manifest order, then the
    cohort manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [
        synth._write_session(profile, group, index, out_dir)
        for group in (Group.PATIENT, Group.HEALTHY)
        for index in range(profile.n_per_group)
    ]
    (out_dir / COHORT_MANIFEST_NAME).write_text("\n".join(names) + "\n")


def manifest_entries(cohort):
    return (cohort / COHORT_MANIFEST_NAME).read_text().split()


def in_process_sessions(cohort):
    """The oracle walker: `load_session` on each entry in manifest order,
    with `walk_cohort`'s error wrapping and repeated-subject check, and no
    helper process."""
    cohort = Path(cohort)
    entry_of = {}
    for entry in manifest_entries(cohort):
        try:
            session = load_session(cohort / entry)
        except (ParseError, ValidationError) as err:
            raise CohortError(f"session {entry}: {err}") from err
        subject = session.subject_id
        if subject in entry_of:
            first = entry_of[subject]
            raise CohortError(f"session {entry}: subject {subject!r} is already in {first}")
        entry_of[subject] = entry
        yield session
