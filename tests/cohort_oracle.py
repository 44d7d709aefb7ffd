"""The oracle cohort writer for the tests of `simulate` and `generate_cohort`."""

from pathlib import Path

from shoulderkin import synth
from shoulderkin.ingest import COHORT_MANIFEST_NAME
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
