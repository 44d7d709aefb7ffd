"""Fixtures that several test files build alike: feature-matrix rows over
the whole grid (`grid_rows`, with `varied_vector` for a testable 2v2
matrix), session manifests, and random rotations."""

import numpy as np

from shoulderkin.formats import FeatureRow, FeatureVector, Group, Placement, SegmentKind, TaskKind
from shoulderkin.ingest import SessionManifest


def grid_rows(n_patients, n_healthy, vector, id_digits=1):
    """Matrix rows of the patients P0, P1, ... then the healthy H0, H1, ...,
    each subject over the whole grid in grid order.

    The numbers in the ids have `id_digits` digits or more. `vector(group, i)`
    gives the row's `FeatureVector` for the group's i-th subject; it is
    called once per row, in row order, so a vector drawn from an RNG is
    drawn row by row.
    """
    return [
        FeatureRow(f"{prefix}{i:0{id_digits}d}", group, task, segment, placement, vector(group, i))
        for group, prefix, n in ((Group.PATIENT, "P", n_patients), (Group.HEALTHY, "H", n_healthy))
        for i in range(n)
        for task in TaskKind
        for segment in SegmentKind
        for placement in Placement
    ]


def varied_vector(group, i):
    """Subject i's vector in either group: a 2v2 matrix of these has every cell testable."""
    return FeatureVector(1 + i, 2 + i, -1.5 - i, -4.0 - i, 2.0 + i, 1.0 + i, 2.0 + i)


def session_manifest(sid="S01", group=Group.PATIENT, sample_rate_hz=128.0, **fields):
    """A valid manifest of subject `sid`, on the left side, naming the files
    `<sid>_wrist.csv`, `<sid>_arm.csv` and `<sid>_labels.csv`, with `fields` replaced."""
    return SessionManifest(**{
        "subject_id": sid, "group": group, "side": "left", "sample_rate_hz": sample_rate_hz,
        "wrist": f"{sid}_wrist.csv", "arm": f"{sid}_arm.csv", "labels": f"{sid}_labels.csv",
        **fields,
    })


def random_rotation(rng):
    """A uniformly random 3x3 rotation matrix (QR of a Gaussian draw)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
