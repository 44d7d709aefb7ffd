"""Value checks at the edge of each type that no pipeline run reaches."""

import dataclasses
import math

import numpy as np
import pytest

from builders import session_manifest
from shoulderkin import ValidationError, default_profile
from shoulderkin.formats import FeatureVector, Group, Placement, TaskKind
from shoulderkin.model import SegmentLabel, SensorStream, Session
from shoulderkin.stats import ComparisonCell
from shoulderkin.synth import generate_session, synth_segment


def stream(accel=None, gyro=None):
    zeros = np.zeros((4, 3))
    return SensorStream(
        accel=zeros if accel is None else accel,
        gyro=zeros if gyro is None else gyro,
        sample_rate_hz=128.0,
    )


def session_without_side():
    streams = {placement: stream() for placement in Placement}
    labels = {TaskKind.WH: SegmentLabel(0, 1, 2, 3)}
    return Session("S01", Group.PATIENT, "", streams, labels)


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: session_manifest(side=""),
            "side must be non-empty",
            id="manifest-empty-side",
        ),
        pytest.param(
            lambda: session_manifest(labels=""),
            "labels must be non-empty",
            id="manifest-empty-labels",
        ),
        pytest.param(
            lambda: session_manifest(wrist=""),
            "wrist must be non-empty",
            id="manifest-empty-wrist",
        ),
        pytest.param(
            lambda: session_manifest(subject_id="P\udc80"),
            "subject_id is not encodable as UTF-8, got 'P\\udc80'",
            id="manifest-subject-not-utf8",
        ),
        pytest.param(
            lambda: stream(accel=np.zeros((4, 2))),
            "accel must be an N x 3 array, got shape (4, 2)",
            id="stream-two-columns",
        ),
        pytest.param(
            lambda: stream(gyro=np.full((4, 3), np.nan)),
            "gyro contains non-finite values",
            id="stream-nonfinite-gyro",
        ),
        pytest.param(
            session_without_side,
            "S01: side must be non-empty",
            id="session-empty-side",
        ),
        pytest.param(
            lambda: Session("S01", Group.PATIENT, "left", {}, {}),
            "S01: session must hold at least one stream",
            id="session-no-streams",
        ),
        pytest.param(
            lambda: Session("P\udc80", Group.PATIENT, "left", {Placement.WRIST: stream()}, {}),
            "subject_id is not encodable as UTF-8, got 'P\\udc80'",
            id="session-subject-not-utf8",
        ),
        pytest.param(
            lambda: FeatureVector(
                nmcp_a=3, np_a=4, sparc=math.nan, ldlj_a=-4.0, rav=2.0, pi=1.0, duration_s=2.0
            ),
            "sparc is not finite",
            id="feature-vector-nan-sparc",
        ),
        pytest.param(
            lambda: ComparisonCell(
                t_stat=math.inf, dof=30.0, p_value=0.005, d=1.2, d_ci_low=0.5, d_ci_high=1.9
            ),
            "t_stat is not finite",
            id="comparison-cell-infinite-t",
        ),
        pytest.param(
            lambda: synth_segment(
                [(0.0, 1.0, 100.0, np.array([0.6, 0.8]))], 1.0, 128.0, 0.0, 0.0, None
            ),
            "the axis must be a 3-vector, got shape (2,)",
            id="submovement-two-axis-weights",
        ),
        pytest.param(
            lambda: dataclasses.replace(default_profile().patient, pause_probability=1.5),
            "pause_probability must be in [0,1], got 1.5",
            id="group-profile-pause-probability",
        ),
        pytest.param(
            lambda: generate_session(default_profile(n_per_group=2), Group.PATIENT, index=-1),
            "subject index must be >= 0, got -1",
            id="session-negative-index",
        ),
    ],
)
def test_check_raises_a_validation_error(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError
    assert str(info.value) == message
