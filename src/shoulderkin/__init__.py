"""IMU-based shoulder functional task assessment.

Ingests wrist/arm inertial recordings of five shoulder tasks, slices them
into labelled subtasks, computes seven kinematic features per segment, and
compares patient against healthy groups with Welch's t-test and Cohen's d.
A deterministic minimum-jerk simulator stands in for clinical data.

The names below are the documented API; everything else is imported from
its own module (``shoulderkin.dsp``, ``shoulderkin.model``, ...).
"""

from .cli import main
from .errors import (
    BoundaryError,
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
from .ingest import load_cohort
from .report import read_dump, render_report, write_dump
from .stats import compare_cohort
from .synth import default_profile, generate_cohort, write_profile

__version__ = "0.1.0"
