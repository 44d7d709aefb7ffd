"""IMU-based shoulder functional task assessment.

Ingests wrist/arm inertial recordings of five shoulder tasks, slices them
into labelled subtasks, computes seven kinematic features per segment, and
compares patient against healthy groups with Welch's t-test and Cohen's d.
A deterministic minimum-jerk simulator stands in for clinical data.
"""

from .cli import main
from .dsp import (
    ScalarSeries,
    Spectrum,
    derivative,
    euclidean_norm,
    fft_length,
    magnitude_spectrum,
)
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
from .features import (
    MATRIX_COLUMNS,
    MATRIX_HEADER,
    FeatureParams,
    FeatureRow,
    angular_velocity_range,
    extract_all,
    extract_cohort,
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    power_index,
    read_matrix,
    segment_duration,
    spectral_arc_length,
    write_matrix,
)
from .ingest import (
    COHORT_MANIFEST_NAME,
    LABELS_HEADER,
    RECORDING_HEADER,
    SessionManifest,
    load_cohort,
    load_session,
    parse_labels,
    parse_recording,
    parse_session_manifest,
    write_labels,
    write_recording,
    write_session_manifest,
)
from .model import (
    DEFAULT_SAMPLE_RATE_HZ,
    GRAVITY_MS2,
    FeatureVector,
    Group,
    Placement,
    SegmentKind,
    SegmentLabel,
    SensorStream,
    Session,
    TaskKind,
    assemble_session,
    slice_segment,
)
from .report import (
    DUMP_HEADER,
    PARAMETER_LABELS,
    TASK_TITLES,
    UNTESTABLE_MARK,
    footnote,
    format_p,
    read_dump,
    render_report,
    render_task_table,
    write_dump,
)
from .stats import (
    FEATURE_GRID,
    ComparisonCell,
    ComparisonTable,
    SignificanceRule,
    cell_keys,
    cohens_d,
    compare_cohort,
    regularized_incomplete_beta,
    significance_flag,
    t_survival_two_sided,
    welch_t,
)
from .synth import (
    PLACEMENT_AMPLITUDE_SCALE,
    PLACEMENT_LEVER_M,
    CohortProfile,
    GroupProfile,
    SubmovementSpec,
    default_profile,
    generate_cohort,
    generate_session,
    min_jerk_speed,
    parse_profile,
    synth_segment,
    write_profile,
)

__version__ = "0.1.0"
