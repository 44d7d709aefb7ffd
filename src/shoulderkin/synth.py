"""Synthetic cohort generation from minimum-jerk submovements.

The movement model is deliberately simple: each subtask is a train of
minimum-jerk angular-speed pulses, the gyroscope reads their sum along
per-pulse axis directions, and the accelerometer reads gravity plus the
time derivative of a linear speed proportional to the angular speed (a
fixed lever arm), plus white noise. That is enough to exercise every
feature's code path and to give the two groups opposite orderings on
smoothness, intensity, and duration.

All randomness flows from (cohort seed, within-group subject index), so
regeneration is byte-identical and two groups built from the same profile
produce identical movement draws subject for subject.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from . import ingest
from .model import (
    GRAVITY_MS2,
    DEFAULT_SAMPLE_RATE_HZ,
    Group,
    Placement,
    SegmentLabel,
    SensorStream,
    Session,
    TaskKind,
    assemble_session,
)

# peak of the minimum-jerk speed polynomial 30 tau^2 - 60 tau^3 + 30 tau^4
_MIN_JERK_PEAK = 1.875

# lever arm from the shoulder to each sensor, metres; scales angular speed
# into the linear speed whose derivative the accelerometer sees
PLACEMENT_LEVER_M = {Placement.WRIST: 0.55, Placement.ARM: 0.28}
# the arm sensor sits closer to the joint and sweeps a smaller angle
PLACEMENT_AMPLITUDE_SCALE = {Placement.WRIST: 1.0, Placement.ARM: 0.6}

# nominal total angular excursion per subtask, degrees: reach out, main
# activity, return
_SUBTASK_EXCURSION_DEG = (130.0, 60.0, 130.0)
_REST_RANGE_S = (0.4, 1.0)
_PAUSE_RANGE_S = (0.25, 0.7)

# Upper bounds on the profile values that size what `simulate` allocates
# and writes. One session is built and written at a time, so its length
# bounds memory: at the limits below a session lasts at most about 29 min
# (220k samples per placement), and building and writing one took under
# 200 MB peak RSS. `n_per_group` bounds only the cohort's disk size and run
# time; the default profile writes about 1.2 MB of CSV per session.
MAX_N_PER_GROUP = 1000
MAX_SUBMOVEMENTS = 50
MAX_PHASE_DURATION_S = 60.0


@dataclass(frozen=True)
class SubmovementSpec:
    """One minimum-jerk angular-speed pulse."""

    onset_s: float
    duration_s: float
    amplitude_dps: float
    axis_weights: np.ndarray

    def __post_init__(self):
        if not self.duration_s > 0:
            raise ValidationError(f"duration_s must be positive, got {self.duration_s}")
        w = np.array(self.axis_weights, dtype=float)
        if w.shape != (3,):
            raise ValidationError(f"axis_weights must be a 3-vector, got shape {w.shape}")
        norm = float(np.sqrt(np.sum(w * w)))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"axis_weights must have unit norm, got {norm}")
        w.setflags(write=False)
        object.__setattr__(self, "axis_weights", w)


@dataclass(frozen=True)
class GroupProfile:
    """Movement-style parameters for one group."""

    submovements: tuple[int, int]
    subtask_duration_s: tuple[float, float]
    hold_duration_s: tuple[float, float]
    pause_probability: float
    accel_noise_sigma: float
    gyro_noise_sigma: float

    def __post_init__(self):
        lo, hi = self.submovements
        if not (1 <= lo <= hi <= MAX_SUBMOVEMENTS):
            raise ValidationError(
                f"submovements range must satisfy 1 <= lo <= hi <= {MAX_SUBMOVEMENTS}, "
                f"got {self.submovements}"
            )
        for name in ("subtask_duration_s", "hold_duration_s"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi <= MAX_PHASE_DURATION_S):
                raise ValidationError(
                    f"{name} range must satisfy 0 < lo <= hi <= {MAX_PHASE_DURATION_S:g}, "
                    f"got {(lo, hi)}"
                )
        if not 0.0 <= self.pause_probability <= 1.0:
            raise ValidationError(f"pause_probability must be in [0,1], got {self.pause_probability}")
        if self.accel_noise_sigma < 0 or self.gyro_noise_sigma < 0:
            raise ValidationError("noise sigmas must be non-negative")


@dataclass(frozen=True)
class CohortProfile:
    """Everything the generator needs: both group styles, size, and seed."""

    patient: GroupProfile
    healthy: GroupProfile
    n_per_group: int
    seed: int

    def __post_init__(self):
        if not 2 <= self.n_per_group <= MAX_N_PER_GROUP:
            raise ValidationError(
                f"n_per_group must be in [2, {MAX_N_PER_GROUP}], got {self.n_per_group}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must fit in u64, got {self.seed}")

    def for_group(self, group: Group) -> GroupProfile:
        return self.patient if group is Group.PATIENT else self.healthy


def default_profile(n_per_group: int = 20, seed: int = 42) -> CohortProfile:
    """The stock 20v20 cohort: patients move in more, longer, interrupted
    submovements; healthy subjects in one or two fluent ones."""
    return CohortProfile(
        patient=GroupProfile(
            submovements=(4, 7),
            subtask_duration_s=(2.6, 4.0),
            hold_duration_s=(1.6, 3.0),
            pause_probability=0.55,
            accel_noise_sigma=0.02,
            gyro_noise_sigma=0.6,
        ),
        healthy=GroupProfile(
            submovements=(1, 2),
            subtask_duration_s=(0.9, 1.6),
            hold_duration_s=(1.0, 2.0),
            pause_probability=0.05,
            accel_noise_sigma=0.02,
            gyro_noise_sigma=0.6,
        ),
        n_per_group=n_per_group,
        seed=seed,
    )


_PROFILE_GROUP_KEYS = (
    "submovements",
    "subtask_duration_s",
    "hold_duration_s",
    "pause_probability",
    "accel_noise_sigma",
    "gyro_noise_sigma",
)


def _profile_floats(*values) -> str:
    """`ingest.format_float` texts, which read back as the same doubles,
    with an integral value's ".0" dropped: 4.0 is written "4"."""
    return " ".join(ingest.format_float(value).removesuffix(".0") for value in values)


def write_profile(profile: CohortProfile) -> bytes:
    """Render a profile as INI text that `parse_profile` reads back as `profile`."""
    lines = [
        "[cohort]",
        f"n_per_group = {profile.n_per_group}",
        f"seed = {profile.seed}",
    ]
    for section, gp in (("patient", profile.patient), ("healthy", profile.healthy)):
        lines += [
            "",
            f"[{section}]",
            f"submovements = {gp.submovements[0]} {gp.submovements[1]}",
            f"subtask_duration_s = {_profile_floats(*gp.subtask_duration_s)}",
            f"hold_duration_s = {_profile_floats(*gp.hold_duration_s)}",
            f"pause_probability = {_profile_floats(gp.pause_probability)}",
            f"accel_noise_sigma = {_profile_floats(gp.accel_noise_sigma)}",
            f"gyro_noise_sigma = {_profile_floats(gp.gyro_noise_sigma)}",
        ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _profile_number(cp: configparser.ConfigParser, section: str, key: str, path, kind=float):
    return ingest.parse_cell(kind, cp.get(section, key), f"[{section}] {key}", path, None)


def _profile_pair(cp: configparser.ConfigParser, section: str, key: str, path, kind=float):
    raw = cp.get(section, key)
    parts = raw.split()
    if len(parts) != 2:
        raise ParseError(f"{key} must be two values 'lo hi', got {raw!r}", path=path)
    return tuple(ingest.parse_cell(kind, part, f"[{section}] {key}", path, None) for part in parts)


def _profile_group(cp: configparser.ConfigParser, section: str, path) -> GroupProfile:
    keys = set(cp.options(section))
    unknown = keys - set(_PROFILE_GROUP_KEYS)
    if unknown:
        raise ParseError(f"[{section}] has unknown keys: {', '.join(sorted(unknown))}", path=path)
    missing = set(_PROFILE_GROUP_KEYS) - keys
    if missing:
        raise ParseError(f"[{section}] is missing keys: {', '.join(sorted(missing))}", path=path)
    return GroupProfile(
        submovements=_profile_pair(cp, section, "submovements", path, int),
        subtask_duration_s=_profile_pair(cp, section, "subtask_duration_s", path),
        hold_duration_s=_profile_pair(cp, section, "hold_duration_s", path),
        pause_probability=_profile_number(cp, section, "pause_probability", path),
        accel_noise_sigma=_profile_number(cp, section, "accel_noise_sigma", path),
        gyro_noise_sigma=_profile_number(cp, section, "gyro_noise_sigma", path),
    )


def parse_profile(path) -> CohortProfile:
    """Parse a cohort profile file (INI with cohort/patient/healthy sections)."""
    lines = ingest.read_lines(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_file(lines, source=str(path))
    except configparser.Error as err:
        raise ParseError(f"bad profile syntax: {err}", path=path) from None
    sections = set(cp.sections())
    if sections != {"cohort", "patient", "healthy"}:
        raise ParseError(
            "profile must have exactly the sections [cohort], [patient], [healthy]; "
            f"got {sorted(sections)}",
            path=path,
        )
    cohort_keys = set(cp.options("cohort"))
    if cohort_keys != {"n_per_group", "seed"}:
        raise ParseError(
            f"[cohort] must have exactly n_per_group and seed, got {sorted(cohort_keys)}",
            path=path,
        )
    return CohortProfile(
        n_per_group=_profile_number(cp, "cohort", "n_per_group", path, int),
        seed=_profile_number(cp, "cohort", "seed", path, int),
        patient=_profile_group(cp, "patient", path),
        healthy=_profile_group(cp, "healthy", path),
    )


def min_jerk_speed(t, spec: SubmovementSpec):
    """Angular speed of one pulse at time(s) t, deg/s.

    Zero outside [onset, onset + duration]; inside, the quartic
    minimum-jerk speed profile scaled so its peak equals the amplitude.
    """
    t_arr = np.asarray(t, dtype=float)
    tau = (t_arr - spec.onset_s) / spec.duration_s
    inside = (tau >= 0.0) & (tau <= 1.0)
    tau = np.where(inside, tau, 0.0)
    poly = 30.0 * tau**2 - 60.0 * tau**3 + 30.0 * tau**4
    out = np.where(inside, spec.amplitude_dps * poly / _MIN_JERK_PEAK, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _min_jerk_accel(t, spec: SubmovementSpec):
    """Analytic time derivative of `min_jerk_speed`, deg/s^2."""
    t_arr = np.asarray(t, dtype=float)
    tau = (t_arr - spec.onset_s) / spec.duration_s
    inside = (tau >= 0.0) & (tau <= 1.0)
    tau = np.where(inside, tau, 0.0)
    dpoly = 60.0 * tau - 180.0 * tau**2 + 120.0 * tau**3
    return np.where(
        inside, spec.amplitude_dps * dpoly / (_MIN_JERK_PEAK * spec.duration_s), 0.0
    )


def synth_segment(
    specs,
    total_s: float,
    sample_rate_hz: float,
    accel_noise_sigma: float,
    gyro_noise_sigma: float,
    rng: np.random.Generator,
    lever_arm_m: float = 0.4,
) -> SensorStream:
    """Render submovement specs into a sensor stream.

    gyro: sum of pulse speeds spread over axes by each spec's weights.
    accel: (0, 0, g) plus lever_arm * d(speed)/dt along the same weights.
    Both get independent Gaussian noise of the given sigmas (a sigma of 0
    still consumes draws, keeping the rng stream layout fixed).
    """
    if not total_s > 0:
        raise ValidationError(f"total_s must be positive, got {total_s}")
    n = int(round(total_s * sample_rate_hz))
    for spec in specs:
        if spec.onset_s < -1e-9 or spec.onset_s + spec.duration_s > total_s + 1e-9:
            raise ValidationError(
                f"submovement [{spec.onset_s:.3f}, {spec.onset_s + spec.duration_s:.3f}] s "
                f"does not fit in {total_s:.3f} s"
            )
    t = np.arange(n) / sample_rate_hz
    gyro = np.zeros((n, 3))
    accel = np.zeros((n, 3))
    accel[:, 2] = GRAVITY_MS2
    for spec in specs:
        lo = max(0, int(math.floor(spec.onset_s * sample_rate_hz)))
        hi = min(n, int(math.ceil((spec.onset_s + spec.duration_s) * sample_rate_hz)) + 1)
        window = t[lo:hi]
        speed = min_jerk_speed(window, spec)
        accel_scalar = lever_arm_m * np.deg2rad(_min_jerk_accel(window, spec))
        gyro[lo:hi] += np.outer(speed, spec.axis_weights)
        accel[lo:hi] += np.outer(accel_scalar, spec.axis_weights)
    accel += rng.normal(0.0, accel_noise_sigma, (n, 3))
    gyro += rng.normal(0.0, gyro_noise_sigma, (n, 3))
    return SensorStream(accel=accel, gyro=gyro, sample_rate_hz=sample_rate_hz)


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    """A random unit direction with its vertical share damped, so the
    gravity offset never fully hides the acceleration bumps."""
    while True:
        v = rng.normal(0.0, 1.0, 3)
        v[2] *= 0.8
        norm = float(np.sqrt(np.sum(v * v)))
        if norm > 1e-6:
            return v / norm


def _jittered_axis(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The subtask's dominant direction plus a small per-pulse wobble.

    Keeping one subtask's pulses nearly collinear matters: independent
    directions would let the per-axis signal range grow with the pulse
    count, washing out the speed contrast between the groups.
    """
    v = base + 0.25 * rng.normal(0.0, 1.0, 3)
    norm = float(np.sqrt(np.sum(v * v)))
    if norm < 1e-6:
        return np.array(base)
    return v / norm


def _layout_task(
    profile: GroupProfile, rng: np.random.Generator, rate: float, start: int
) -> tuple[list[SubmovementSpec], tuple[int, int, int, int]]:
    """Lay one task's three subtasks onto the sample grid.

    Returns the specs and the boundary samples (s1, e1=s2, e2=s3, e3).
    The hold of subtask 2 is inserted between its submovements; pauses
    appear between submovements with the profile's probability.
    """
    specs: list[SubmovementSpec] = []
    cursor = start
    edges = [start]
    for sub_idx in range(3):
        k = int(rng.integers(profile.submovements[0], profile.submovements[1] + 1))
        movement_s = rng.uniform(*profile.subtask_duration_s)
        duration_w = rng.uniform(0.8, 1.2, k)
        duration_w /= duration_w.sum()
        excursion_deg = _SUBTASK_EXCURSION_DEG[sub_idx] * rng.uniform(0.85, 1.15)
        excursion_w = rng.uniform(0.8, 1.2, k)
        excursion_w /= excursion_w.sum()
        base_axis = _random_axis(rng)
        hold_n = 0
        hold_after = 0
        if sub_idx == 1:
            hold_n = int(round(rng.uniform(*profile.hold_duration_s) * rate))
            hold_after = (k + 1) // 2
        for i in range(k):
            n_i = max(8, int(round(movement_s * duration_w[i] * rate)))
            pulse_s = n_i / rate
            excursion_i = excursion_deg * excursion_w[i]
            specs.append(
                SubmovementSpec(
                    onset_s=cursor / rate,
                    duration_s=pulse_s,
                    amplitude_dps=_MIN_JERK_PEAK * excursion_i / pulse_s,
                    axis_weights=_jittered_axis(base_axis, rng),
                )
            )
            cursor += n_i
            pause_draw = rng.random()
            if i + 1 < k and pause_draw < profile.pause_probability:
                cursor += int(round(rng.uniform(*_PAUSE_RANGE_S) * rate))
            if hold_after and i + 1 == hold_after:
                cursor += hold_n
        edges.append(cursor)
    return specs, (edges[0], edges[1], edges[2], edges[3])


def generate_session(profile: CohortProfile, group: Group, index: int) -> Session:
    """Build one subject's session deterministically.

    The rng tree is seeded by (cohort seed, index); one child stream per
    task drives that task's layout, and a session-level stream covers the
    side draw, the trailing rest, and both placements' noise (wrist first,
    then arm). The group label itself never enters the seeding, so two
    groups sharing a profile produce identical signals.
    """
    if index < 0:
        raise ValidationError(f"subject index must be >= 0, got {index}")
    group_profile = profile.for_group(group)
    rate = DEFAULT_SAMPLE_RATE_HZ
    seed_seq = np.random.SeedSequence([profile.seed, index])
    children = seed_seq.spawn(6)
    session_rng = np.random.default_rng(children[0])
    side = "left" if session_rng.random() < 0.5 else "right"

    specs: list[SubmovementSpec] = []
    labels: list[SegmentLabel] = []
    cursor = 0
    for task_idx, task in enumerate(TaskKind):
        task_rng = np.random.default_rng(children[1 + task_idx])
        cursor += int(round(task_rng.uniform(*_REST_RANGE_S) * rate))
        task_specs, (s1, e1, e2, e3) = _layout_task(group_profile, task_rng, rate, cursor)
        specs.extend(task_specs)
        labels.append(SegmentLabel(task, s1, e1, e1, e2, e2, e3))
        cursor = e3
    cursor += int(round(session_rng.uniform(*_REST_RANGE_S) * rate))
    total_s = cursor / rate

    streams = {}
    for placement in Placement:
        scale = PLACEMENT_AMPLITUDE_SCALE[placement]
        placed = [replace(s, amplitude_dps=s.amplitude_dps * scale) for s in specs]
        streams[placement] = synth_segment(
            placed,
            total_s,
            rate,
            group_profile.accel_noise_sigma,
            group_profile.gyro_noise_sigma,
            session_rng,
            lever_arm_m=PLACEMENT_LEVER_M[placement],
        )

    prefix = "P" if group is Group.PATIENT else "H"
    subject_id = f"{prefix}{index + 1:02d}"
    return assemble_session(subject_id, group, side, streams, labels)


def generate_cohort(profile: CohortProfile, out_dir) -> list[Path]:
    """Write a full cohort directory: recordings, labels, manifests.

    Patients come first, then healthy subjects, both in index order; the
    cohort manifest lists the session manifests in that order. Returns
    the session manifest paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_names: list[str] = []
    manifest_paths: list[Path] = []
    for group in (Group.PATIENT, Group.HEALTHY):
        for index in range(profile.n_per_group):
            session = generate_session(profile, group, index)
            sid = session.subject_id
            files = {
                Placement.WRIST: f"{sid}_wrist.csv",
                Placement.ARM: f"{sid}_arm.csv",
            }
            for placement, name in files.items():
                (out_dir / name).write_bytes(ingest.write_recording(session.streams[placement]))
            labels_name = f"{sid}_labels.csv"
            (out_dir / labels_name).write_bytes(ingest.write_labels(session.labels))
            manifest = ingest.SessionManifest(
                subject_id=sid,
                group=session.group,
                side=session.side,
                recordings=files,
                labels_path=labels_name,
                sample_rate_hz=session.sample_rate_hz,
            )
            manifest_name = f"{sid}_session.txt"
            (out_dir / manifest_name).write_bytes(ingest.write_session_manifest(manifest))
            manifest_names.append(manifest_name)
            manifest_paths.append(out_dir / manifest_name)
    (out_dir / ingest.COHORT_MANIFEST_NAME).write_bytes(
        ("\n".join(manifest_names) + "\n").encode("utf-8")
    )
    return manifest_paths
