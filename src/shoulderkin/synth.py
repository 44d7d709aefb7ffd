"""Synthetic cohort generation from minimum-jerk submovements.

The movement model is deliberately simple: each subtask is a train of
minimum-jerk angular-speed pulses, the gyroscope reads their sum along
per-pulse axis directions, and the accelerometer reads gravity plus the
time derivative of a linear speed proportional to the angular speed (a
fixed lever arm), plus white noise. That is enough to exercise every
feature's code path and to give the two groups opposite orderings on
smoothness, intensity, and duration.

Every pulse is an (onset_s, duration_s, amplitude_dps, unit axis) row:
`generate_session` renders a session's rows for both placements, and
`synth_segment` renders rows of the caller's choosing into one stream.

All randomness flows from (cohort seed, within-group subject index), so
regeneration is byte-identical and two groups built from the same profile
produce identical movement draws subject for subject.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from . import formats, ingest
from .formats import Group, Placement, TaskKind, _is_integer
from .helper import in_order
from .model import (
    GRAVITY_MS2,
    DEFAULT_SAMPLE_RATE_HZ,
    SegmentLabel,
    SensorStream,
    Session,
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
# and writes. Each of its two processes (see `generate_cohort`) builds and
# writes one session at a time, so a session's length bounds memory: at
# the limits below a session lasts at most about 29 min (220k samples per
# placement), and writing four such sessions peaked at 102 MB RSS in the
# parent and 98 MB in its helper. The recording writer sets that peak:
# building one such session alone peaks at 74 MB. `n_per_group` bounds
# only the cohort's disk size and run time; the default profile writes
# about 1.2 MB of CSV per session.
MAX_N_PER_GROUP = 1000
MAX_SUBMOVEMENTS = 50
MAX_PHASE_DURATION_S = 60.0
# Largest noise sigma, in m/s^2 (accel) or deg/s (gyro): orders of
# magnitude past any sensor's range, and small enough that every sample
# stays finite. A sigma near the largest double passes as finite but makes
# the rendered noise overflow.
MAX_NOISE_SIGMA = 1e6


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
        if not (_is_integer(lo) and _is_integer(hi) and 1 <= lo <= hi <= MAX_SUBMOVEMENTS):
            raise ValidationError(
                f"submovements range must be integers with 1 <= lo <= hi <= {MAX_SUBMOVEMENTS}, "
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
        for name in ("accel_noise_sigma", "gyro_noise_sigma"):
            sigma = getattr(self, name)
            if not 0.0 <= sigma <= MAX_NOISE_SIGMA:
                raise ValidationError(
                    f"{name} must be finite and non-negative, at most {MAX_NOISE_SIGMA:g}, "
                    f"got {sigma}"
                )


@dataclass(frozen=True)
class CohortProfile:
    """Everything the generator needs: both group styles, size, and seed."""

    patient: GroupProfile
    healthy: GroupProfile
    n_per_group: int
    seed: int

    def __post_init__(self):
        if not (_is_integer(self.n_per_group) and 2 <= self.n_per_group <= MAX_N_PER_GROUP):
            raise ValidationError(
                f"n_per_group must be an integer in [2, {MAX_N_PER_GROUP}], got {self.n_per_group}"
            )
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be an integer that fits in u64, got {self.seed}")

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


# Every profile key, by section, with the kind of its numbers and how many
# it takes: one, or two for a `lo hi` range. `write_profile` writes the keys
# in this order and `parse_profile` reads them back.
_GROUP_KEYS = {
    "submovements": (int, 2),
    "subtask_duration_s": (float, 2),
    "hold_duration_s": (float, 2),
    "pause_probability": (float, 1),
    "accel_noise_sigma": (float, 1),
    "gyro_noise_sigma": (float, 1),
}
_PROFILE_KEYS = {
    "cohort": {"n_per_group": (int, 1), "seed": (int, 1)},
    "patient": _GROUP_KEYS,
    "healthy": _GROUP_KEYS,
}


def _format_number(kind, value) -> str:
    """An int as digits; a float as `formats.format_float` text, which reads
    back as the same double, with an integral value's ".0" dropped."""
    return str(value) if kind is int else formats.format_float(value).removesuffix(".0")


def write_profile(profile: CohortProfile) -> bytes:
    """Render a profile as the text `parse_profile` reads back as `profile`."""
    lines = []
    for section, keys in _PROFILE_KEYS.items():
        owner = profile if section == "cohort" else getattr(profile, section)
        lines += ["", f"[{section}]"]
        for key, (kind, count) in keys.items():
            values = getattr(owner, key) if count == 2 else [getattr(owner, key)]
            lines.append(f"{key} = " + " ".join(_format_number(kind, v) for v in values))
    return ("\n".join(lines[1:]) + "\n").encode("utf-8")


def _section_values(section: str, pairs, path, header_line: int) -> dict:
    """The numbers of one section's `{key: (text, line_no)}` pairs, by key."""
    values = {}
    for key, (kind, count) in _PROFILE_KEYS[section].items():
        if key not in pairs:
            raise ParseError(f"[{section}] is missing key {key!r}", path=path, line=header_line)
        text, line_no = pairs[key]
        cells = text.split() if count == 2 else [text]
        if len(cells) != count:
            message = f"{key} must be two values 'lo hi', got {text!r}"
            raise ParseError(message, path=path, line=line_no)
        column = f"[{section}] {key}"
        numbers = tuple(formats.parse_cell(kind, cell, column, path, line_no) for cell in cells)
        values[key] = numbers if count == 2 else numbers[0]
    return values


def parse_profile(path) -> CohortProfile:
    """Parse a cohort profile: the headers ``[cohort]``, ``[patient]`` and
    ``[healthy]``, once each in any order, each followed by that section's
    keys in the `formats.parse_key_values` format. A parse error names the
    line at fault; a missing section, the last line."""
    lines = formats.read_lines(path)
    starts = [i for i, line in enumerate(lines) if line.lstrip().startswith("[")]
    # before the first header, only blank lines and comments
    formats.parse_key_values(lines[: starts[0] if starts else len(lines)], (), path)
    values: dict[str, dict] = {}
    for start, end in zip(starts, [*starts[1:], len(lines)]):
        header = lines[start].strip()
        section = header[1:-1]
        if header != f"[{section}]" or section not in _PROFILE_KEYS or section in values:
            names = ", ".join(f"[{name}]" for name in _PROFILE_KEYS)
            message = f"unknown or repeated section {header!r}; the sections are {names}, once each"
            raise ParseError(message, path=path, line=start + 1)
        body = lines[start + 1 : end]
        pairs = formats.parse_key_values(body, _PROFILE_KEYS[section], path, first_line=start + 2)
        values[section] = _section_values(section, pairs, path, start + 1)
    missing = ", ".join(f"[{name}]" for name in _PROFILE_KEYS if name not in values)
    if missing:
        # named at the last line, where the file ends without them
        raise ParseError(f"missing sections {missing}", path=path, line=len(lines) or None)
    return CohortProfile(
        patient=GroupProfile(**values["patient"]),
        healthy=GroupProfile(**values["healthy"]),
        **values["cohort"],
    )


def _render_pulses(pulses, n: int, rate: float, placements, noise, rng) -> list[SensorStream]:
    """Render (onset_s, duration_s, amplitude_dps, unit axis) pulse rows
    into one n-sample stream per (amplitude scale, lever arm) placement.

    A pulse covers the samples floor(onset * rate) to ceil(end * rate)
    inclusive. Its shape is evaluated once, over all windows joined end to
    end; each placement adds its scaled copy into gyro and accel in pulse
    order, so a sample two windows share sums them in that order, then
    draws noise of the (accel, gyro) sigmas in `noise`, accel first.
    """
    onsets, durations, amplitudes = np.array([p[:3] for p in pulses], float).reshape(-1, 3).T
    lo = np.maximum(np.floor(onsets * rate), 0).astype(np.intp)
    hi = np.minimum(np.ceil((onsets + durations) * rate) + 1, n).astype(np.intp)
    lengths = np.maximum(hi - lo, 0)
    pulse = np.repeat(np.arange(len(lengths)), lengths)
    sample = np.arange(len(pulse)) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    # the speed polynomial and its derivative in tau, zero outside [0, 1]
    tau = (sample / rate - onsets[pulse]) / durations[pulse]
    tau = np.where((tau >= 0.0) & (tau <= 1.0), tau, 0.0)
    poly = 30.0 * tau**2 - 60.0 * tau**3 + 30.0 * tau**4
    dpoly = 60.0 * tau - 180.0 * tau**2 + 120.0 * tau**3
    peak_s = _MIN_JERK_PEAK * durations[pulse]
    along = np.array([p[3] for p in pulses], float).reshape(-1, 3)[pulse]
    # flat indices take numpy's fast one-dimensional np.add.at
    flat = (3 * sample[:, None] + np.arange(3)).ravel()
    streams = []
    for scale, lever_arm_m in placements:
        amplitude = (amplitudes * scale)[pulse]
        speed = amplitude * poly / _MIN_JERK_PEAK
        linear = lever_arm_m * np.deg2rad(amplitude * dpoly / peak_s)
        gyro = np.zeros((n, 3))
        accel = np.zeros((n, 3))
        accel[:, 2] = GRAVITY_MS2
        np.add.at(gyro.reshape(-1), flat, (speed[:, None] * along).ravel())
        np.add.at(accel.reshape(-1), flat, (linear[:, None] * along).ravel())
        accel += rng.normal(0.0, noise[0], (n, 3))
        gyro += rng.normal(0.0, noise[1], (n, 3))
        # read-only, so the stream takes both arrays over without a copy
        accel.setflags(write=False)
        gyro.setflags(write=False)
        streams.append(SensorStream(accel=accel, gyro=gyro, sample_rate_hz=rate))
    return streams


def synth_segment(
    pulses,
    total_s: float,
    sample_rate_hz: float,
    accel_noise_sigma: float,
    gyro_noise_sigma: float,
    rng: np.random.Generator,
    lever_arm_m: float = 0.4,
) -> SensorStream:
    """Render (onset_s, duration_s, amplitude_dps, unit axis) pulse rows
    into one stream, as `generate_session` renders each placement.

    gyro: the pulses' minimum-jerk speeds, each peaking at its amplitude,
    along their axes. accel: (0, 0, g) plus lever_arm_m * d(speed)/dt
    along the same axes. Both get Gaussian noise of the given sigmas (a
    sigma of 0 still draws, keeping the rng stream layout fixed). Each
    pulse needs a positive duration, a finite amplitude and a unit axis,
    and must fit in [0, total_s]; a render that overflows is refused.
    """
    # each check is written so that NaN fails it
    if not (total_s > 0 and 0 < total_s * sample_rate_hz < math.inf):
        message = "must be positive, with a finite sample count"
        raise ValidationError(f"total_s {total_s} and sample_rate_hz {sample_rate_hz} {message}")
    for index, (onset_s, duration_s, amplitude, axis) in enumerate(pulses):
        if not duration_s > 0:
            raise ValidationError(f"duration_s must be positive, got {duration_s}")
        if not -math.inf < amplitude < math.inf:
            raise ValidationError(f"pulse {index}: amplitude_dps must be finite, got {amplitude}")
        axis = np.asarray(axis, dtype=float)
        if axis.shape != (3,):
            raise ValidationError(f"the axis must be a 3-vector, got shape {axis.shape}")
        norm = float(np.sqrt(np.sum(axis * axis)))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValidationError(f"the axis must have unit norm, got {norm}")
        end_s = onset_s + duration_s
        if not (onset_s >= -1e-9 and end_s <= total_s + 1e-9):
            raise ValidationError(
                f"submovement [{onset_s:.3f}, {end_s:.3f}] s does not fit in {total_s:.3f} s"
            )
    n = round(total_s * sample_rate_hz)
    noise = (accel_noise_sigma, gyro_noise_sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        return _render_pulses(pulses, n, sample_rate_hz, [(1.0, lever_arm_m)], noise, rng)[0]


def _random_axis(rng: np.random.Generator) -> np.ndarray:
    """A random unit direction with its vertical share damped, so the
    gravity offset never fully hides the acceleration bumps."""
    while True:
        v = rng.normal(0.0, 1.0, 3)
        v[2] *= 0.8
        x, y, z = v.tolist()
        norm = math.sqrt(x * x + y * y + z * z)
        if norm > 1e-6:
            return v / norm


def _jittered_axis(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The subtask's dominant direction plus a small per-pulse wobble.

    Keeping one subtask's pulses nearly collinear matters: independent
    directions would let the per-axis signal range grow with the pulse
    count, washing out the speed contrast between the groups.
    """
    v = base + 0.25 * rng.normal(0.0, 1.0, 3)
    x, y, z = v.tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    return np.array(base) if norm < 1e-6 else v / norm


def _layout_task(
    profile: GroupProfile, rng: np.random.Generator, rate: float, start: int, pulses: list
) -> tuple[int, int, int, int]:
    """Lay one task's three subtasks onto the sample grid.

    Appends each pulse's (onset_s, duration_s, amplitude_dps, unit axis)
    to `pulses` and returns the boundary samples (s1, e1, e2, e3).
    The hold of subtask 2 is inserted between its submovements; pauses
    appear between submovements with the profile's probability.
    """
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
            amplitude = _MIN_JERK_PEAK * (excursion_deg * excursion_w[i]) / pulse_s
            pulses.append((cursor / rate, pulse_s, amplitude, _jittered_axis(base_axis, rng)))
            cursor += n_i
            pause_draw = rng.random()
            if i + 1 < k and pause_draw < profile.pause_probability:
                cursor += int(round(rng.uniform(*_PAUSE_RANGE_S) * rate))
            if hold_after and i + 1 == hold_after:
                cursor += hold_n
        edges.append(cursor)
    return edges[0], edges[1], edges[2], edges[3]


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

    pulses: list = []
    labels: dict[TaskKind, SegmentLabel] = {}
    cursor = 0
    for task_idx, task in enumerate(TaskKind):
        task_rng = np.random.default_rng(children[1 + task_idx])
        cursor += int(round(task_rng.uniform(*_REST_RANGE_S) * rate))
        label = SegmentLabel(*_layout_task(group_profile, task_rng, rate, cursor, pulses))
        labels[task] = label
        cursor = label.e3
    cursor += int(round(session_rng.uniform(*_REST_RANGE_S) * rate))

    placements = [(PLACEMENT_AMPLITUDE_SCALE[p], PLACEMENT_LEVER_M[p]) for p in Placement]
    noise = (group_profile.accel_noise_sigma, group_profile.gyro_noise_sigma)
    rendered = _render_pulses(pulses, cursor, rate, placements, noise, session_rng)
    prefix = "P" if group is Group.PATIENT else "H"
    subject_id = f"{prefix}{index + 1:02d}"
    return assemble_session(subject_id, group, side, dict(zip(Placement, rendered)), labels)


def _write_session(profile: CohortProfile, group: Group, index: int, out_dir: Path) -> str:
    """Generate one session and write its recordings, labels and session
    manifest into `out_dir`; returns the manifest's file name."""
    session = generate_session(profile, group, index)
    sid = session.subject_id
    files = {placement: f"{sid}_{placement.value}.csv" for placement in Placement}
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
    return manifest_name


def generate_cohort(profile: CohortProfile, out_dir) -> list[Path]:
    """Write a full cohort directory: recordings, labels, manifests.

    Patients come first, then healthy subjects, both in index order; the
    cohort manifest lists the session manifests in that order. Returns
    the session manifest paths.

    `helper.in_order` decides which process writes each session. A
    session depends only on (seed, index), so the files are the same
    bytes a single process writes. An existing cohort manifest is removed
    before the first session, and the new one is written last, whole,
    only when every session is on disk.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a manifest left by an earlier run would list a mix of its sessions and these
    (out_dir / ingest.COHORT_MANIFEST_NAME).unlink(missing_ok=True)
    groups = (Group.PATIENT, Group.HEALTHY)
    keys = [(group, index) for group in groups for index in range(profile.n_per_group)]
    names = list(in_order(keys, lambda key: _write_session(profile, *key, out_dir)))
    formats.write_atomically(
        out_dir / ingest.COHORT_MANIFEST_NAME, ("\n".join(names) + "\n").encode("utf-8")
    )
    return [out_dir / name for name in names]
