"""Which features survive a sensor being strapped on crooked?

The norm-based features cannot see orientation: rotating the whole
recording changes nothing about NMCP-A, NP-A, SPARC, or LDLJ-A, and
rescaling the amplitude leaves the two spectral measures alone while RAV
scales linearly. RAV reads the per-axis ranges directly, so it does move
under rotation, which is exactly why placement consistency matters when
comparing subjects.

Run:  python3 demos/02_smoothness_invariances.py
"""

import numpy as np

from shoulderkin import FeatureParams
from shoulderkin.dsp import euclidean_norm
from shoulderkin.features import (
    angular_velocity_range,
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    spectral_arc_length,
)
from shoulderkin.model import SensorStream
from shoulderkin.synth import SubmovementSpec, synth_segment

RATE = 128.0


def feature_line(stream, params):
    a_norm = euclidean_norm(stream.accel, RATE)
    w_norm = euclidean_norm(stream.gyro, RATE)
    return (
        mean_crossing_count(a_norm),
        peak_count(a_norm, params),
        spectral_arc_length(w_norm, params),
        log_dimensionless_jerk(a_norm),
        angular_velocity_range(stream.gyro),
    )


def main():
    params = FeatureParams()
    rng = np.random.default_rng(11)
    axis = np.array([0.6, 0.64, -0.48])
    axis /= np.linalg.norm(axis)
    specs = [
        SubmovementSpec(onset_s=0.3, duration_s=0.9, amplitude_dps=120.0, axis_weights=axis),
        SubmovementSpec(
            onset_s=1.6, duration_s=0.7, amplitude_dps=80.0,
            axis_weights=np.array([0.0, 0.8, 0.6]),
        ),
    ]
    stream = synth_segment(specs, 3.0, RATE, 0.02, 0.6, rng, lever_arm_m=0.55)

    # a random proper rotation, the crooked-mounting model
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    turned = SensorStream(
        accel=stream.accel @ q.T, gyro=stream.gyro @ q.T, sample_rate_hz=RATE
    )

    names = ("NMCP-A", "NP-A", "SPARC", "LDLJ-A", "RAV")
    base = feature_line(stream, params)
    moved = feature_line(turned, params)
    print("feature   as mounted    rotated")
    for name, a, b in zip(names, base, moved):
        if isinstance(a, int):
            print(f"{name:7s}  {a:10d}  {b:9d}")
        else:
            print(f"{name:7s}  {a:10.4f}  {b:9.4f}")
    print()
    print("counts and spectral measures hold; RAV shifts by "
          f"{100.0 * abs(moved[4] - base[4]) / base[4]:.1f}%")
    print()

    print("amplitude scaling (same segment, accel and gyro times c):")
    print("   c      SPARC     LDLJ-A        RAV")
    for c in (0.1, 1.0, 2.0, 100.0):
        scaled = SensorStream(
            accel=c * stream.accel, gyro=c * stream.gyro, sample_rate_hz=RATE
        )
        s = spectral_arc_length(euclidean_norm(scaled.gyro, RATE), params)
        l = log_dimensionless_jerk(euclidean_norm(scaled.accel, RATE))
        v = angular_velocity_range(scaled.gyro)
        print(f"{c:6.1f}   {s:7.3f}   {l:8.3f}   {v:8.2f}")
    print()
    print("SPARC and LDLJ-A are dimensionless; RAV carries the units.")


if __name__ == "__main__":
    main()
