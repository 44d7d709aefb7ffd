"""Build synthetic arm movements and watch smoothness degrade.

A movement segment is a sum of minimum-jerk angular-velocity pulses riding
on gravity plus sensor noise. Splitting one excursion into more and more
separated pulses is the simulator's model of impaired movement: the speed
spectrum stretches out (SPARC drops) and the acceleration norm picks up an
extra bump pair per pulse (NP-A climbs).

Run:  python3 demos/01_minimum_jerk_movements.py
"""

import numpy as np

from shoulderkin import FeatureParams
from shoulderkin.dsp import euclidean_norm
from shoulderkin.features import (
    log_dimensionless_jerk,
    mean_crossing_count,
    peak_count,
    spectral_arc_length,
)
from shoulderkin.synth import SubmovementSpec, min_jerk_speed, synth_segment

RATE = 128.0


def main():
    params = FeatureParams()
    rng = np.random.default_rng(7)

    # one pulse on its own: the speed profile is the classic symmetric bell
    t = np.arange(0.0, 1.0, 1.0 / RATE)
    bell = min_jerk_speed(
        t,
        SubmovementSpec(
            onset_s=0.0, duration_s=1.0, amplitude_dps=90.0,
            axis_weights=np.array([1.0, 0.0, 0.0]),
        ),
    )
    peak_at = t[np.argmax(bell)]
    print(f"single 90 dps pulse: peak speed {bell.max():.1f} dps at t = {peak_at:.3f} s")
    print(f"displacement {np.trapezoid(bell, t):.1f} deg (amplitude * duration / 1.875)")
    print()

    # the same excursion fragmented into k separated pulses
    print(" k   NMCP-A   NP-A    SPARC     LDLJ-A")
    for k in range(1, 6):
        pulse, gap = 0.9, 0.45
        specs = [
            SubmovementSpec(
                onset_s=0.3 + i * (pulse + gap),
                duration_s=pulse,
                amplitude_dps=150.0 / k,
                axis_weights=np.array([1.0, 0.0, 0.0]),
            )
            for i in range(k)
        ]
        total = 0.6 + k * pulse + (k - 1) * gap + 0.3
        stream = synth_segment(specs, total, RATE, 0.02, 0.6, rng, lever_arm_m=0.55)
        a_norm = euclidean_norm(stream.accel)
        w_norm = euclidean_norm(stream.gyro)
        print(
            f" {k}   {mean_crossing_count(a_norm):5d}   {peak_count(a_norm, params):4d}"
            f"   {spectral_arc_length(w_norm, RATE, params):7.3f}"
            f"  {log_dimensionless_jerk(a_norm, RATE):8.3f}"
        )
    print()
    print("more fragmentation, lower SPARC (longer spectral arc), more peaks.")


if __name__ == "__main__":
    main()
