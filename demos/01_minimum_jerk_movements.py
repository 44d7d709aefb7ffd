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
from shoulderkin.synth import synth_segment

RATE = 128.0


def main():
    params = FeatureParams()
    rng = np.random.default_rng(7)

    # one pulse on its own, an (onset_s, duration_s, amplitude_dps, unit
    # axis) row: with no noise, the gyro along the axis is the classic
    # symmetric bell
    pulse = (0.0, 1.0, 90.0, (1.0, 0.0, 0.0))
    alone = synth_segment([pulse], 1.0, RATE, 0.0, 0.0, np.random.default_rng(0))
    t, bell = alone.times_s(), alone.gyro[:, 0]
    peak_at = t[np.argmax(bell)]
    print(f"single 90 dps pulse: peak speed {bell.max():.1f} dps at t = {peak_at:.3f} s")
    print(f"displacement {np.trapezoid(bell, t):.1f} deg (amplitude * duration / 1.875)")
    print()

    # the same excursion fragmented into k separated pulses
    print(" k   NMCP-A   NP-A    SPARC     LDLJ-A")
    for k in range(1, 6):
        pulse, gap = 0.9, 0.45
        pulses = [(0.3 + i * (pulse + gap), pulse, 150.0 / k, (1.0, 0.0, 0.0)) for i in range(k)]
        total = 0.6 + k * pulse + (k - 1) * gap + 0.3
        stream = synth_segment(pulses, total, RATE, 0.02, 0.6, rng, lever_arm_m=0.55)
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
