"""Write a session to disk, read it back, and watch the parser push back.

The CSV layer renders floats with 9 significant digits and refuses to
guess: a missing column, a non-numeric cell, or overlapping segment
boundaries each produce one error naming the file, the line, and the
problem. The round trip below is exact because the demo values fit the
9-digit budget; arbitrary doubles survive to about 1e-9 relative.

Run:  python3 demos/05_csv_round_trip.py
"""

import tempfile
from pathlib import Path

import numpy as np

from shoulderkin import ParseError
from shoulderkin.ingest import parse_labels, parse_recording, write_labels, write_recording
from shoulderkin.model import SegmentLabel, SensorStream, TaskKind


def main():
    rng = np.random.default_rng(3)
    stream = SensorStream(
        accel=np.round(rng.normal(0.0, 5.0, size=(256, 3)), 6),
        gyro=np.round(rng.normal(0.0, 80.0, size=(256, 3)), 6),
        sample_rate_hz=128.0,
    )
    labels = {TaskKind.WH: SegmentLabel(s1=0, e1=64, e2=192, e3=256)}

    with tempfile.TemporaryDirectory() as work:
        rec_path = Path(work) / "demo_wrist.csv"
        lab_path = Path(work) / "demo_labels.csv"
        rec_path.write_bytes(write_recording(stream))
        lab_path.write_bytes(write_labels(labels))
        print(f"wrote {rec_path.stat().st_size} bytes of recording, "
              f"{lab_path.stat().st_size} bytes of labels")

        back = parse_recording(rec_path)
        same = np.array_equal(back.accel, stream.accel) and np.array_equal(
            back.gyro, stream.gyro
        )
        print(f"recording round trip exact: {same}")
        print(f"labels round trip exact: {parse_labels(lab_path) == labels}")
        print()

        # now break the file three different ways and read the complaints
        good = rec_path.read_text().splitlines()

        corrupt = good[10].split(",")
        corrupt[2] = "oops"

        broken = Path(work) / "broken.csv"
        for description, lines in (
            ("truncated row", good[:40] + [good[40].rsplit(",", 1)[0]]),
            ("non-numeric cell", good[:10] + [",".join(corrupt)]),
            ("wrong header", ["t,a,b,c,d,e,f"] + good[1:]),
        ):
            broken.write_text("\n".join(lines) + "\n")
            try:
                parse_recording(broken)
                print(f"{description}: accepted (should not happen)")
            except ParseError as err:
                print(f"{description}:\n    {err}")


if __name__ == "__main__":
    main()
