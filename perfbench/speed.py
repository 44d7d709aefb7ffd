"""Host-speed probes, so reported times measure the program, not the host.

The CPUs of a shared virtual machine change speed from moment to moment.
On the 2-core Xeon VM where this benchmark was written, a fixed chunk of
Python took 1.0 ms or about 1.6 ms, switching within a second, and the
share of slow time drifted over minutes. So the raw wall time of the same
pipeline spread by 10-35% (IQR/median) across ten runs.

`SpeedProbes` starts one light process per CPU the benchmark may use. Each
is pinned to its CPU and, every 30 ms, measures the CPU time of a fixed
chunk of pure Python (about 1 ms), so it takes about 3% of that CPU. CPU
time rather than wall time, because a probe that shares its CPU with the
workload would otherwise time its own waiting. A time measured over an
interval is scaled by ``REFERENCE_CHUNK_S / mean chunk time`` over the
samples of every CPU in that interval. The result is in reference seconds:
seconds on a CPU that runs the chunk in exactly 1 ms. Over two sets of
ten runs per workload on that VM, scaling took the spread of `run_s` from
16-32% to 5-12% (perfbench/README.md has the table).
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

REFERENCE_CHUNK_S = 0.001

PROBE_CODE = """
import os, sys, time
try:
    os.sched_setaffinity(0, {int(sys.argv[1])})
except OSError:
    pass  # unpinned, the probe still samples the speed of some CPU

def chunk():
    x = 0
    for i in range(20000):
        x += i % 7
    return x

with open(sys.argv[2], "w", encoding="utf-8") as out:
    while True:
        start, cpu = time.perf_counter(), time.process_time()
        chunk()
        out.write(f"{start!r} {time.process_time() - cpu!r}\\n")
        out.flush()
        time.sleep(0.03)
"""


class SpeedProbes:
    """One probe process per CPU; `factor` reads what they logged."""

    def __init__(self, work: Path):
        self.logs = []
        self.procs = []
        for cpu in sorted(os.sched_getaffinity(0)):
            log = work / f"speed-{cpu}.log"
            self.logs.append(log)
            self.procs.append(
                subprocess.Popen([sys.executable, "-c", PROBE_CODE, str(cpu), str(log)])
            )

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]."""
        chunks = []
        for log in self.logs:
            if not log.exists():
                continue
            for line in log.read_text(encoding="utf-8").splitlines():
                fields = line.split()
                if len(fields) == 2 and start <= float(fields[0]) <= end:
                    chunks.append(float(fields[1]))
        if not chunks:
            raise RuntimeError("the speed probes logged nothing in the interval")
        return REFERENCE_CHUNK_S / statistics.mean(chunks)

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
