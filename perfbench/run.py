"""Benchmark of the shoulderkin pipeline: one workload per invocation.

    python3 perfbench/run.py --workload pipeline-20v20 --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 42] [--seconds 10] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. A run sets up the workload's inputs, then runs
iterations back to back until ``--seconds`` have passed (at least one),
checks every output, and prints a table of metrics followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` iterations
alternate untraced and traced and the metrics are the per-layer ones.
The exit code is 0 only when every output check passed. ``--all`` runs
each workload in turn and prints one table.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
from speed import SpeedProbes
from workloads import ROOT, SRC, WORKLOADS

WORK_ROOT = ROOT / ".perfbench-work"
SPANS_OUT = ROOT / ".perfbench-out"

PER_LAYER_TIMES = (
    "import", "cli.self", "synth", "ingest.write", "ingest.read", "ingest.load",
    "model.slice", "model.assemble", "dsp.norm", "dsp.derivative", "dsp.spectrum",
    "features.extract", "features.nmcp_a", "features.np_a", "features.sparc",
    "features.ldlj_a", "features.rav", "features.pi", "features.matrix_write",
    "features.matrix_read", "stats.compare", "report.dump_write", "report.dump_read",
    "report.render",
)
COUNTER_UNITS = {"ingest.write_bytes": "B", "ingest.read_bytes": "B"}


def run_record(workload, args) -> dict:
    """Where and on what the numbers were taken."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "shoulderkin").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "n_per_group": workload.n_per_group,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Highest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


class Run:
    """One invocation: set-up, the measured loop, and its checks.

    Times are kept in reference seconds (see `speed`); the raw seconds are
    kept beside them for the detail line.
    """

    def __init__(self, workload, trace: bool, probes: SpeedProbes):
        self.workload = workload
        self.tracer = workload.tracer
        self.trace = trace
        self.probes = probes
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.wall = {"untraced": [], "traced": []}  # iteration seconds
        self.cpu: list[float] = []
        self.raw = {"setup_s": [], "run_s": [], "cpu_s": []}
        self.factors = {"setup": [], "iteration": {}}
        self.setup_digests = None
        self.first_digests = None
        self.iteration_counts: list[dict] = []

    def setup(self) -> None:
        repeats = 1 if self.trace else self.workload.setup_repeats
        for attempt in range(repeats):
            start = time.perf_counter()
            outcome = self.workload.setup(attempt)
            end = time.perf_counter()
            factor = self.probes.factor(start, end)
            self.factors["setup"].append(factor)
            self.raw["setup_s"].append(end - start)
            self.setup_s.append((end - start) * factor)
            if attempt == 0:
                self.setup_digests = outcome.digests
            self.problems += [f"setup: {p}" for p in outcome.problems]

    def loop(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            self.iterate(index, traced)
            index += 1
            done = time.perf_counter() - start >= seconds
            if done and (not self.trace or self.wall["traced"]):
                break

    def iterate(self, index: int, traced: bool) -> None:
        workload = self.workload
        if traced:
            self.tracer.run = f"iteration-{index}"
        workload.set_tracing(traced)
        context = self.tracer.span(spans.ITERATION_SPAN) if traced else contextlib.nullcontext()
        cpu0 = cpu_seconds()
        try:
            with context as parent:
                start = time.perf_counter()
                outcome = workload.iteration(index, parent)
                end = time.perf_counter()
        finally:
            workload.set_tracing(False)
        cpu = cpu_seconds() - cpu0
        factor = self.probes.factor(start, end)
        self.factors["iteration"][f"iteration-{index}"] = factor
        workload.finish(index, outcome)
        self.wall["traced" if traced else "untraced"].append((end - start) * factor)
        if not traced:
            self.cpu.append(cpu * factor)
            self.raw["run_s"].append(end - start)
            self.raw["cpu_s"].append(cpu)
        else:
            self.iteration_counts.append(dict(self.tracer.counts[self.tracer.run]))
        if self.first_digests is None:
            self.first_digests = outcome.digests
        elif outcome.digests != self.first_digests and not outcome.problems:
            outcome.problems.append("outputs differ from the first iteration's")
        self.attempted += outcome.attempted
        self.failed += outcome.attempted if outcome.problems else outcome.failed
        self.problems += [f"iteration {index}: {p}" for p in outcome.problems]

    def end_to_end(self) -> dict:
        untraced = self.wall["untraced"]
        return {
            "run_s": (statistics.median(untraced), "s", len(untraced)),
            "cpu_s": (statistics.median(self.cpu), "s", len(self.cpu)),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
            "setup_s": (statistics.median(self.setup_s), "s", len(self.setup_s)),
            "ops_ok_frac": (1.0 - self.failed / self.attempted, "frac", self.attempted),
        }

    def per_layer(self) -> dict:
        """Self time and counts over the set-up plus the median traced iteration."""
        totals = spans.self_times(self.tracer.all_spans())
        traced_runs = [run for run in totals if run != "setup"]
        n = len(traced_runs)
        setup_factor = self.factors["setup"][0]
        metrics = {}
        for name in PER_LAYER_TIMES:
            per_iteration = statistics.median(
                totals[run].get(name, 0.0) * self.factors["iteration"][run] for run in traced_runs
            )
            value = totals["setup"].get(name, 0.0) * setup_factor + per_iteration
            metrics[spans.time_metric(name)] = (value, "s", n)
        counts = self.iteration_counts
        if any(c != counts[0] for c in counts):
            self.problems.append("per-iteration counters differ between traced iterations")
        for key in spans.COUNTER_NAMES:
            value = self.tracer.counts["setup"].get(key, 0) + counts[0].get(key, 0)
            metrics[key] = (value, COUNTER_UNITS.get(key, "count"), n)
        traced, untraced = self.wall["traced"], self.wall["untraced"]
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "frac", len(traced))
        return metrics


def _fmt(value) -> str:
    return f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"


def print_result(run: Run, record: dict, metrics: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  n_per_group={record['n_per_group']}")
    print(f"{'metric':<26}{'value':>16}  {'unit':<6}{'n':>6}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<26}{_fmt(value)}  {unit:<6}{n:>6}")
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'ops_failed_frac':<26}{_fmt(failed_frac)}  {'frac':<6}{run.attempted:>6}")
    for name, values in run.raw.items():
        if values:
            print(f"{name + ' (raw)':<26}{_fmt(statistics.median(values))}  {'s':<6}{len(values):>6}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    detail = {
        "record": record,
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "ops_failed_frac": failed_frac,
        "iterations_s": run.wall,
        "raw_s": run.raw,
        "speed_factors": run.factors,
        "digests": {"setup": run.setup_digests, "iteration": run.first_digests},
        "problems": run.problems,
    }
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )


def run_workload(args) -> int:
    work = WORK_ROOT / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    probes = SpeedProbes(work)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.n_per_group, work, tracer)
        run = Run(workload, bool(args.trace), probes)
        run.setup()
        if not run.problems:
            run.loop(args.seconds)
        if run.attempted == 0:
            for problem in run.problems:
                print(f"check failed: {problem}", file=sys.stderr)
            return 1
        metrics = run.per_layer() if args.trace else run.end_to_end()
        if args.trace:
            SPANS_OUT.mkdir(exist_ok=True)
            tracer.dump(SPANS_OUT / f"spans-{args.workload}.json")
        print_result(run, run_record(workload, args), metrics)
        return 0 if not run.problems else 1
    finally:
        probes.close()
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


def run_all(args) -> int:
    """Each workload in its own process, one after another; one table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.n_per_group:
            cmd += ["--n-per-group", str(args.n_per_group)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        details = [line for line in lines if line.startswith("# detail ")]
        if proc.returncode != 0 or not details:
            status = 1
            sys.stderr.write(proc.stderr)
            sys.stdout.write("".join(f"{name}: {line}\n" for line in lines if line.startswith("check failed")))
        if not details:
            continue
        detail = json.loads(details[-1][len("# detail "):])
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"], detail["samples"][metric]))
        rows.append((name, "ops_failed_frac", detail["ops_failed_frac"], "frac", result["attempted"]))
    print(f"{'workload':<20}{'metric':<26}{'value':>16}  {'unit':<6}{'n':>6}")
    for name, metric, value, unit, n in rows:
        print(f"{name:<20}{metric:<26}{_fmt(value)}  {unit:<6}{n:>6}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload, one table")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n-per-group", type=int, default=None, help="cohort size override, for self-tests"
    )
    args = parser.parse_args(argv)
    if not (SRC / "shoulderkin" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'shoulderkin'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so that child processes are stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
