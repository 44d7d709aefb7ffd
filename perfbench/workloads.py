"""The benchmark's workloads: set-up, one measured iteration, output checks.

Every workload is a closed loop with one client: an iteration starts when
the previous one has ended, and at most one child process runs at a time.
The package only sees inputs made from the seed: a cohort written by the
``simulate`` subcommand.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 42

# The documented entry point. `python -m shoulderkin.cli` would warn,
# because the package `__init__` imports `cli` before runpy executes it.
CLI_CODE = "import sys; from shoulderkin.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CODE = "import shoulderkin"
TRACED_CHILD = HERE / "traced_child.py"
CHILD_TIMEOUT_S = 170

# Grid sizes of the outputs, per session and per comparison table.
CELLS_PER_SESSION = 5 * 4 * 2  # tasks x segment kinds x placements
COMPARISON_CELLS = 5 * (6 * 2 + 1) * 4  # tasks x (6 features x 2 placements + duration) x segments
SWEEP_PAD_LEVELS = (0, 2, 4)

# The default profile's group parameters, as `write_profile` renders them.
PROFILE_TEMPLATE = """\
[cohort]
n_per_group = {n_per_group}
seed = {seed}

[patient]
submovements = 4 7
subtask_duration_s = 2.6 4
hold_duration_s = 1.6 3
pause_probability = 0.55
accel_noise_sigma = 0.02
gyro_noise_sigma = 0.6

[healthy]
submovements = 1 2
subtask_duration_s = 0.9 1.6
hold_duration_s = 1 2
pause_probability = 0.05
accel_noise_sigma = 0.02
gyro_noise_sigma = 0.6
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    return sha256(Path(path).read_bytes())


def tree_digest(directory) -> str:
    """Digest of every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """What one iteration produced: digests, operation counts, problems."""

    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Children:
    """Starts package processes one at a time and waits for each to end.

    Untraced children run the documented entry point; traced ones run
    `traced_child.py`, which dumps its spans to a file that is merged into
    the parent's tracer.
    """

    def __init__(self, work: Path, tracer: spans.Tracer | None = None):
        self.work = work
        self.tracer = tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._spans_files = 0

    def run(self, argv: list[str], parent: str | None = None) -> tuple[int, str]:
        """Run one CLI command (or only the import, for an empty argv)."""
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_CODE if argv else IMPORT_CODE, *argv]
        else:
            self._spans_files += 1
            spans_file = self.work / f"spans-{self._spans_files}.json"
            cmd = [
                sys.executable, str(TRACED_CHILD), str(spans_file),
                self.tracer.run, parent or "", *argv,
            ]
        proc = subprocess.run(
            cmd, env=self.env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        if self.tracer is not None and proc.returncode == 0:
            self.tracer.merge(spans_file)
            spans_file.unlink()
        return proc.returncode, proc.stderr.decode("utf-8", "replace").strip()

    def expect_ok(self, argv: list[str], outcome: Outcome, parent=None) -> bool:
        code, err = self.run(argv, parent)
        if code != 0:
            outcome.problems.append(f"{argv[0] if argv else 'import'} exited {code}: {err[-300:]}")
        return code == 0


def count_failures(matrix: Path, dump: Path, n_sessions: int) -> int:
    """Feature cells missing from the matrix plus untestable comparison cells."""
    rows = matrix.read_bytes().count(b"\n") - 1
    untestable = dump.read_bytes().count(b",untestable,")
    return (n_sessions * CELLS_PER_SESSION - rows) + untestable


class Workload:
    """Base class: `setup` once (repeated only to time it), then iterations.

    `iteration` is the timed part; `finish` digests and checks its outputs
    afterwards, outside the timing.
    """

    name = ""
    default_n = 20
    setup_repeats = 1

    def __init__(self, seed: int, n_per_group: int | None, work: Path, tracer=None):
        self.seed = seed
        self.n_per_group = n_per_group or self.default_n
        self.work = work
        self.tracer = tracer
        # set-up is traced whenever a tracer is given; iterations choose
        self.children = Children(work, tracer)
        self.reference = None
        if seed == REFERENCE_SEED and self.n_per_group == self.default_n:
            self.reference = load_reference()[self.name]

    @property
    def n_sessions(self) -> int:
        return 2 * self.n_per_group

    @property
    def ops_per_table(self) -> int:
        return self.n_sessions * CELLS_PER_SESSION + COMPARISON_CELLS

    def set_tracing(self, on: bool) -> None:
        self.children.tracer = self.tracer if on else None

    def simulate_argv(self, out: Path) -> list[str]:
        argv = ["simulate", "--out", str(out), "--seed", str(self.seed)]
        if self.n_per_group != 20:
            profile = self.work / "profile.ini"
            profile.write_text(
                PROFILE_TEMPLATE.format(n_per_group=self.n_per_group, seed=self.seed),
                encoding="utf-8",
            )
            argv += ["--params", str(profile)]
        return argv

    def simulate(self, cohort: Path, outcome: Outcome, parent=None) -> bool:
        return self.children.expect_ok(self.simulate_argv(cohort), outcome, parent)

    def setup(self, attempt: int) -> Outcome:
        raise NotImplementedError

    def iteration(self, index: int, parent=None) -> Outcome:
        raise NotImplementedError

    def finish(self, index: int, outcome: Outcome) -> None:
        out = self.work / f"iteration-{index}"
        if not outcome.problems:
            if (out / "cohort").is_dir():
                outcome.digests["cohort"] = tree_digest(out / "cohort")
            matrix, dump = out / "matrix.csv", out / "results" / "comparison.csv"
            outcome.digests.update(
                matrix=file_digest(matrix),
                dump=file_digest(dump),
                report=file_digest(out / "report.txt"),
            )
            outcome.failed += count_failures(matrix, dump, self.n_sessions)
            check_reference(outcome, self.reference)
        shutil.rmtree(out, ignore_errors=True)

    def cli_chain(self, cohort: Path, out: Path, outcome: Outcome, parent) -> None:
        """extract -> compare -> report on a cohort already on disk."""
        matrix, results = out / "matrix.csv", out / "results"
        out.mkdir(parents=True, exist_ok=True)
        for argv in (
            ["extract", "--cohort", str(cohort), "--out", str(matrix)],
            ["compare", str(matrix), "--out", str(results)],
            ["report", str(results / "comparison.csv"), "--out", str(out / "report.txt")],
        ):
            if not self.children.expect_ok(argv, outcome, parent):
                return


def check_reference(outcome: Outcome, reference: dict | None, prefix: str = "") -> None:
    """Compare the digests named in ``reference`` (keys without ``prefix``)."""
    if reference is None:
        return
    for key, digest in reference.items():
        got = outcome.digests.get(prefix + key)
        if got is not None and got != digest:
            outcome.problems.append(
                f"{prefix}{key} does not match the seed-{REFERENCE_SEED} reference"
            )


class Pipeline(Workload):
    """The README chain as four child processes, in a fresh directory."""

    name = "pipeline-20v20"
    setup_repeats = 3

    def setup(self, attempt: int) -> Outcome:
        # the inputs are only the seed; time what every CLI process pays first
        outcome = Outcome()
        self.children.expect_ok([], outcome)
        return outcome

    def iteration(self, index: int, parent=None) -> Outcome:
        out = self.work / f"iteration-{index}"
        outcome = Outcome(attempted=self.ops_per_table)
        if self.simulate(out / "cohort", outcome, parent):
            self.cli_chain(out / "cohort", out, outcome, parent)
        return outcome


class Reanalyse(Workload):
    """extract -> compare -> report on a x5 cohort written once in set-up."""

    name = "reanalyse-100v100"
    default_n = 100

    def setup(self, attempt: int) -> Outcome:
        self.cohort = self.work / "cohort"
        outcome = Outcome()
        if self.simulate(self.cohort, outcome):
            outcome.digests["cohort"] = tree_digest(self.cohort)
            check_reference(outcome, self.reference)
        return outcome

    def iteration(self, index: int, parent=None) -> Outcome:
        outcome = Outcome(attempted=self.ops_per_table)
        self.cli_chain(self.cohort, self.work / f"iteration-{index}", outcome, parent)
        return outcome


class Sweep(Workload):
    """SPARC pad-level sweep through the library API, in this process.

    Each pad level takes the CLI's CSV round trips (matrix, then dump), so
    the pad-4 outputs must equal the pipeline's for the same seed.
    """

    name = "sweep-20v20"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.undo = []
        if self.reference is not None:
            self.reference = dict(self.reference, pad4=load_reference()[Pipeline.name])

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        spans.uninstall(self.undo)
        self.undo = spans.install(self.tracer) if on else []

    def setup(self, attempt: int) -> Outcome:
        cohort = self.work / "cohort"
        outcome = Outcome()
        if self.tracer is None:
            import shoulderkin
        else:
            with self.tracer.span(spans.IMPORT_SPAN):
                import shoulderkin
            self.set_tracing(True)
        self.sk = shoulderkin
        if self.simulate(cohort, outcome):
            outcome.digests["cohort"] = tree_digest(cohort)
            check_reference(outcome, self.reference and self.reference["pad4"])
            self.sessions = shoulderkin.load_cohort(cohort)
        self.set_tracing(False)
        return outcome

    def iteration(self, index: int, parent=None) -> Outcome:
        sk = self.sk
        outcome = Outcome(attempted=len(SWEEP_PAD_LEVELS) * self.ops_per_table)
        out = self.work / f"iteration-{index}"
        out.mkdir()
        for pad in SWEEP_PAD_LEVELS:
            rows, failures = sk.extract_cohort(self.sessions, sk.FeatureParams(sparc_pad_level=pad))
            matrix = sk.write_matrix(rows)
            (out / "matrix.csv").write_bytes(matrix)
            table = sk.compare_cohort(sk.read_matrix(out / "matrix.csv"))
            dump = sk.write_dump(table)
            (out / "comparison.csv").write_bytes(dump)
            report = sk.render_report(sk.read_dump(out / "comparison.csv"))
            outcome.digests.update(
                {
                    f"pad{pad}.matrix": sha256(matrix),
                    f"pad{pad}.dump": sha256(dump),
                    f"pad{pad}.report": sha256(report.encode("utf-8")),
                }
            )
            outcome.failed += len(failures) + table.untestable_count()
        return outcome

    def finish(self, index: int, outcome: Outcome) -> None:
        shutil.rmtree(self.work / f"iteration-{index}", ignore_errors=True)
        if self.reference is not None:
            for pad in SWEEP_PAD_LEVELS:
                check_reference(outcome, self.reference[f"pad{pad}"], f"pad{pad}.")


WORKLOADS = {w.name: w for w in (Pipeline, Reanalyse, Sweep)}
