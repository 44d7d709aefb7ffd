"""Spans and exact counters recorded around the package's public functions.

The package itself is never edited: `install` rebinds every attribute of
every loaded ``shoulderkin`` module that refers to a wrapped function, so
re-exports and ``from .x import y`` copies are traced too, and `uninstall`
puts the originals back. Spans stay in memory until the run ends.

This module imports only the standard library, so importing it before the
package does not change what the ``import`` span measures.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function, span name). Several functions may share a span name;
# the layer's self time is the sum over all of them.
WRAPPED = (
    ("cli", "main", "cli.self"),
    ("synth", "generate_cohort", "synth"),
    ("synth", "generate_session", "synth"),
    ("ingest", "write_recording", "ingest.write"),
    ("ingest", "write_labels", "ingest.write"),
    ("ingest", "write_session_manifest", "ingest.write"),
    ("ingest", "parse_recording", "ingest.read"),
    ("ingest", "parse_labels", "ingest.read"),
    ("ingest", "parse_session_manifest", "ingest.read"),
    ("ingest", "load_cohort", "ingest.load"),
    ("ingest", "load_session", "ingest.load"),
    ("model", "assemble_session", "model.assemble"),
    ("model", "slice_segment", "model.slice"),
    ("dsp", "euclidean_norm", "dsp.norm"),
    ("dsp", "derivative", "dsp.derivative"),
    ("dsp", "magnitude_spectrum", "dsp.spectrum"),
    ("features", "extract_cohort", "features.extract"),
    ("features", "extract_all", "features.extract"),
    ("features", "mean_crossing_count", "features.nmcp_a"),
    ("features", "peak_count", "features.np_a"),
    ("features", "spectral_arc_length", "features.sparc"),
    ("features", "log_dimensionless_jerk", "features.ldlj_a"),
    ("features", "angular_velocity_range", "features.rav"),
    ("features", "power_index", "features.pi"),
    ("features", "write_matrix", "features.matrix_write"),
    ("features", "read_matrix", "features.matrix_read"),
    ("stats", "compare_cohort", "stats.compare"),
    ("report", "write_dump", "report.dump_write"),
    ("report", "read_dump", "report.dump_read"),
    ("report", "render_report", "report.render"),
    ("report", "render_task_table", "report.render"),
)

# Span names that are not wrapped functions but timed blocks.
IMPORT_SPAN = "import"
ITERATION_SPAN = "iteration"


def _count_write(counts, args, result):
    counts["ingest.write_bytes"] += len(result)


def _count_read(counts, args, result):
    counts["ingest.read_bytes"] += os.path.getsize(args[0])


def _count_recording(counts, args, result):
    _count_read(counts, args, result)
    counts["ingest.read_rows"] += result.n_samples


def _count_spectrum(counts, args, result):
    # rfft of n points (n a power of two) gives n/2 + 1 bins
    counts["dsp.fft_points"] += 2 * (len(result.freqs_hz) - 1)


def _count_compare(counts, args, result):
    counts["stats.cells"] += len(result.cells)
    counts["stats.untestable"] += result.untestable_count()


def _count_one(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


# Counters run after the span closes, so their cost is in no span. A call
# that raises is counted only under FAILURE_COUNTERS.
COUNTERS = {
    "generate_session": _count_one("synth.sessions"),
    "write_recording": _count_write,
    "write_labels": _count_write,
    "write_session_manifest": _count_write,
    "parse_recording": _count_recording,
    "parse_labels": _count_read,
    "parse_session_manifest": _count_read,
    "slice_segment": _count_one("model.slice_calls"),
    "magnitude_spectrum": _count_spectrum,
    "extract_all": _count_one("features.cells"),
    "compare_cohort": _count_compare,
}
FAILURE_COUNTERS = {"extract_all": ("features.cells", "features.cells_failed")}
COUNTER_NAMES = (
    "synth.sessions",
    "ingest.write_bytes",
    "ingest.read_bytes",
    "ingest.read_rows",
    "model.slice_calls",
    "dsp.fft_points",
    "features.cells",
    "features.cells_failed",
    "stats.cells",
    "stats.untestable",
)


def time_metric(span_name: str) -> str:
    """Per-layer metric name of a span: ``synth`` -> ``synth.s``,
    ``ingest.read`` -> ``ingest.read_s``."""
    return span_name + ("_s" if "." in span_name else ".s")


class Tracer:
    """Spans and counters of one process, tagged with the current run id.

    A span is ``(id, parent, name, start, end, run)``. Inside the process
    ids are list indices; `all_spans` qualifies them as ``"<pid>.<index>"``
    so spans merged from child processes never clash. Times come from
    ``time.perf_counter``, the system-wide monotonic clock on Linux, so a
    child's spans nest inside the parent's iteration span.
    """

    def __init__(self, run: str = "setup", parent: str | None = None):
        self.run = run
        self.spans: list[tuple | None] = []
        self.merged: list[tuple] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int | str | None] = [parent]
        self._pid = os.getpid()

    def qualified(self, index: int) -> str:
        return f"{self._pid}.{index}"

    @contextmanager
    def span(self, name: str):
        """Time a block; yields the span's qualified id for child processes."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield self.qualified(index)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (index, parent, name, start, end, self.run)

    def wrap(self, fn, name: str, counter=None, failure_keys=()):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # the body of `span`, inlined: this runs once per feature call
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                for key in failure_keys:
                    self.counts[self.run][key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (index, parent, name, start, end, self.run)
            if counter is not None:
                counter(self.counts[self.run], args, result)
            return result

        return traced

    def all_spans(self) -> list[tuple]:
        """This process's spans with qualified ids, then the merged ones."""
        own = [
            (self.qualified(i), parent if not isinstance(parent, int) else self.qualified(parent),
             name, start, end, run)
            for i, parent, name, start, end, run in self.spans
        ]
        return own + self.merged

    def merge(self, path) -> None:
        """Add the spans and counts a child process dumped to ``path``."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.merged.extend(tuple(span) for span in data["spans"])
        for run, counts in data["counts"].items():
            for key, value in counts.items():
                self.counts[run][key] += value

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.all_spans(), "counts": self.counts}, fh)


def install(tracer: Tracer, package: str = "shoulderkin") -> list[tuple]:
    """Wrap every function in WRAPPED wherever the package binds it.

    Returns the undo list for `uninstall`.
    """
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]
    undo = []
    for module_name, fn_name, span_name in WRAPPED:
        original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
        wrapper = tracer.wrap(
            original, span_name, COUNTERS.get(fn_name), FAILURE_COUNTERS.get(fn_name, ())
        )
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def self_times(spans) -> dict[str, dict[str, float]]:
    """Self time per run id and span name.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential, so direct children never overlap.
    """
    covered: dict[str, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _run in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, _parent, name, start, end, run in spans:
        totals[run][name] += (end - start) - covered[sid]
    return totals
