"""Self-tests of the benchmark, on tiny cohorts (n_per_group=2).

    python3 -m pytest perfbench

They run the real workloads through ``run.py`` and take about two minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from speed import SpeedProbes  # noqa: E402
import workloads  # noqa: E402

# At n_per_group=2 some seeds leave a comparison cell untestable (zero
# variance in a group of two) and the run rightly fails; these two do not,
# and seed 7 does.
SEED, OTHER_SEED, UNTESTABLE_SEED = 2, 5, 7
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int = SEED, trace: int = 0, root: Path = HERE.parent):
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--n-per-group", "2",
        ],
        capture_output=True, text=True, timeout=600, cwd=root,
    )
    return proc


def parse(proc):
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("# detail "))[9:])
    return json.loads(lines[-1]), detail


@pytest.fixture(scope="module")
def untraced():
    return {name: parse(bench(name)) for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: parse(bench(name, trace=1)) for name in workloads.WORKLOADS}


def test_benchmark_json_lists_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    layer_names = [spans.time_metric(n) for n in run.PER_LAYER_TIMES]
    layer_names += list(spans.COUNTER_NAMES) + ["trace.overhead_frac"]
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(layer_names)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_prints_with_unit(untraced, name):
    result, detail = untraced[name]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(result["metrics"][k]["value"] > 0 for k in expected)
    assert set(detail["samples"]) == set(expected)
    assert detail["ops_failed_frac"] == 0
    assert detail["record"]["n_per_group"] == 2 and detail["record"]["seed"] == SEED
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "src_sha256"):
        assert detail["record"][key]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_per_layer_metric_prints_with_unit(traced, name):
    result, _ = traced[name]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = result["metrics"]
    assert metrics["features.cells"]["value"] == metrics["model.slice_calls"]["value"] > 0
    assert metrics["features.cells_failed"]["value"] == metrics["stats.untestable"]["value"] == 0


def test_two_traced_runs_give_identical_counts(traced):
    for name in workloads.WORKLOADS:
        again, _ = parse(bench(name, trace=1))
        for key in spans.COUNTER_NAMES:
            assert again["metrics"][key] == traced[name][0]["metrics"][key], (name, key)


def test_sweep_pad4_equals_pipeline_outputs(untraced):
    pipeline = untraced["pipeline-20v20"][1]["digests"]["iteration"]
    sweep = untraced["sweep-20v20"][1]["digests"]
    assert sweep["setup"]["cohort"] == pipeline["cohort"]
    for key in ("matrix", "dump", "report"):
        assert sweep["iteration"][f"pad4.{key}"] == pipeline[key]
    assert sweep["iteration"]["pad0.matrix"] != pipeline["matrix"]


def test_changed_seed_changes_inputs(tmp_path):
    digests = []
    for seed in (SEED, OTHER_SEED):
        workload = workloads.Pipeline(seed, 2, tmp_path)
        outcome = workloads.Outcome()
        assert workload.simulate(tmp_path / f"cohort-{seed}", outcome), outcome.problems
        digests.append(workloads.tree_digest(tmp_path / f"cohort-{seed}"))
    assert digests[0] != digests[1]


def test_corrupted_output_fails_the_check(tmp_path):
    workload = workloads.Reanalyse(SEED, 2, tmp_path)
    clean_iteration = workload.iteration

    def corrupting_iteration(index, parent=None):
        outcome = clean_iteration(index, parent)
        matrix = tmp_path / f"iteration-{index}" / "matrix.csv"
        data = bytearray(matrix.read_bytes())
        data[-2] ^= 1  # last digit of the last value
        matrix.write_bytes(bytes(data))
        return outcome

    probes = SpeedProbes(tmp_path)
    try:
        bench_run = run.Run(workload, trace=False, probes=probes)
        bench_run.setup()
        bench_run.iterate(0, traced=False)
        assert not bench_run.problems
        workload.iteration = corrupting_iteration
        bench_run.iterate(1, traced=False)
    finally:
        probes.close()
    assert bench_run.problems == ["iteration 1: outputs differ from the first iteration's"]
    assert bench_run.failed == workload.ops_per_table


def test_reference_digest_mismatch_is_a_problem():
    outcome = workloads.Outcome(digests={"matrix": "0" * 64, "dump": "1" * 64})
    workloads.check_reference(outcome, {"matrix": "0" * 64, "dump": "2" * 64, "cohort": "3" * 64})
    assert outcome.problems == ["dump does not match the seed-42 reference"]


def test_failing_program_output_exits_nonzero():
    proc = bench("pipeline-20v20", seed=UNTESTABLE_SEED)
    result, detail = parse(proc)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any("compare exited 5" in p for p in detail["problems"])


def test_checkout_without_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep-20v20", root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_profile_template_is_the_default_profile():
    sys.path.insert(0, str(workloads.SRC))
    from shoulderkin import default_profile, write_profile

    for n in (2, 20, 100):
        text = workloads.PROFILE_TEMPLATE.format(n_per_group=n, seed=9)
        assert text.encode("utf-8") == write_profile(default_profile(n_per_group=n, seed=9))


def test_self_time_subtracts_direct_children():
    spans_ = [
        ("a", None, "outer", 0.0, 10.0, "r"),
        ("b", "a", "inner", 1.0, 4.0, "r"),
        ("c", "b", "leaf", 2.0, 3.0, "r"),
        ("d", "a", "inner", 5.0, 6.0, "r"),
    ]
    totals = spans.self_times(spans_)["r"]
    assert totals == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_speed_probes_measure_and_stop(tmp_path):
    probes = SpeedProbes(tmp_path)
    try:
        start = time.perf_counter()
        time.sleep(0.5)
        factor = probes.factor(start, time.perf_counter())
    finally:
        probes.close()
    assert 0 < factor < 100
    assert all(proc.poll() is not None for proc in probes.procs)
    with pytest.raises(RuntimeError):
        probes.factor(0.0, 0.001)
