"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import gate
import run
import tracing

sys.path.insert(0, str(run.SRC))

TINY = {**run.GATE_SIZES, "spin_bath": {"n_events": 20, "n_atoms": 2, "n_times": 3}}


def _sample(tmp_path, workload, mode, seed=7):
    scenario = tmp_path / f"{workload}.yaml"
    scenario.write_text(run.scenario_yaml(workload, seed, tmp_path / "out", **TINY[workload]))
    sample = run.run_sample(scenario, mode, None, time.monotonic() + 120)
    assert sample["errors"] == []
    return sample


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_exercises_its_layers(tmp_path, workload):
    layers = _sample(tmp_path, workload, "spans")["layers"]
    for span in run.EXERCISES[workload]:
        assert layers[span]["calls"] >= 1, span


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_changes_the_generated_inputs(tmp_path, workload):
    text = lambda seed: run.scenario_yaml(workload, seed, tmp_path)
    assert text(1) == text(1)
    assert text(1) != text(2)


def test_untraced_path_calls_the_unwrapped_functions(tmp_path):
    assert _sample(tmp_path, "born_ensemble", "plain")["wrapped"] == []
    assert _sample(tmp_path, "born_ensemble", "spans")["wrapped"] == sorted(tracing.span_names())


def test_tracer_patches_every_importer_and_restores():
    import dualmeas.dual
    import dualmeas.harness

    original = dualmeas.dual.event_rng
    tracer = tracing.Tracer().install()
    try:
        assert dualmeas.harness.event_rng is dualmeas.dual.event_rng is not original
        dualmeas.harness.event_rng(1, 0)
    finally:
        tracer.restore()
    assert dualmeas.harness.event_rng is original and dualmeas.dual.event_rng is original
    assert tracing.wrapped_targets() == []
    assert tracer.layer_stats()["dual.event_rng"]["calls"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_gate_compares_summary_floats_within_tolerance():
    ref = {"x": 0.5, "n": 3, "checks": [{"passed": True}], "s": "a"}
    assert gate.diff_summary({"x": 0.5 + 5e-13, "n": 3, "checks": [{"passed": True}], "s": "a"}, ref) == []
    assert gate.diff_summary({"x": 0.5 + 5e-12, "n": 3, "checks": [{"passed": True}], "s": "a"}, ref)
    assert gate.diff_summary({"x": 0.5, "n": 4, "checks": [{"passed": True}], "s": "a"}, ref)
    assert gate.diff_summary({"x": 0.5, "n": 3, "checks": [{"passed": 1}], "s": "a"}, ref)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "born_ensemble",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_end_to_end_times_are_scaled_by_the_host_probe():
    sample = {"mode": "plain", "wall_s": 2.0, "setup_s": 0.5, "probe_s": 2 * run.PROBE_REF_S,
              "rss_mib": 100.0}
    series = run.end_to_end_series([sample], units=10)
    assert series == {"setup_s": [0.25], "wall_s": [1.0], "units_per_s": [10.0],
                      "peak_rss_mib": [100.0]}
