"""The benchmark's contract with ``dualmeas.harness``.

``bench/worker.py`` calls ``harness.parse_scenario``, ``harness.run`` and
``harness.emit``, and ``bench/tracing.py`` times them as the ``harness``
layer; its self-test reaches ``harness.event_rng``. Those names stay on
``harness`` although only ``run`` is defined there, and the tier-1 suite
guards them, since it does not collect ``bench/test_bench.py``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from dualmeas import dual, harness, scenario, writer

ROOT = Path(__file__).resolve().parents[1]
HOMES = {"parse_scenario": scenario, "run": harness, "emit": writer, "event_rng": dual}
TINY = """
experiment: premeasure
amplitudes: [0.5477225575051661, 0.8366600265340756]
seed: 7
n_events: 20
"""


@pytest.mark.parametrize("name", HOMES)
def test_harness_exposes_the_defining_modules_objects(name):
    home = HOMES[name]
    assert getattr(harness, name) is getattr(home, name)
    assert getattr(harness, name).__module__ == home.__name__


def test_importing_harness_loads_the_scenario_and_writer_modules():
    # The worker's set-up imports dualmeas.harness, so every module is
    # compiled before the timed run.
    probe = "import sys, dualmeas.harness\nprint(*sorted(m for m in sys.modules if m.startswith('dualmeas.')))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert {"dualmeas.harness", "dualmeas.scenario", "dualmeas.writer"} <= set(proc.stdout.split())


def test_tracer_records_the_harness_layer(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().install()
    try:  # as bench/worker.py calls them
        summary, records = harness.run(harness.parse_scenario(TINY))
        harness.emit(summary, records, tmp_path)
    finally:
        tracer.restore()
    assert tracing.wrapped_targets() == []
    stats = tracer.layer_stats()
    for name in ("parse_scenario", "run", "emit"):
        assert stats[f"harness.{name}"]["calls"] >= 1, name
