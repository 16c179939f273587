"""Golden outputs: every experiment reproduces its recorded files.

``golden/references.json`` holds, per case, the scenario, the summary
document and the sha256 of ``events.json`` and ``events.csv``. A run must
reproduce both events files byte for byte, every summary float within 1e-12
(relative above magnitude 1), and every other summary value exactly.

The references were recorded before the pointer weights and the per-event
sampling loop were each reduced to one shared implementation, and before the
dephasing generator became a phase vector; neither may change any output.
The ``perception_timing-odim5`` reference (two pointer states that carry no
branch) was recorded before the perception-time density was evaluated a
block of times at a time, which may not change any output either.
The ``complex`` and ``sdim3`` references of ``decohere`` were re-recorded
when its "matches the cosine product" check stopped being phase-blind: the
simulated factor now divides out the relative phase of the branch amplitudes
(events unchanged). Those of ``two_observer`` were re-recorded when its
"interference expectation nonzero" check started reading the phase-free
coherence 2|rho_12| instead of <B> = 2 Re(rho_12) (events unchanged).

The ``degenerate`` references (amplitudes ``[1, 0]``) pin a run with one
empty branch: the frequency check's p in {0, 1} branch and the ``null``
correlation of ``undo``. ``decohere-degenerate`` was re-recorded when its
"matches the cosine product" check stopped comparing the cosine product with
a coherence that does not exist: with branch 2 empty the check's value is 0.0
and it passes (events unchanged).

The events must not depend on the host's SIMD level either: numpy and
OpenBLAS pick their kernels at run time, so the cases are rerun in child
processes with lower levels forced through ``NPY_DISABLE_CPU_FEATURES`` and
``OPENBLAS_CORETYPE``, and every events file must keep its recorded sha256.

``PYTHONPATH=src python3 tests/test_golden.py NAME ...`` re-records only the
named cases and leaves every other entry byte-identical; with no names it
re-records every case.
"""

import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from dualmeas.harness import EXPERIMENTS, run
from dualmeas.scenario import parse_scenario
from dualmeas.writer import emit

REFERENCES = Path(__file__).parent / "golden" / "references.json"
SEED = 20260826
FLOAT_TOL = 1e-12

AMPLITUDES = {
    "real": [math.sqrt(0.3), math.sqrt(0.7)],
    "complex": [math.sqrt(0.3), [0.0, math.sqrt(0.7)]],
    "sdim3": [math.sqrt(0.2), [0.0, math.sqrt(0.3)], -math.sqrt(0.5)],
    "degenerate": [1, 0],
}
# Small sizes so the whole file runs in a few seconds; 51 grid points is
# about the fewest that keep the perception-time integral within 1e-6 of 1.
SIZES = {
    "decohere": {"env": {"n_atoms": 3}, "n_times": 5},
    "perception_timing": {"n_times": 51},
}


def _cases() -> dict:
    cases = {}
    for amp_name, amps in AMPLITUDES.items():
        for experiment in EXPERIMENTS:
            doc = {"experiment": experiment, "amplitudes": amps, "seed": SEED, "n_events": 500}
            doc.update(SIZES.get(experiment, {}))
            cases[f"{experiment}-{amp_name}"] = doc
        cases[f"premeasure_sample-{amp_name}"] = {
            "experiment": "premeasure", "amplitudes": amps, "seed": SEED,
            "n_events": 500, "perception_mode": "sample",
        }
    # Enough events to span several blocks of the events writer and of a
    # run's sampling loop (2**14 events each), with constant and varying times.
    for experiment in ("reduction_compare", "perception_timing"):
        doc = {"experiment": experiment, "amplitudes": AMPLITUDES["real"], "seed": SEED,
               "n_events": 40000}
        doc.update(SIZES.get(experiment, {}))
        cases[f"{experiment}_blocks-real"] = doc
    # Two pointer states that carry no branch still enter the outflow sum.
    cases["perception_timing-odim5"] = {
        "experiment": "perception_timing", "amplitudes": AMPLITUDES["real"], "seed": SEED,
        "n_events": 500, "o_dim": 5, **SIZES["perception_timing"],
    }
    return cases


CASES = _cases()


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _outputs(doc: dict, out_dir: Path) -> dict:
    """Run one case (JSON is valid YAML) and emit it in both formats."""
    summary, records = run(parse_scenario(json.dumps(doc)))
    summary_path, events_json = emit(summary, records, out_dir / "json", fmt="json")
    _, events_csv = emit(summary, records, out_dir / "csv", fmt="csv")
    return {
        "scenario": doc,
        "summary": json.loads(Path(summary_path).read_text(encoding="utf-8")),
        "events_json_sha256": _sha256(events_json),
        "events_csv_sha256": _sha256(events_csv),
    }


def _diff(got, want, where="summary") -> list:
    """Floats agree within FLOAT_TOL (relative above magnitude 1); every
    other value, and every int, exactly."""
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)) or got == want:
            return []
        return [f"{where}: {got!r} differs from {want!r} beyond {FLOAT_TOL}"]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in _diff(g, w, f"{where}[{i}]")]
    if isinstance(want, dict) and isinstance(got, dict) and set(got) == set(want):
        return [e for k in want for e in _diff(got[k], want[k], f"{where}.{k}")]
    if type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def test_references_cover_every_case(references):
    assert set(references) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(references, name, tmp_path):
    want = references[name]
    got = _outputs(CASES[name], tmp_path)
    assert got["scenario"] == want["scenario"]
    assert got["events_json_sha256"] == want["events_json_sha256"], "events.json bytes differ"
    assert got["events_csv_sha256"] == want["events_csv_sha256"], "events.csv bytes differ"
    assert _diff(got["summary"], want["summary"]) == []


def test_diff_tolerates_only_float_rounding():
    assert _diff(1.0, 1.0 + 5e-13) == []
    assert _diff(3.0e6, 3.0e6 * (1 + 5e-13)) == []
    assert _diff(0.5, 0.5 + 1e-11) != []
    assert _diff(1, 1.0) != []
    assert _diff(True, 1) != []
    assert _diff(None, None) == []
    assert _diff([1.0], [1.0, 2.0]) != []


def dispatch_level() -> str:
    """The SIMD level numpy dispatches to in this process and the core
    OpenBLAS runs, as far as either can be read; elsewhere the host's own."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    # numpy 2 names the x86-64 levels; numpy 1 only their features.
    levels = (("X86_V4", "X86_V3", "X86_V2") if "X86_V2" in __cpu_features__
              else ("AVX512_SKX", "AVX2", "SSE42"))
    level = next((f for f in levels if __cpu_features__.get(f)), "the host's own")
    core = "the host's own"
    maps = Path("/proc/self/maps")
    libs = {line.split()[-1] for line in maps.read_text().splitlines()
            if "openblas" in line} if maps.exists() else set()
    for lib in sorted(libs):
        for symbol in ("openblas_get_corename", "openblas_get_corename64_",
                       "scipy_openblas_get_corename64_"):
            corename = getattr(ctypes.CDLL(lib), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                core = corename().decode()
    return f"numpy {level}, OpenBLAS {core}"


# Each child's environment differs from the test's only by these settings.
_LOW_NUMPY = "X86_V4 AVX512_ICL AVX512_SPR"
DISPATCH = {
    "numpy X86_V3": {"NPY_DISABLE_CPU_FEATURES": _LOW_NUMPY},
    "numpy X86_V2": {"NPY_DISABLE_CPU_FEATURES": _LOW_NUMPY + " X86_V3"},
    "OpenBLAS Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}
_CHILD = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {tests!r})
from test_golden import CASES, _outputs, dispatch_level
with tempfile.TemporaryDirectory() as tmp:
    outs = {{name: _outputs(doc, Path(tmp) / name) for name, doc in CASES.items()}}
print(json.dumps({{"level": dispatch_level(), "events": {{
    name: [o["events_json_sha256"], o["events_csv_sha256"]] for name, o in outs.items()}}}}))
"""


def test_events_do_not_depend_on_cpu_dispatch(references):
    # The three children run at once; each reruns every case.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), os.environ.get("PYTHONPATH")]))
    children = {
        name: subprocess.Popen([sys.executable, "-c", _CHILD.format(tests=str(here))],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONPATH": path, **settings})
        for name, settings in DISPATCH.items()
    }
    want = {name: [ref["events_json_sha256"], ref["events_csv_sha256"]] for name, ref in references.items()}
    for name, child in children.items():
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        got = json.loads(out.splitlines()[-1])
        print(f"{name} child ran at {got['level']}")
        differ = sorted(case for case in want if got["events"].get(case) != want[case])
        assert differ == [], f"{name}: events of {differ} differ from the references"


def record(names=()) -> None:
    """Re-record the named references (every reference when none is named)
    from the current code; the other entries keep their recorded values."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}; have {', '.join(sorted(CASES))}")
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) if names else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CASES:
            refs[name] = _outputs(CASES[name], Path(tmp) / name)
    REFERENCES.parent.mkdir(exist_ok=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(names or CASES)} case(s) to {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
