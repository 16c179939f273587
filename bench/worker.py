"""One benchmark sample in a fresh interpreter: set up, run, emit, check.

    python3 bench/worker.py SCENARIO_YAML MODE [REFERENCE_JSON]

MODE is ``plain`` (untraced), ``spans`` (per-layer wrappers installed) or
``alloc`` (tracemalloc on around run + emit). The package must be importable
(``PYTHONPATH=src``). Prints one JSON object on the last line of stdout; the
parent turns ``setup_done`` (CLOCK_MONOTONIC, shared by all processes) into
the set-up time since it spawned this interpreter.
"""

import time
import sys


def main(argv) -> dict:
    scenario_path, mode = argv[1], argv[2]
    reference_path = argv[3] if len(argv) > 3 else None

    import dualmeas.harness as harness

    tracer = None
    if mode == "spans":
        from tracing import Tracer

        tracer = Tracer().install()
    with open(scenario_path, encoding="utf-8") as fh:
        scenario = harness.parse_scenario(fh.read())
    setup_done = time.monotonic()

    import os
    import resource

    from tracing import wrapped_targets

    wrapped = wrapped_targets()
    if mode == "alloc":
        import tracemalloc

        tracemalloc.start()
    t0 = time.perf_counter()
    summary, records = harness.run(scenario)
    paths = harness.emit(summary, records, scenario.out_path, fmt=scenario.out_format)
    wall_s = time.perf_counter() - t0
    out = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrapped": wrapped,
    }
    if mode == "alloc":
        out["peak_alloc_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.layer_stats()
        out["layers"]["core.embed"]["bytes"] = tracer.result_bytes["core.embed"]
        tracer.write_spans(os.path.join(scenario.out_path, "spans.tsv"))

    from gate import check_outputs

    out["emit_bytes"] = sum(os.path.getsize(p) for p in paths)
    out["events_sha256"], out["errors"] = check_outputs(paths[0], paths[1], reference_path)
    out["versions"] = _versions()
    return out


def _versions() -> dict:
    import platform

    import numpy
    import scipy
    import yaml

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


if __name__ == "__main__":
    try:
        result = main(sys.argv)
    except Exception as e:  # reported to the parent as a failed sample
        import traceback

        traceback.print_exc()
        result = {"errors": [f"{type(e).__name__}: {e}"]}
    import json

    print(json.dumps(result))
    sys.exit(1 if result["errors"] else 0)
