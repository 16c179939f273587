"""Record the output-gate references at REFERENCE_SEED.

    python3 bench/record_reference.py [WORKLOAD ...]

For each workload, writes reference/<workload>.json (full size, checked when
--seed is the reference seed) and reference/<workload>-gate.json (GATE_SIZES,
checked by the gate sample of every run). Each holds the events file's
sha256 and the summary document. Re-record only when a change is meant to
alter outputs.
"""

from __future__ import annotations

import json
import sys
import time

import run


def record(workload: str, gate: bool) -> None:
    work = run.WORK / workload
    out_dir = work / "reference-out"
    scenario_path = work / "reference.yaml"
    work.mkdir(parents=True, exist_ok=True)
    sizes = run.GATE_SIZES[workload] if gate else {}
    scenario_path.write_text(run.scenario_yaml(workload, run.REFERENCE_SEED, out_dir, **sizes),
                             encoding="utf-8")
    sample = run.run_sample(scenario_path, "plain", None, time.monotonic() + run.HARD_LIMIT_S)
    if sample["errors"]:
        raise SystemExit(f"{workload}: {sample['errors']}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    ref = {"seed": run.REFERENCE_SEED, "sizes": sizes,
           "events_sha256": sample["events_sha256"], "summary": summary}
    path = run.reference_file(workload, gate)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        record(name, gate=False)
        record(name, gate=True)
