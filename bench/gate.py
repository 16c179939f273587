"""Output gate: a sample passes only when its outputs are right.

Every summary check must report ``passed: true``. At the reference seed the
run must also reproduce the outputs recorded in ``reference/``: the events
file byte for byte (sha256) and every summary float within 1e-12.
"""

from __future__ import annotations

import hashlib
import json
import math

FLOAT_TOL = 1e-12


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def diff_summary(got, want, where="summary") -> list[str]:
    """Mismatches between two summary documents; floats agree within
    FLOAT_TOL (relative to the reference above magnitude 1), everything else
    exactly."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{where}: {got} != {want}"]
        if math.isfinite(want) and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)):
            return []
        return [] if got == want else [f"{where}: {got!r} differs from {want!r} beyond {FLOAT_TOL}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: list shape differs"]
        return [e for i, (g, w) in enumerate(zip(got, want)) for e in diff_summary(g, w, f"{where}[{i}]")]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [e for k in want for e in diff_summary(got[k], want[k], f"{where}.{k}")]
    return [f"{where}: unexpected reference type {type(want).__name__}"]


def check_outputs(summary_path, events_path, reference_path=None):
    """Returns ``(events_sha256, errors)`` for one run's emitted files."""
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    errors = [f"check failed: {c['name']} (value {c['value']})"
              for c in summary["checks"] if c["passed"] is not True]
    digest = sha256_file(events_path)
    if reference_path is not None:
        with open(reference_path, encoding="utf-8") as fh:
            ref = json.load(fh)
        if digest != ref["events_sha256"]:
            errors.append("events file differs from the reference bytes")
        errors += diff_summary(summary, ref["summary"])
    return digest, errors
