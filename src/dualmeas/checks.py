"""Built-in property suite behind the CLI ``--check`` flag.

A fast battery over every experiment kind: each scenario's own physics
checks must pass, plus a handful of cross-module identities. Meant as a
smoke test of an installed package; the full statistical acceptance suite
lives in the test directory.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CompositeLayout, LinearOperator, StateVector
from .dual import jump_forbidden
from .dynamics import MeasurementModel, S_LABEL, run_premeasurement
from .harness import run
from .interference import interference_operator, pointer_incompatibility
from .scenario import Scenario

SQ03, SQ07 = math.sqrt(0.3), math.sqrt(0.7)


def _scenario(experiment, **kw):
    base = dict(
        experiment=experiment,
        amplitudes=np.array([SQ03, SQ07]),
        seed=20260826,
        n_events=2000,
    )
    base.update(kw)
    return Scenario(**base)


def run_all() -> bool:
    """Run one scenario per experiment kind plus standalone identities; print each result."""
    results = []

    scenarios = [
        _scenario("premeasure"),
        _scenario("undo", amplitudes=np.array([1.0, 1.0]) / math.sqrt(2.0)),
        _scenario("two_observer", n_events=500),
        _scenario("decohere", env_atoms=4, n_times=11, n_events=500),
        _scenario("reduction_compare", amplitudes=np.array([1.0, 1.0]) / math.sqrt(2.0)),
        _scenario("perception_timing", n_events=500, n_times=101),
    ]
    for sc in scenarios:
        summary, _ = run(sc)
        for chk in summary.checks:
            results.append((f"{sc.experiment}: {chk['name']}", chk["passed"], chk["value"]))

    # Standalone identities not tied to a scenario run.
    model = MeasurementModel.calibrated()
    psi = StateVector(CompositeLayout(((S_LABEL, 2),)), np.array([SQ03, SQ07], complex))
    post = run_premeasurement(psi, model)
    forbidden, _ = jump_forbidden(_diagonal_h(post.layout), 1.0)
    results.append(("no-jump rule holds for a branch-preserving generator", forbidden, None))

    b = interference_operator(post.layout)
    norm = pointer_incompatibility(b)
    results.append(
        ("interference probe incompatible with the pointer observable", norm > 0, norm)
    )

    ok = True
    for name, passed, value in results:
        ok = ok and bool(passed)
        tag = "PASS" if passed else "FAIL"
        extra = "" if value is None else f" (value: {value})"
        print(f"[{tag}] {name}{extra}")
    return ok


def _diagonal_h(layout):
    """Branch-preserving generator: diagonal in the joint pointer basis."""
    n = layout.total_dim
    return LinearOperator(layout, np.diag(np.arange(n, dtype=complex)))
