"""Undoing a measurement: the dual model forgets, the collapse model remembers.

Because the joint dynamics stays unitary, the measurement interaction can be
rewound exactly. The observer's record is erased with it, and a repeat
measurement draws a fresh outcome with no memory of the old one. A textbook
collapse would instead leave the system in an eigenstate, so the repeated
outcome would always match. Over many events, the dual model's old/new
correlation vanishes while the collapse model's outcome persists every time.
"""

import math

import numpy as np

from dualmeas import Scenario, run

scenario = Scenario(
    experiment="reduction_compare",
    amplitudes=np.array([math.sqrt(0.3), math.sqrt(0.7)]),
    seed=42,
    n_events=10000,
)
summary, records = run(scenario)

c = summary.correlations
print(f"recovery trace distance after undo: {c['recovery_trace_distance']:.2e}")
print(f"dual model     old/new correlation: {c['dual_old_new']:+.4f}")
print(f"collapse model persistence rate:    {c['baseline_old_new']:.4f}")
print(f"interference expectation, dual:     {summary.b_values['dual']:.6f}")
print(f"interference expectation, baseline: {summary.b_values['reduction_baseline']:.6f}")
for chk in summary.checks:
    print(f"  [{'PASS' if chk['passed'] else 'FAIL'}] {chk['name']}")
