"""Two observers in sequence: agreement without collapse.

A second observer measures the same system after the first. Event by event
the two records agree, which is all either of them can check from the
inside. Yet between the two measurements the joint state is still a coherent
superposition: the interference probe has its full pure-state expectation,
so the agreement cannot be explained by an objective collapse at the first
measurement.
"""

import math

import numpy as np

from dualmeas import Scenario, run

scenario = Scenario(
    experiment="two_observer",
    amplitudes=np.array([math.sqrt(0.3), math.sqrt(0.7)]),
    seed=11,
    n_events=5000,
)
summary, records = run(scenario)

print(f"events:                 {summary.n_events}")
print(f"agreement rate:         {summary.correlations['agreement_rate']:.4f}")
print(f"interference at t1<t<t2: {summary.b_values['between_measurements']:.6f}")
print(f"pure-state value 2|a1 a2|: {2 * math.sqrt(0.3 * 0.7):.6f}")
print("first few joint records (t, perceived j):")
for eid in range(5):
    print(f"  event {eid}: {[(t, int(js[eid])) for t, js in records.steps]}")
