"""Premeasurement walkthrough: entangling a two-level system with its observer.

The system starts in a superposition, the observer in its ready state. The
calibrated interaction transfers each system branch onto the matching pointer
state, so the branch weights afterwards reproduce the Born probabilities
without any collapse having happened.
"""

import math

import numpy as np

from dualmeas import (
    MeasurementModel,
    StateVector,
    branch_weights,
    discriminate,
    interference_operator,
    run_premeasurement,
)

model = MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)
amps = (math.sqrt(0.3), math.sqrt(0.7))
psi_s = StateVector(model.s_layout(), amps)

psi = run_premeasurement(psi_s, model)
w = branch_weights(psi)
print("branch weights after the interaction:", np.round(w, 6))
print("expected |a_i|^2:                    ", [0.0, 0.3, 0.7])

# The joint state is still pure: the coherence probe sees the off-diagonal
# term that any mixture of outcomes would lack.
b = interference_operator(psi.layout)
print(f"interference expectation: {discriminate(psi.to_density(), b):.6f}")
print(f"2*a1*a2 for comparison:   {2 * amps[0] * amps[1]:.6f}")
