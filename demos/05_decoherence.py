"""Environment dephasing: the pointer basis wins, coherence only hides.

Coupling the observer's pointer observable to a bath of two-level atoms
suppresses the off-diagonal branch terms by a product of cosines. The
simulated overlap follows the closed-form law to machine precision, and the
interference expectation is damped by exactly that factor. Nothing is lost
irreversibly at this scale: for a finite bath the cosines recur.
"""

import math

import numpy as np

from dualmeas import (
    EnvironmentModel,
    MeasurementModel,
    StateVector,
    attach_environment,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)

model = MeasurementModel.calibrated()
amps = (math.sqrt(0.3), math.sqrt(0.7))
psi_so = run_premeasurement(StateVector(model.s_layout(), amps), model)

rng = np.random.default_rng(3)
env = EnvironmentModel.default(n_atoms=6, o_dim=3, couplings=0.5 + rng.random(6))
state = attach_environment(psi_so, env)

print("couplings:", np.round(env.couplings, 3))
print(" t     simulated   cosine product")
times = np.linspace(0.0, 2.0, 11)
for t, (_, factor) in zip(times, run_decoherence(state, env, times)):
    print(f"{t:4.2f}  {factor.real:+10.6f}  {offdiag_suppression(env, t):+10.6f}")
