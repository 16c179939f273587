"""Environment dephasing: the pointer basis wins, coherence only hides.

Coupling the observer's pointer observable to a bath of two-level atoms
suppresses the off-diagonal branch terms by a product of cosines. The
simulation keeps the bath as one product state per pointer branch; its
overlap agrees with the same bath written out as one 2^6 state, and both
follow the closed-form law to machine precision. The interference
expectation is damped by exactly that factor. Nothing is lost irreversibly
at this scale: for a finite bath the cosines recur.
"""

import math

import numpy as np

from dualmeas import (
    EnvironmentModel,
    MeasurementModel,
    StateVector,
    attach_environment,
    build_dephasing_hamiltonian,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)

model = MeasurementModel.calibrated()
amps = (math.sqrt(0.3), math.sqrt(0.7))
psi_so = run_premeasurement(StateVector(model.s_layout(), amps), model)

rng = np.random.default_rng(3)
env = EnvironmentModel.default(n_atoms=6, o_dim=3, couplings=0.5 + rng.random(6))

# The same bath written out beside S and O: 2^6 amplitudes per S, O pair.
full = attach_environment(psi_so, env)
h = build_dephasing_hamiltonian(env, full.layout)

print("couplings:", np.round(env.couplings, 3))
print(" t     product form   2^6 state   cosine product")
times = np.linspace(0.0, 2.0, 11)
for t, (_, factor) in zip(times, run_decoherence(psi_so, env, times)):
    rows = (np.exp(-1j * h * t) * full.amplitudes).reshape(6, -1)  # row s * 3 + o: |s, O_o>
    dense = np.vdot(rows[1], rows[5]) / (amps[0] * amps[1])
    print(f"{t:4.2f}  {factor.real:+12.6f}  {dense.real:+10.6f}  {offdiag_suppression(env, t):+10.6f}")
