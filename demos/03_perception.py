"""The dual state: one definite outcome per event, no collapse anywhere.

All events share one dynamical density matrix (always unitary); each event
holds a private perception record drawn once from the pointer weights.
Sampling many events reproduces the Born frequencies; the perception-time
density shows when inside the measurement window the record fires.
"""

import math

import numpy as np

from dualmeas import DualState, MeasurementModel, event_uniforms, perception_time_pdf

model = MeasurementModel.calibrated()
amps = (math.sqrt(0.3), math.sqrt(0.7))
rho0 = model.input_state(amps).to_density()

seed, n = 7, 2000
state = DualState(rho0, n).evolve(model.hamiltonian, model.duration)
state = state.perceive(event_uniforms(seed, n)[:, 0])
counts = np.bincount(state.final_j, minlength=model.o_dim)
print("perceived-index frequencies:", np.round(counts / counts.sum(), 4))
print("Born weights:               ", [0.0, 0.3, 0.7])

# When does perception fire? The outflow rate from the ready state peaks at
# the middle of the window for the calibrated coupling.
grid = np.linspace(0.0, model.duration, 9)
pdf = perception_time_pdf(model, amps, grid)
for t, f in zip(pdf.times, pdf.density):
    print(f"  t = {t:4.2f}  density = {f:6.4f}  (analytic {model.coupling * math.sin(2 * model.coupling * t):6.4f})")
