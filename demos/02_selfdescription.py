"""Observer selfdescription: why the observer cannot see the superposition.

The observer's own account of the world is its restricted state, the partial
trace of the joint state onto the observer subsystem. For a coherent
post-measurement state and for the matched mixture of definite outcomes that
restriction is the same matrix, so no measurement available to the observer
distinguishes the two. An individual event's restriction (one definite
pointer state) is far from both.
"""

import math

import numpy as np

from dualmeas import (
    DensityMatrix,
    MeasurementModel,
    StateVector,
    breuer_distinguishable,
    restricted_state,
    run_premeasurement,
)
from dualmeas.dynamics import O_LABEL, S_LABEL

model = MeasurementModel.calibrated()
layout = model.so_layout()
amps = (math.sqrt(0.3), math.sqrt(0.7))

psi = run_premeasurement(StateVector(model.s_layout(), amps), model)
rho_pure = psi.to_density()
branchs = [StateVector.basis(layout, {S_LABEL: i, O_LABEL: i + 1}) for i in range(2)]
rho_mixed = DensityMatrix.mixture((0.3, 0.7), branchs)

r_pure = restricted_state(rho_pure, source_kind="pure_ensemble")
r_mixed = restricted_state(rho_mixed, source_kind="mixed_ensemble")
verdict, dist = breuer_distinguishable(r_pure, r_mixed)
print("restricted state (pure ensemble):")
print(np.round(r_pure.o_density.entries.real, 6))
print(f"pure vs mixed trace distance: {dist:.2e} -> distinguishable: {verdict}")

r_event = restricted_state(branchs[1].to_density(), source_kind="individual_event")
verdict, dist = breuer_distinguishable(r_event, r_pure)
print(f"single event vs ensemble:     {dist:.6f} -> distinguishable: {verdict}")
