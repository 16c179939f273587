"""dualmeas: dual-state quantum measurement simulator.

Evolves composite system-observer-environment states unitarily, reduces them
to observer restricted states, samples stochastic per-event perception
records, and runs the discriminating experiments (measurement, undoing,
two-observer chain, decoherence) with reproducible, seeded statistics.
"""

__version__ = "0.1.0"

from .core import (
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
    TOL_ALGEBRAIC,
    TOL_ROUNDTRIP,
    evolve_unitary,
    expectation,
    partial_trace,
    projector,
    replace,
    trace_distance,
)
from .dynamics import (
    EnvironmentModel,
    MeasurementModel,
    attach_environment,
    branch_weights,
    build_dephasing_hamiltonian,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)
from .restriction import (
    RestrictedState,
    breuer_distinguishable,
    restricted_state,
)
from .dual import (
    DualState,
    event_rng,
    event_uniforms,
    jump_forbidden,
    perception_time_pdf,
    reduction_baseline,
    sample_perception_time,
)
from .interference import (
    InterferenceObservable,
    discriminate,
    interference_operator,
    pointer_incompatibility,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .harness import RunSummary, run
from .writer import emit
