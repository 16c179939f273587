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
    tensor_compose,
    trace_distance,
)
from .dynamics import (
    EnvironmentModel,
    MeasurementModel,
    attach_environment,
    branch_weights,
    build_dephasing_hamiltonian,
    build_meas_hamiltonian,
    offdiag_suppression,
    reverse_evolution,
    run_decoherence,
    run_premeasurement,
)
from .restriction import (
    RestrictedState,
    breuer_distinguishable,
    phase_class_check,
    restricted_state,
)
from .dual import (
    DualEventState,
    DualStatisticalState,
    ReductionBaselineState,
    evolve_event,
    event_rng,
    event_uniforms,
    init_dual,
    jump_forbidden,
    perceive,
    perception_time_pdf,
    reduction_baseline,
    sample_perception_time,
    undo_dual,
)
from .interference import (
    InterferenceObservable,
    discriminate,
    interference_operator,
    pointer_incompatibility,
)
from .harness import (
    EventColumns,
    RunSummary,
    Scenario,
    ScenarioError,
    emit,
    load_scenario,
    parse_scenario,
    run,
)
