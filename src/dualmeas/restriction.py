"""Observer-side restricted states and the indistinguishability test.

The observer's self-description of the composite state is its reduction onto
the observer subsystem. Two composite states whose restrictions coincide are
indistinguishable "from inside": this module computes the restrictions and
the trace-distance verdict. Pointer weights, of a restriction or of any
composite state, are ``dynamics.branch_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, InvariantError, LayoutError, partial_trace, trace_distance
from .dynamics import O_LABEL

# Default operational threshold for "these restrictions coincide".
DISTINGUISH_TOL = 1e-9

SOURCE_KINDS = ("pure_ensemble", "mixed_ensemble", "individual_event")


@dataclass(frozen=True)
class RestrictedState:
    """Observer reduction tagged with the provenance of the composite state.

    Identical matrices can arise from a pure ensemble, a matched mixture, or
    a single event; the tag keeps that provenance explicit because the three
    readings are interpreted differently even when the numbers agree.
    """

    o_density: DensityMatrix
    source_kind: str

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise InvariantError(f"source_kind must be one of {SOURCE_KINDS}")
        if self.source_kind == "individual_event":
            m = self.o_density.entries
            diag = np.real(np.diag(m))
            j = int(np.argmax(diag))
            target = np.zeros_like(m)
            target[j, j] = 1.0
            if np.max(np.abs(m - target)) > 1e-12:
                raise InvariantError(
                    "individual_event restriction must be a rank-1 pointer projector"
                )

    @property
    def dim(self) -> int:
        return self.o_density.layout.total_dim


def restricted_state(state, o_label=O_LABEL, source_kind="pure_ensemble") -> RestrictedState:
    """Partial trace of a StateVector or DensityMatrix over all but the observer."""
    reduced = partial_trace(state, {o_label})
    return RestrictedState(o_density=reduced, source_kind=source_kind)


def breuer_distinguishable(a: RestrictedState, b: RestrictedState, tol=DISTINGUISH_TOL):
    """Trace-distance verdict on whether the observer can tell a from b.

    Returns ``(verdict, distance)``; a False verdict means the two composite
    states look identical from inside the observer.
    """
    if a.dim != b.dim:
        raise LayoutError(f"observer dimensions differ: {a.dim} vs {b.dim}")
    d = trace_distance(a.o_density, b.o_density)
    return d > tol, d

