"""Observer-side restricted states and the indistinguishability test.

The observer's self-description of the composite state is its reduction onto
the observer subsystem. Two composite states whose restrictions coincide are
indistinguishable "from inside": this module computes the restrictions and
the trace-distance verdict. ``premeasured_restrictions`` gives both
restrictions of a premeasured state and its matched mixture, and a bound on
their distance, in closed form. Pointer weights, of a restriction or of any
composite state, are ``dynamics.branch_weights``.
"""

from __future__ import annotations

import numpy as np

from .core import DensityMatrix, InvariantError, LayoutError, Record, partial_trace, trace_distance
from .dynamics import O_LABEL

# Default operational threshold for "these restrictions coincide".
DISTINGUISH_TOL = 1e-9

SOURCE_KINDS = ("pure_ensemble", "mixed_ensemble", "individual_event")


class RestrictedState(Record):
    """Observer reduction tagged with the provenance of the composite state.

    Identical matrices can arise from a pure ensemble, a matched mixture, or
    a single event; the tag keeps that provenance explicit because the three
    readings are interpreted differently even when the numbers agree.
    """

    def __init__(self, o_density: DensityMatrix, source_kind: str):
        vars(self).update(o_density=o_density, source_kind=source_kind)
        if source_kind not in SOURCE_KINDS:
            raise InvariantError(f"source_kind must be one of {SOURCE_KINDS}")
        if source_kind == "individual_event":
            m = o_density.entries
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


def premeasured_restrictions(psi, amplitudes):
    """O's restrictions of the premeasured state *psi* and of its matched
    mixture sum_s |a_s|^2 |O_{s+1}><O_{s+1}|, and a bound on their trace
    distance, from the two branch entries of each row of *psi*.

    *psi* is the S (x) O state as an (s_dim, o_dim) array, as
    ``MeasurementModel.rotate`` leaves it: row s holds weight only at its
    ready entry (s, 0) and its pointer entry (s, s + 1). A row with weight
    anywhere else raises InvariantError. Returns ``(pure, mixed, distance)``.
    ``pure`` is diagonal but for its ready row and column: |psi[s, o]|^2 on
    the diagonal, psi[s, 0] conj(psi[s, s + 1]) at (0, s + 1). ``mixed`` is
    diag(0, |a_1|^2, ...). Their difference is the sum over s of the blocks
    D_s = [[alpha, beta], [conj(beta), gamma]] on (O_0, O_{s+1}), so by the
    triangle inequality ``distance`` = (1/2) sum_s ||D_s||_1 is at least the
    exact trace distance, and needs no o x o eigensolve.
    """
    psi = np.asarray(psi, dtype=complex)
    s_dim, o_dim = psi.shape
    s = np.arange(s_dim)
    ready, pointer = psi[:, 0], psi[s, s + 1]
    if np.count_nonzero(psi) != np.count_nonzero(ready) + np.count_nonzero(pointer):
        raise InvariantError("a row of the premeasured state holds weight off its ready and pointer entries")
    alpha, on_pointer = (ready * ready.conj()).real, (pointer * pointer.conj()).real
    beta = ready * pointer.conj()
    weights = np.abs(amplitudes) ** 2
    pure = np.zeros((o_dim, o_dim), dtype=complex)
    pure[0, 0] = alpha.sum()
    pure[s + 1, s + 1] = on_pointer
    pure[0, s + 1], pure[s + 1, 0] = beta, beta.conj()
    mixed = np.zeros((o_dim, o_dim), dtype=complex)
    mixed[s + 1, s + 1] = weights
    # ||D_s||_1 = |tr D_s| when its eigenvalues share a sign, else their
    # spread; |beta|^2 = alpha |psi[s, s + 1]|^2.
    gamma = on_pointer - weights
    norms = np.maximum(np.abs(alpha + gamma), np.sqrt((alpha - gamma) ** 2 + 4.0 * alpha * on_pointer))
    return pure, mixed, 0.5 * float(norms.sum())
