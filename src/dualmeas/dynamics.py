"""Measurement and dephasing dynamics for the composite system.

Builds the system-observer coupling that copies the measured eigenstate into
the observer pointer basis (exact transfer at coupling * duration = pi/2),
the observer-environment dephasing Hamiltonian that suppresses pointer
coherences, and exact unitary reversal used by the undoing experiment.

Label conventions: the measured system is "S", the observer "O" (a second
observer is "O2"), environment atoms are "E0", "E1", ....
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .core import (
    CompositeLayout,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
    evolve_unitary,
)

S_LABEL = "S"
O_LABEL = "O"
O2_LABEL = "O2"
# A pointer branch of norm below this is empty: it carries no coherence.
EMPTY_BRANCH_NORM = 1e-14


def env_label(k: int) -> str:
    return f"E{k}"


def default_pointer_values(o_dim: int) -> np.ndarray:
    """Pointer eigenvalues (0, +1, -1, +2, -2, ...): 0 on the ready state,
    distinct on every perception state."""
    vals = [0.0]
    mag = 1.0
    while len(vals) < o_dim:
        vals.append(mag)
        if len(vals) < o_dim:
            vals.append(-mag)
        mag += 1.0
    return np.array(vals[:o_dim])


@dataclass(frozen=True)
class MeasurementModel:
    """System-observer coupling parameters.

    With the default calibration coupling * duration = pi/2, one interaction
    window transfers each system eigenstate completely onto its pointer state.
    Each transferred branch picks up a -i phase from the two-level rotation;
    ``branch_phase`` records it so callers can divide it out when comparing to
    the phase-free entangled form.
    """

    s_dim: int
    o_dim: int
    coupling: float
    duration: float

    def __post_init__(self):
        if self.s_dim < 2:
            raise InvariantError(f"s_dim {self.s_dim} < 2")
        if self.o_dim < self.s_dim + 1:
            raise InvariantError(
                f"o_dim {self.o_dim} < s_dim + 1 = {self.s_dim + 1}: need one ready state "
                "plus one pointer state per system eigenstate"
            )
        if self.duration <= 0:
            raise InvariantError("duration must be positive")

    @classmethod
    def calibrated(cls, s_dim=2, o_dim=3, duration=1.0) -> "MeasurementModel":
        """Complete-transfer calibration: coupling * duration = pi/2."""
        return cls(s_dim=s_dim, o_dim=o_dim, coupling=math.pi / (2.0 * duration), duration=duration)

    @property
    def branch_phase(self) -> complex:
        """Phase acquired by each transferred branch at full duration."""
        return -1j * complex(math.sin(self.coupling * self.duration)) + complex(
            math.cos(self.coupling * self.duration)
        )

    def s_layout(self) -> CompositeLayout:
        return CompositeLayout(((S_LABEL, self.s_dim),))

    def so_layout(self) -> CompositeLayout:
        return CompositeLayout(((S_LABEL, self.s_dim), (O_LABEL, self.o_dim)))

    @cached_property
    def hamiltonian(self) -> LinearOperator:
        """Coupling sum_i |s_i><s_i| (x) (|O_i><O_0| + h.c.) on ``so_layout()``,
        built (and so diagonalized) once per model however many chains evolve
        under it.

        Gated ladder form: each system eigenstate drives a two-level rotation
        between the observer ready state and its own pointer state, so the
        measured observable is conserved by construction. On the flat index
        s * o_dim + o, that is the entries (i * o_dim, i * o_dim + i + 1).
        """
        ready = np.arange(self.s_dim) * self.o_dim
        pointer = ready + np.arange(1, self.s_dim + 1)
        n = self.s_dim * self.o_dim
        h = np.zeros((n, n), dtype=complex)
        h[ready, pointer] = h[pointer, ready] = self.coupling
        return LinearOperator(self.so_layout(), h)

    def input_state(self, amplitudes) -> StateVector:
        """The system state *amplitudes* beside a ready observer, S (x) |O_0>,
        on ``so_layout()``."""
        ready = np.eye(self.o_dim, 1, dtype=complex).ravel()
        return StateVector(self.so_layout(), np.kron(np.asarray(amplitudes, dtype=complex), ready))


@dataclass(frozen=True)
class EnvironmentModel:
    """Bath of two-level atoms dephasing the observer pointer basis."""

    n_atoms: int
    couplings: np.ndarray
    pointer_values: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        q = np.asarray(self.pointer_values, dtype=float)
        object.__setattr__(self, "couplings", g)
        object.__setattr__(self, "pointer_values", q)
        if self.n_atoms < 0:
            raise InvariantError("n_atoms must be nonnegative")
        if g.shape != (self.n_atoms,):
            raise InvariantError(f"couplings length {g.shape} != n_atoms {self.n_atoms}")
        if q[0] != 0.0:
            raise InvariantError("pointer value on the ready state must be 0")
        perception = q[1:]
        if len(set(perception.tolist())) != len(perception):
            raise InvariantError("pointer values on perception states must be distinct")

    @classmethod
    def default(cls, n_atoms, o_dim, couplings=None) -> "EnvironmentModel":
        g = np.ones(n_atoms) if couplings is None else couplings
        return cls(n_atoms=n_atoms, couplings=g, pointer_values=default_pointer_values(o_dim))


def run_premeasurement(psi_s: StateVector, model: MeasurementModel) -> StateVector:
    """Entangle the system with a ready observer over one interaction window.

    Returns sum_i a_i |s_i>|O_i> up to the per-branch phase
    ``model.branch_phase``.
    """
    if psi_s.layout.labels != (S_LABEL,):
        raise LayoutError(f"expected a bare system state on ({S_LABEL!r},), got {psi_s.layout.labels}")
    return evolve_unitary(model.input_state(psi_s.amplitudes), model.hamiltonian, model.duration)


def build_dephasing_hamiltonian(env: EnvironmentModel, layout: CompositeLayout) -> np.ndarray:
    """sum_k g_k * (sum_i q_i |O_i><O_i|) (x) sigma_z^(k), identity elsewhere.

    Diagonal in the pointer basis, so it is returned as its diagonal, a real
    vector of length ``layout.total_dim``: it commutes with every pointer
    projector, which is exactly why that basis survives the dephasing.
    """
    if O_LABEL not in layout.labels:
        raise LayoutError(f"layout is missing subsystem {O_LABEL!r}")
    for k in range(env.n_atoms):
        lbl = env_label(k)
        if lbl not in layout.labels:
            raise LayoutError(f"layout is missing environment atom {lbl!r}")
        if layout.dim(lbl) != 2:
            raise LayoutError(f"environment atom {lbl!r} must be two-level")
    if len(env.pointer_values) != layout.dim(O_LABEL):
        raise LayoutError("pointer value list does not match the observer dimension")

    def along(label, values):  # values on one axis, broadcast over the others
        return np.reshape(values, [-1 if l == label else 1 for l in layout.labels])

    q = along(O_LABEL, env.pointer_values)
    h = np.zeros(layout.dims)
    for k, g in enumerate(env.couplings):
        h += g * (q * along(env_label(k), [1.0, -1.0]))
    return h.reshape(-1)


def attach_environment(state: StateVector, env: EnvironmentModel) -> StateVector:
    """Tensor each environment atom in its |+> state onto *state*, in the one
    bath order: *state*'s subsystems (S, O for a run), then E0, E1, ....

    |+> maximizes the per-atom dephasing and makes the off-diagonal
    suppression an exact cosine product.
    """
    atoms = tuple((env_label(k), 2) for k in range(env.n_atoms))
    plus = np.full(2, 1.0 / math.sqrt(2.0), dtype=complex)
    layout = CompositeLayout(state.layout.subsystems + atoms)
    return StateVector(layout, reduce(np.kron, [plus] * env.n_atoms, state.amplitudes))


def offdiag_suppression(env: EnvironmentModel, t: float, branches=(1, 2)) -> float:
    """Closed-form overlap of the two branch environment states:
    prod_k cos((q_i - q_j) g_k t)."""
    dq = env.pointer_values[branches[0]] - env.pointer_values[branches[1]]
    return float(np.prod(np.cos(dq * env.couplings * t)))


def run_decoherence(state: StateVector, env: EnvironmentModel, t: float):
    """Dephase a post-measurement state against the environment for time *t*.

    Returns the evolved state together with the simulated overlap
    <E_1(t)|E_2(t)> of the environment states tied to the first two pointer
    branches, extracted from the evolved vector itself (independent of the
    closed-form cosine product, which tests compare against). The relative
    phase of the two branch amplitudes is divided out as the phase of the
    input state's overlap (the |+> bath starts at overlap 1).
    """
    phases = np.exp(-1j * build_dephasing_hamiltonian(env, state.layout) * t)
    out = StateVector(state.layout, phases * state.amplitudes)
    z0 = _branch_env_overlap(state)
    return out, complex(_branch_env_overlap(out) * np.exp(-1j * np.angle(z0)))


def _branch_env_overlap(state: StateVector, branches=(1, 2)) -> complex:
    """Normalized overlap of the environment factors of two pointer branches.

    With S and O leading, the vector is a matrix whose row s * o_dim + o is the
    rest of the system beside |s>|O_o>; branch i is row (i - 1) * o_dim + i.
    The normalized inner product of two such rows includes the relative phase
    of the two branch amplitudes. Falls back to 1 when a branch amplitude
    vanishes (no coherence to suppress).
    """
    labels, dims = state.layout.labels, state.layout.dims
    if labels[:2] != (S_LABEL, O_LABEL):
        raise LayoutError(f"expected {S_LABEL!r} and {O_LABEL!r} to lead the layout, got {labels}")
    rows = state.amplitudes.reshape(dims[0] * dims[1], -1)
    v_i, v_j = (rows[(b - 1) * dims[1] + b] for b in branches)
    n_i, n_j = np.linalg.norm(v_i), np.linalg.norm(v_j)
    if n_i < EMPTY_BRANCH_NORM or n_j < EMPTY_BRANCH_NORM:
        return 1.0 + 0j
    return complex(np.vdot(v_i, v_j) / (n_i * n_j))


def reverse_evolution(state, H: LinearOperator, t: float):
    """Apply exp(+iHt): exact undo of the forward evolution."""
    return evolve_unitary(state, H, -t)


def branch_state(layout: CompositeLayout, i: int) -> StateVector:
    """Post-measurement branch |s_i>|O_i> (remaining subsystems at index 0)."""
    return StateVector.basis(layout, {S_LABEL: i - 1, O_LABEL: i})


def branch_weights(state, observer=O_LABEL) -> np.ndarray:
    """Pointer weights P_j = Tr(P_j rho) over the *observer* basis: the
    diagonal of the state (|psi|^2, or Re diag rho) reshaped to the layout's
    axes and summed over every other subsystem, clipped at 0, renormalized."""
    layout = state.layout
    if isinstance(state, StateVector):
        a = state.amplitudes
        diag = (a * a.conj()).real
    else:
        diag = np.diagonal(state.entries).real
    axis = layout.axis(observer)
    others = tuple(k for k in range(len(layout.dims)) if k != axis)
    w = np.clip(diag.reshape(layout.dims).sum(axis=others), 0.0, None)
    return w / w.sum()
