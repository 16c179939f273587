"""Measurement and dephasing dynamics for the composite system.

Builds the system-observer coupling that copies the measured eigenstate into
the observer pointer basis (exact transfer at coupling * duration = pi/2),
premeasures with it in closed form, and dephases the pointer coherences
against a bath of atoms held as one product state per pointer branch.

Label conventions: the measured system is "S", the observer "O", bath atoms "E0", "E1", ....
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from .core import (
    EVENT_BLOCK,
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    LayoutError,
    LinearOperator,
    Record,
    StateVector,
    ValueRecord,
)

S_LABEL = "S"
O_LABEL = "O"
# A pointer branch of norm below this is empty: it carries no coherence.
EMPTY_BRANCH_NORM = 1e-14
# (time, atom) entries per chunk of the dephasing time grid. A chunk's phases,
# 32 bytes an entry, stay at 32 KiB, below the 128 KiB from which malloc maps
# fresh pages, so a chunk adds nothing to a run's peak RSS.
_GRID_CHUNK = EVENT_BLOCK // 16


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


class MeasurementModel(ValueRecord):
    """System-observer coupling parameters, compared and hashed by value.

    With the default calibration coupling * duration = pi/2, one interaction
    window transfers each system eigenstate completely onto its pointer state.
    Each transferred branch picks up a -i phase from the two-level rotation.
    """

    def __init__(self, s_dim: int, o_dim: int, coupling: float, duration: float):
        vars(self).update(s_dim=s_dim, o_dim=o_dim, coupling=coupling, duration=duration)
        if s_dim < 2:
            raise InvariantError(f"s_dim {s_dim} < 2")
        if o_dim < s_dim + 1:
            raise InvariantError(
                f"o_dim {o_dim} < s_dim + 1 = {s_dim + 1}: need one ready state "
                "plus one pointer state per system eigenstate"
            )
        if duration <= 0:
            raise InvariantError("duration must be positive")

    @classmethod
    def calibrated(cls, s_dim=2, o_dim=3, duration=1.0) -> "MeasurementModel":
        """Complete-transfer calibration: coupling * duration = pi/2."""
        return cls(s_dim=s_dim, o_dim=o_dim, coupling=math.pi / (2.0 * duration), duration=duration)

    def s_layout(self) -> CompositeLayout:
        return CompositeLayout(((S_LABEL, self.s_dim),))

    def so_layout(self) -> CompositeLayout:
        return CompositeLayout(((S_LABEL, self.s_dim), (O_LABEL, self.o_dim)))

    @cached_property
    def hamiltonian(self) -> LinearOperator:
        """Coupling sum_i |s_i><s_i| (x) (|O_i><O_0| + h.c.) on ``so_layout()``,
        built (and so diagonalized) once per model, on first use: only
        ``perception_time_pdf`` uses it; ``rotate`` is its U(t) in closed form.

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

    @cached_property
    def collapse_chains(self) -> np.ndarray:
        """The pointer weights ``(undone, measured)`` of the textbook collapse
        comparator's chains (``dual.reduction_baseline``), built once per
        model: row j - 1 of each is the branch |s_j>|O_j> turned back over
        one window, and then forward over it again."""
        chains = self.rotate(np.eye(self.s_dim, self.o_dim, 1), -self.duration)
        turned = np.stack([chains, self.rotate(chains, self.duration)])
        p = np.clip((turned * turned.conj()).real, 0.0, None)
        return p / p.sum(axis=2, keepdims=True)  # each chain's branch_weights

    def input_state(self, amplitudes) -> StateVector:
        """The system state *amplitudes* beside a ready observer, S (x) |O_0>,
        on ``so_layout()``: a_s at (s, 0), an exact +0 elsewhere."""
        psi = np.zeros((len(amplitudes), self.o_dim), dtype=complex)
        psi[:, 0] = amplitudes
        return StateVector(self.so_layout(), psi.ravel())

    def rotate(self, x, t: float):
        """exp(-i hamiltonian t) (x) 1 in closed form: each pair (s, 0), (s, s + 1)
        of the leading (s_dim, o_dim) axes turns by coupling * t, and no other
        entry moves. Of an array with those leading axes, its turned copy; of a
        StateVector or DensityMatrix on a layout that S and O lead, U psi or
        U rho U^dagger. Later axes and subsystems ride along."""
        if isinstance(x, (StateVector, DensityMatrix)):
            if x.layout.subsystems[:2] != self.so_layout().subsystems:
                raise LayoutError(f"expected {self.so_layout().subsystems} to lead {x.layout.subsystems}")

            def turn(m):  # U m, for m one column or n of them
                return self.rotate(m.reshape(self.s_dim, self.o_dim, -1), t).reshape(m.shape)
            if isinstance(x, StateVector):
                return StateVector(x.layout, turn(x.amplitudes))
            m = turn(turn(x.entries).conj().T)  # U (U rho)^dagger = U rho U^dagger
            return DensityMatrix(x.layout, 0.5 * (m + m.conj().T))  # Hermitian to the last bit
        x = np.array(x, dtype=complex)  # the copy that turns in place
        if x.shape[:2] != (self.s_dim, self.o_dim):
            raise LayoutError(f"expected leading axes ({self.s_dim}, {self.o_dim}), got {x.shape}")
        s, angle = np.arange(self.s_dim), self.coupling * t
        c, sn = math.cos(angle), math.sin(angle)
        ready, pointer = x[s, 0], x[s, s + 1]
        x[s, 0], x[s, s + 1] = ready * c - 1j * pointer * sn, -1j * ready * sn + pointer * c
        return x


class EnvironmentModel(Record):
    """Bath of two-level atoms dephasing the observer pointer basis."""

    def __init__(self, n_atoms: int, couplings: np.ndarray, pointer_values: np.ndarray):
        g = np.atleast_1d(np.asarray(couplings, dtype=float))
        q = np.asarray(pointer_values, dtype=float)
        vars(self).update(n_atoms=n_atoms, couplings=g, pointer_values=q)
        if n_atoms < 0:
            raise InvariantError("n_atoms must be nonnegative")
        if g.shape != (n_atoms,):
            raise InvariantError(f"couplings length {g.shape} != n_atoms {n_atoms}")
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
    """Entangle the system with a ready observer over one interaction window,
    in closed form (``model.rotate`` over the duration): sum_i a_i |s_i>|O_i>
    up to the per-branch phase -i at the calibration coupling * duration = pi/2."""
    if psi_s.layout.labels != (S_LABEL,):
        raise LayoutError(f"expected a bare system state on ({S_LABEL!r},), got {psi_s.layout.labels}")
    return model.rotate(model.input_state(psi_s.amplitudes), model.duration)


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


def _grid_chunks(times, n_atoms: int):
    """Columns of the 1-d grid *times*, each of at most _GRID_CHUNK (time, atom)
    entries, or of one time from _GRID_CHUNK atoms up."""
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    step = max(1, _GRID_CHUNK // max(1, n_atoms))
    return [t[lo:lo + step] for lo in range(0, max(1, len(t)), step)]


def offdiag_suppression(env: EnvironmentModel, t):
    """Closed-form overlap of the environment states of pointer branches 1
    and 2: prod_k cos((q_1 - q_2) g_k t). Of a 1-d grid *t*, an array of one
    overlap per time; of a scalar, a float."""
    dq = env.pointer_values[1] - env.pointer_values[2]
    out = np.concatenate([np.prod(np.cos(dq * env.couplings * ts), axis=1)
                          for ts in _grid_chunks(t, env.n_atoms)])
    return out if np.ndim(t) else float(out[0])


def run_decoherence(state: StateVector, env: EnvironmentModel, times):
    """Dephase a post-measurement state against the bath *env* over the 1-d
    grid *times*, in O(N) per time, _GRID_CHUNK (time, atom) phases at a
    time, and with no 2^N vector.

    The |+>^N bath's generator is diagonal in the pointer basis, so at time t
    it is one product state per branch, |E_o(t)> = prod_k (e |0> + conj(e)
    |1>) / sqrt(2) with e = exp(-i q_o g_k t). With S and O leading, *state*
    is a matrix M whose row s * o_dim + o is the rest of the system beside
    |s>|O_o>; only the rows r_i = (i - 1) * o_dim + i of the first two
    branches are read. Returns a list of (coherence, overlap), one per time.
    The coherence is <row r_1|row r_2> <E_1(t)|E_2(t)>, the entry
    rho_SO[r_2, r_1] of the reduced state, with <E_1|E_2> = prod_k
    Re(conj(e_1) e_2). The overlap is the coherence over the row norms and
    over the phase of the input's own value, or 1 when a branch is empty:
    no coherence to suppress. The layout is checked before any time is
    formed; a state that already holds bath atoms E0, E1, ... is refused,
    not dephased twice.
    """
    labels, dims, q = state.layout.labels, state.layout.dims, env.pointer_values
    if labels[:2] != (S_LABEL, O_LABEL) or len(q) != dims[1]:
        raise LayoutError(f"expected {S_LABEL!r} and {O_LABEL!r} to lead the layout, and a pointer "
                          f"value per O state, got {labels} and {len(q)} values")
    if any(env_label(k) in labels for k in range(env.n_atoms)):  # the bath is phases, not subsystems
        raise LayoutError(f"expected the state without the bath's atoms, got {labels}")
    rows, n_so = [1, dims[1] + 2], dims[0] * dims[1]
    generator = -1j * np.outer(q[1:3], env.couplings)  # branch rows of the (pointer, atom) table
    psi = state.amplitudes.reshape(n_so, -1)[rows]
    w1, w2 = (psi * psi.conj()).real.sum(axis=1)
    empty = min(w1, w2) < EMPTY_BRANCH_NORM**2
    bare = np.vdot(*psi)
    unphase = 1.0 if empty else np.exp(-1j * np.angle(bare)) / math.sqrt(w1 * w2)
    out = []
    for ts in _grid_chunks(times, env.n_atoms):
        e1, e2 = e = generator[:, None] * ts  # in place from here: a chunk makes one array
        np.exp(e, out=e)  # <e_1|e_2> per atom: (conj(e_1) e_2 + e_1 conj(e_2)) / 2
        np.multiply(np.conjugate(e1, out=e1), e2, out=e1)
        out += [(c, 1.0 + 0j if empty else complex(c * unphase))
                for c in bare * np.prod(e1.real, axis=1)]
    return out


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
