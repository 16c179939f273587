"""Dual event-states: unitary dynamics paired with stochastic perception.

An event-state carries two components. The dynamical component is an
ordinary density matrix that always evolves unitarily, including through a
measurement; the perception component is a single pointer-basis index drawn
per event from the dynamical weights. Perception never back-reacts on the
dynamical component, so an external observer sees unbroken Schrodinger
evolution while the internal observer registers one definite outcome per
event. A textbook collapse comparator (`reduction_baseline`) is provided for
the experiments that discriminate the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson

from .core import (
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
    evolve_unitary,
    projector,
    tensor_compose,
)
from .dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_state,
    branch_weights,
    build_meas_hamiltonian,
    reverse_evolution,
)

# Events per block of event_uniforms and of the events writer: bounds the
# temporaries of both, whatever the run's size.
EVENT_BLOCK = 1 << 14
# A perception weight below this is treated as "branch absent".
READY_WEIGHT_TOL = 1e-9
# Off-diagonal transition probability above this breaks the no-jump rule.
JUMP_TOL = 1e-12


def draw_index(weights: np.ndarray, u):
    """Categorical draws by inverse transform on the cumulative weights: one
    index per uniform in *u*, a scalar or an array."""
    cum = np.cumsum(weights)
    return np.searchsorted(cum, u * cum[-1], side="right")


def event_rng(seed: int, event_id: int) -> np.random.Generator:
    """Counter-based per-event stream: reproducible and order-independent.

    Each event owns a disjoint 2^128-state block of one Philox stream keyed
    by the scenario seed, so ensembles can run in any order (or in parallel)
    and still draw identical numbers.
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=event_id << 128))


# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * x, by 32-bit halves."""
    m_lo, m_hi = np.uint64(m) & _MASK32, np.uint64(m) >> _HALF
    x_lo, x_hi = x & _MASK32, x >> _HALF
    lo_lo, hi_lo, lo_hi = x_lo * m_lo, x_hi * m_lo, x_lo * m_hi
    cross = (lo_lo >> _HALF) + (hi_lo & _MASK32) + lo_hi
    return x_hi * m_hi + (hi_lo >> _HALF) + (cross >> _HALF), x * np.uint64(m)


def event_uniforms(seed: int, n_events: int) -> np.ndarray:
    """Row ``eid`` holds the first four ``event_rng(seed, eid).random()``
    draws, for every event ``eid < n_events``; enough for any runner.

    Each row is one Philox4x64-10 block, computed for EVENT_BLOCK events at
    a time: numpy advances the counter before its first block, so event
    ``eid`` encrypts the counter ``[1, 0, eid, 0]`` under the key ``[seed, 0]``.
    """
    out = np.empty((n_events, 4))
    for lo in range(0, n_events, EVENT_BLOCK):
        eid = np.arange(lo, min(lo + EVENT_BLOCK, n_events), dtype=np.uint64)
        c0, c1, c2, c3 = np.ones_like(eid), np.zeros_like(eid), eid, np.zeros_like(eid)
        k0, k1 = int(seed), 0
        for _ in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = (k1 + _PHILOX_W[1]) % 2**64
        for i, c in enumerate((c0, c1, c2, c3)):
            out[lo:lo + len(eid), i] = (c >> np.uint64(11)) * 2.0**-53
    return out


@dataclass(frozen=True)
class DualEventState:
    """One event: dynamical density matrix + perception record.

    ``phi_i`` indexes the observer pointer basis; 0 means "no information"
    (the ready state). The dynamical component ``phi_d`` is never collapsed.
    """

    phi_d: DensityMatrix
    phi_i: int
    event_id: int = 0
    clock: float = 0.0

    def __post_init__(self):
        o_dim = self.phi_d.layout.dim(O_LABEL)
        if not 0 <= self.phi_i < o_dim:
            raise InvariantError(f"perception index {self.phi_i} outside pointer basis 0..{o_dim - 1}")

    def perception_weights(self) -> np.ndarray:
        """P_j = Tr(P_j phi_d) over the pointer basis, clipped and renormalized."""
        return branch_weights(self.phi_d)


@dataclass(frozen=True)
class DualStatisticalState:
    """Ensemble-level pair: statistical state + perception probability mixture."""

    eta_d: DensityMatrix
    perception_probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.perception_probs, dtype=float)
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "perception_probs", p)
        o_dim = self.eta_d.layout.dim(O_LABEL)
        if p.shape != (o_dim,):
            raise InvariantError(f"perception_probs length {p.shape} != observer dim {o_dim}")
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-12:
            raise InvariantError("perception probabilities must be nonnegative and sum to 1")
        if np.max(np.abs(branch_weights(self.eta_d) - p)) > 1e-10:
            raise InvariantError("perception_probs inconsistent with Tr(P_j eta_d)")

    @classmethod
    def from_density(cls, eta_d: DensityMatrix) -> "DualStatisticalState":
        return cls(eta_d, branch_weights(eta_d))


@dataclass(frozen=True)
class ReductionBaselineState:
    """Textbook collapse comparator: the system is irreversibly projected."""

    collapsed_index: int  # pointer index j in 1..s_dim
    s_state: StateVector

    def __post_init__(self):
        amps = self.s_state.amplitudes
        expected = np.zeros_like(amps)
        expected[self.collapsed_index - 1] = 1.0
        if np.max(np.abs(np.abs(amps) - np.abs(expected))) > 1e-12:
            raise InvariantError("s_state must be the eigenstate matching collapsed_index")


def init_dual(rho0: DensityMatrix, event_id=0) -> DualEventState:
    """Start an event with the observer in its ready state and no information."""
    ready_weight = branch_weights(rho0)[0]
    if ready_weight < 1.0 - READY_WEIGHT_TOL:
        raise InvariantError(
            f"observer must start in the ready state (weight {ready_weight:.3g} < 1)"
        )
    return DualEventState(phi_d=rho0, phi_i=0, event_id=event_id, clock=0.0)


def perceive(event: DualEventState, rng: np.random.Generator) -> DualEventState:
    """Draw the perception record from the dynamical pointer weights.

    The dynamical component is left untouched: only the observer's private
    record changes. Requires the measurement to have completed (no residual
    ready-state weight).
    """
    w = event.perception_weights()
    if w[0] > READY_WEIGHT_TOL:
        raise InvariantError(
            f"measurement incomplete: ready-state weight {w[0]:.3g} > {READY_WEIGHT_TOL}"
        )
    return replace(event, phi_i=int(draw_index(w, rng.random())))


@dataclass(frozen=True)
class PerceptionTimePdf:
    """Tabulated perception-time density over one measurement window."""

    times: np.ndarray
    density: np.ndarray
    normalization: float  # c_p applied to the raw derivative sum


def perception_time_pdf(model: MeasurementModel, amplitudes, grid) -> PerceptionTimePdf:
    """Density of the perception instant inside the measurement window.

    The raw density is the total outflow rate from the ready state,
    sum_{i!=0} dP_i/dt, evaluated exactly as 2 Im <psi(t)| P_i H |psi(t)>,
    then scaled so it integrates to 1 over [0, duration].
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty time grid")
    if model.duration <= 0:
        raise ValueError("non-positive measurement duration")
    layout = model.so_layout()
    psi_s = StateVector.from_amplitudes(model.s_layout(), amplitudes)
    o_ready = StateVector.basis(CompositeLayout(((O_LABEL, model.o_dim),)), {})
    psi0 = tensor_compose([psi_s, o_ready])
    h = build_meas_hamiltonian(model, layout)
    projs = [projector(layout, O_LABEL, j).entries for j in range(1, model.o_dim)]

    def raw(ts):
        out = np.empty(len(ts))
        for k, t in enumerate(ts):
            psi_t = evolve_unitary(psi0, h, t).amplitudes
            h_psi = h.entries @ psi_t
            out[k] = sum(2.0 * np.imag(np.vdot(psi_t, p @ h_psi)) for p in projs)
        return out

    # Normalize on an internal dense window so c_p does not depend on the
    # caller's grid resolution.
    dense_t = np.linspace(0.0, model.duration, 2001)
    integral = float(simpson(raw(dense_t), x=dense_t))
    if integral <= 0:
        raise InvariantError("perception outflow integrates to a non-positive value")
    c_p = 1.0 / integral
    return PerceptionTimePdf(times=grid, density=c_p * raw(grid), normalization=c_p)


def sample_perception_time(pdf: PerceptionTimePdf, u):
    """Inverse-transform draws from a tabulated perception-time density: one
    time per uniform in *u*, a scalar or an array, from one trapezoid CDF."""
    t, f = pdf.times, np.clip(pdf.density, 0.0, None)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))])
    cdf /= cdf[-1]
    return np.interp(u, cdf, t)


def jump_forbidden(event: DualEventState, H: LinearOperator, t: float):
    """No-spontaneous-jump rule between post-measurement branches.

    Computes the transition matrix P'_ij = |<Psi_i| U(t) |Psi_j>|^2 over the
    branch states |s_i>|O_i>. Returns ``(forbidden, P')`` where forbidden is
    True iff every off-diagonal entry vanishes, in which case the perception
    record must be held fixed through the evolution.
    """
    layout = event.phi_d.layout
    if H.layout != layout:
        raise LayoutError("generator layout differs from the event state")
    s_dim = layout.dim(S_LABEL)
    u = H.unitary_at(t)
    branches = [branch_state(layout, i).amplitudes for i in range(1, s_dim + 1)]
    p = np.empty((s_dim, s_dim))
    for a, bra in enumerate(branches):
        for b, ket in enumerate(branches):
            p[a, b] = abs(np.vdot(bra, u @ ket)) ** 2
    offdiag = p - np.diag(np.diag(p))
    return bool(np.max(offdiag) <= JUMP_TOL), p


def evolve_event(event: DualEventState, H: LinearOperator, t: float, rng=None):
    """Advance one event; the perception record obeys the no-jump rule.

    Returns ``(event, flags)``. If the record is set and the evolution mixes
    branches, the record is resampled from the post-evolution weights using
    *rng* and the event is flagged "re-perception" (treated as a fresh
    effective measurement).
    """
    flags = []
    phi_d = evolve_unitary(event.phi_d, H, t)
    out = replace(event, phi_d=phi_d, clock=event.clock + t)
    if event.phi_i != 0:
        forbidden, _ = jump_forbidden(event, H, t)
        if not forbidden:
            if rng is None:
                raise InvariantError(
                    "branch-mixing evolution with a set perception record needs an rng "
                    "to resample the record"
                )
            out = perceive(out, rng)
            flags.append("re-perception")
    return out, flags


def undo_dual(event: DualEventState, model: MeasurementModel) -> DualEventState:
    """Exact reversal of the measurement: dynamics rewound, record erased.

    A later re-measurement draws a fresh record statistically independent of
    the erased one; this is where the dual model departs from the textbook
    collapse comparator.
    """
    if event.phi_i == 0:
        raise InvariantError("nothing to undo: no perception record is set")
    h = build_meas_hamiltonian(model, event.phi_d.layout)
    phi_d = reverse_evolution(event.phi_d, h, model.duration)
    if branch_weights(phi_d)[0] < 1.0 - READY_WEIGHT_TOL:
        raise InvariantError(
            "reversal did not return the observer to its ready state; "
            "the event state was not a post-measurement state of this model"
        )
    return replace(event, phi_d=phi_d, phi_i=0, clock=event.clock + model.duration)


def reduction_baseline(psi_s: StateVector, rng: np.random.Generator) -> ReductionBaselineState:
    """Textbook collapse: project the system onto a random eigenstate.

    Re-measuring the collapsed state reproduces the same outcome in every
    event, including after an undo attempt; this persistence is the
    discriminating prediction against the dual model.
    """
    w = np.abs(psi_s.amplitudes) ** 2
    i = int(draw_index(w / w.sum(), rng.random()))
    collapsed = StateVector.basis(psi_s.layout, {S_LABEL: i})
    return ReductionBaselineState(collapsed_index=i + 1, s_state=collapsed)
