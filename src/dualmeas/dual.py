"""The dual state L_T = H (x) L_V: unitary dynamics paired with perception.

The dynamical component is one state in H, shared by every event of an
ensemble, that always evolves unitarily, including through a measurement.
The perception component is, per event, a pointer-basis index drawn from the
dynamical weights: the record V^O = |O_j><O_j| in L_V. Perception never
back-reacts on the dynamical component, so an external observer sees unbroken
Schrodinger evolution while the internal observer registers one definite
outcome per event. Undoing the measurement erases the record, and a repeat
measurement draws afresh. The textbook collapse comparator
(`reduction_baseline`) runs the same chain on each event's collapsed branch
instead, so its outcome survives the undo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DensityMatrix,
    InvariantError,
    LinearOperator,
    StateVector,
    evolve_unitary,
)
from .dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_state,
    branch_weights,
    reverse_evolution,
)

# Events per block of event_uniforms and of the events writer: bounds the
# temporaries of both, whatever the run's size.
EVENT_BLOCK = 1 << 14
# A perception weight below this is treated as "branch absent".
READY_WEIGHT_TOL = 1e-9
# Off-diagonal transition probability above this breaks the no-jump rule.
JUMP_TOL = 1e-12
# Complex entries per stack of unitaries in perception_time_pdf: a whole
# window at small layouts, one time per block at the dense cap.
_PDF_BLOCK = 1 << 20


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
    # Sums go into these arrays: a fresh block-sized array can cost an mmap
    # and its page faults, about a third of the kernel's time in a new process.
    cross = x_hi * m_lo
    hi = cross >> _HALF
    cross &= _MASK32
    cross += (x_lo * m_lo) >> _HALF
    cross += np.multiply(x_lo, m_hi, out=x_lo)
    hi += np.multiply(x_hi, m_hi, out=x_hi)
    hi += cross >> _HALF
    return hi, x * np.uint64(m)


def _philox(seed: int, c0: np.ndarray, c2: np.ndarray):
    """The four Philox4x64-10 output words of the counters ``[c0, 0, c2, 0]``, key ``[seed, 0]``."""
    c1 = c3 = np.zeros_like(c0)
    k0, k1 = int(seed), 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        k1 = (k1 + _PHILOX_W[1]) % 2**64
    return c0, c1, c2, c3


def event_uniforms(seed: int, n_events: int) -> np.ndarray:
    """Row ``eid`` holds the first two ``event_rng(seed, eid).random()``
    draws, for every event ``eid < n_events``; no runner reads more.

    Each row is the first two words of one Philox4x64-10 block, computed for
    EVENT_BLOCK events at a time: numpy advances the counter before its first
    block, so event ``eid`` encrypts the counter ``[1, 0, eid, 0]`` under the
    key ``[seed, 0]``.
    """
    out = np.empty((n_events, 2))
    for lo in range(0, n_events, EVENT_BLOCK):
        eid = np.arange(lo, min(lo + EVENT_BLOCK, n_events), dtype=np.uint64)
        for i, c in enumerate(_philox(seed, np.ones_like(eid), eid)[:2]):
            out[lo:lo + len(eid), i] = (c >> np.uint64(11)) * 2.0**-53
    return out


def philox_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The first *n* ``event_rng(seed, stream).random()`` draws: the blocks
    ``c0 = 1, 2, ...`` of the counter ``[c0, 0, stream, 0]``, in order."""
    c0 = np.arange(1, -(-n // 4) + 1, dtype=np.uint64)
    words = np.stack(_philox(seed, c0, np.full_like(c0, stream)), axis=1).ravel()[:n]
    return (words >> np.uint64(11)) * 2.0**-53


def simpson(y, x) -> float:
    """Composite Simpson rule on a strictly increasing 1-d grid, in the operations
    (so the bits) of ``scipy.integrate.simpson`` 1.17.1: Cartwright's correction
    for the last interval of an even grid, the trapezoid for two points."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    h, n = np.diff(x), len(x)
    if x.ndim != 1 or y.shape != x.shape or n < 2 or not np.all(h > 0):
        raise ValueError("simpson needs a strictly increasing 1-d grid x of >= 2 points")

    def basic(stop):
        h0, h1 = h[0:stop:2], h[1:stop + 1:2]
        hsum, h0divh1 = h0 + h1, h0 / h1
        return np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                    + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                    + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if n % 2:
        return float(basic(n - 2))
    if n == 2:
        return float(0.0 + 0.5 * h[-1] * (y[-1] + y[-2]))
    # On 1-element slices, not scalars: numpy rounds ``**`` on them as scipy does.
    h0, h1 = h[-2:-1], h[-1:]
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = 1 * h1 ** 3 / (6 * h0 * (h0 + h1))
    end = alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(basic(n - 3) + end[0] + 0.0)


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
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"time grid must be a non-empty 1-d array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("time grid must be finite")
    if model.duration <= 0:
        raise ValueError("non-positive measurement duration")
    psi0, h = model.input_state(amplitudes), model.hamiltonian
    n = psi0.layout.total_dim
    on_o = np.arange(n) % model.o_dim  # each amplitude's pointer index
    masks = [(on_o == j)[:, None] for j in range(1, model.o_dim)]
    block = max(1, _PDF_BLOCK // n**2)

    def raw(ts):
        # A block of times at once: psi(t) from the stack of unitaries, then
        # <psi| P H |psi> as (1, n) @ (n, 1) products, P a mask on the O
        # axis. These give the bits of np.vdot on each time alone;
        # np.sum(conj * x) does not, and the sampled perception times depend
        # on those bits.
        out = np.empty(len(ts))
        for lo in range(0, len(ts), block):
            psi = h.unitary_at(ts[lo:lo + block]) @ psi0.amplitudes
            h_psi = h.entries @ psi[..., None]
            bra = psi.conj()[:, None, :]
            out[lo:lo + block] = sum(2.0 * np.imag((bra @ (m * h_psi))[:, 0, 0]) for m in masks)
        return out

    # Normalize on an internal dense window so c_p does not depend on the
    # caller's grid resolution.
    dense_t = np.linspace(0.0, model.duration, 2001)
    integral = simpson(raw(dense_t), dense_t)
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


def jump_forbidden(H: LinearOperator, t: float):
    """No-spontaneous-jump rule between post-measurement branches.

    Computes the transition matrix P'_ij = |<Psi_i| U(t) |Psi_j>|^2 over the
    branch states |s_i>|O_i> of the generator's layout. Returns
    ``(forbidden, P')`` where forbidden is True iff every off-diagonal entry
    vanishes, in which case the perception records must be held fixed.
    """
    layout = H.layout
    branches = np.array([branch_state(layout, i).amplitudes
                         for i in range(1, layout.dim(S_LABEL) + 1)])
    p = np.abs(branches.conj() @ H.unitary_at(t) @ branches.T) ** 2
    return bool(np.max(p - np.diag(np.diag(p))) <= JUMP_TOL), p


@dataclass(frozen=True)
class DualState:
    """The dual state of ``n_events`` events: one dynamical state, per-event records.

    ``phi_d``, a StateVector or DensityMatrix at time ``clock``, is shared by
    every event and never collapsed. Each event's history is the record
    steps ``(t, j)``: pointer index j perceived at time t, each of t and j
    one scalar shared by every event or an ``(n_events,)`` column. Index 0
    means "no information" (the ready state), as it does before the first
    step. Every event carries *flags*.
    """

    phi_d: StateVector | DensityMatrix
    n_events: int
    clock: float = 0.0
    flags: tuple = ()
    steps: tuple = ()

    @property
    def t_perceive(self):
        """Time of each event's first record."""
        return self.steps[0][0]

    @property
    def final_j(self):
        """Each event's current record: 0 (no information) before the first step."""
        return self.steps[-1][1] if self.steps else 0

    def record(self, t, j) -> DualState:
        """Append the step (t, j) to every event's history."""
        if any(np.shape(x) not in ((), (self.n_events,)) for x in (t, j)):
            raise InvariantError(f"a record step is one value or one per event ({self.n_events})")
        if not np.all(np.isfinite(t)):  # emit would write nan where json writes NaN
            raise InvariantError("event history timestamps must be finite")
        if self.steps and np.any(t < self.steps[-1][0]):
            raise InvariantError("event history timestamps must be non-decreasing")
        o_dim = self.phi_d.layout.dim(O_LABEL)
        if np.any(j < 0) or np.any(j >= o_dim):
            raise InvariantError(f"perception index outside pointer basis 0..{o_dim - 1}")
        return replace(self, steps=self.steps + ((t, j),))

    def perceive(self, u, t=None) -> DualState:
        """Record, at time *t* (default: the clock), one draw from the pointer
        weights of ``phi_d`` per uniform in *u*, a scalar or a column.

        The dynamical component is left untouched: only the observers'
        private records change. Requires the measurement to have completed
        (no residual ready-state weight).
        """
        w = branch_weights(self.phi_d)
        if w[0] > READY_WEIGHT_TOL:
            raise InvariantError(
                f"measurement incomplete: ready-state weight {w[0]:.3g} > {READY_WEIGHT_TOL}"
            )
        w[0] = 0.0  # absent; its residue, cos^2(pi/2) ~ 4e-33, would take a uniform of 0.0
        return self.record(self.clock if t is None else t, draw_index(w, u))

    def evolve(self, H: LinearOperator, t: float, u=None) -> DualState:
        """Advance ``phi_d`` by exp(-iHt); the records obey the no-jump rule.

        If a record is set and the evolution mixes branches, every record is
        redrawn from the post-evolution weights with the uniforms *u*, and
        the events are flagged "re-perception" (a fresh effective
        measurement).
        """
        out = replace(self, phi_d=evolve_unitary(self.phi_d, H, t), clock=self.clock + t)
        if not np.any(self.final_j) or jump_forbidden(H, t)[0]:
            return out
        if u is None:
            raise InvariantError(
                "branch-mixing evolution with a set perception record needs uniforms "
                "to redraw the record"
            )
        return replace(out, flags=out.flags + ("re-perception",)).perceive(u)

    def undo(self, model: MeasurementModel) -> DualState:
        """Exact reversal of the measurement: dynamics rewound under
        ``model.hamiltonian`` (so ``phi_d`` lives on ``model.so_layout()``),
        records erased (the step ``(clock, 0)``), events flagged "undo".

        A later re-measurement draws fresh records statistically independent
        of the erased ones; this is where the dual model departs from the
        textbook collapse comparator.
        """
        if not np.any(self.final_j):
            raise InvariantError("nothing to undo: no perception record is set")
        phi_d = reverse_evolution(self.phi_d, model.hamiltonian, model.duration)
        if branch_weights(phi_d)[0] < 1.0 - READY_WEIGHT_TOL:
            raise InvariantError(
                "reversal did not return the observer to its ready state; "
                "the state was not a post-measurement state of this model"
            )
        out = replace(self, phi_d=phi_d, clock=self.clock + model.duration,
                      flags=self.flags + ("undo",))
        return out.record(out.clock, 0)


def reduction_baseline(model: MeasurementModel, collapsed, u) -> np.ndarray:
    """Textbook collapse comparator over an ensemble: each event's re-measured index.

    Event e collapses S onto its record ``collapsed[e]`` in 1..s_dim, leaving
    the branch |s_j>|O_j> with the record j. The events that share a
    collapsed index j run one chain: undo, the measurement again, and
    perceive a fresh record, one per uniform in the column *u*. The undo
    rewinds the observer but not the collapse, so every event re-measures its
    collapsed index; this persistence is the discriminating prediction
    against the dual model. An event whose record is no system index is not
    re-measured and gets -1.
    """
    fresh = np.full_like(collapsed, -1)
    for j in range(1, model.s_dim + 1):
        events = collapsed == j
        if not events.any():
            continue
        state = DualState(branch_state(model.so_layout(), j), np.count_nonzero(events),
                          clock=model.duration).record(model.duration, j).undo(model)
        fresh[events] = state.evolve(model.hamiltonian, model.duration).perceive(u[events]).final_j
    return fresh
