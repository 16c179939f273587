"""The dual state L_T = H (x) L_V: unitary dynamics paired with perception.

The dynamical component is one state in H, shared by every event of an
ensemble, that always evolves unitarily, including through a measurement.
The perception component is, per event, a pointer-basis index drawn from the
dynamical weights: the record V^O = |O_j><O_j| in L_V. Perception never
back-reacts on the dynamical component, so an external observer sees unbroken
Schrodinger evolution while the internal observer registers one definite
outcome per event. Undoing the measurement erases the record, and a repeat
measurement draws afresh. The textbook collapse comparator
(`reduction_baseline`) runs the same chain on each event's collapsed branch,
all branches as rows of one array, so its outcome survives the undo.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import (
    EVENT_BLOCK,
    DensityMatrix,
    InvariantError,
    LinearOperator,
    Record,
    StateVector,
    evolve_unitary,
    replace,
)
from .dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_weights,
)

# A perception weight below this is treated as "branch absent".
READY_WEIGHT_TOL = 1e-9
# Off-diagonal transition probability above this breaks the no-jump rule.
JUMP_TOL = 1e-12
# draw_index makes a guide table (``_guide``) from this many draws a call. Below it np.searchsorted
# is faster: 1000-3000 draws over 64 weights, 3000-10000 over 3 (warm; a table's first use costs more).
_GUIDE_MIN_DRAWS = 8192


def _guide(cum: np.ndarray, table=True):
    """``search(u)``: ``np.searchsorted(cum, u * cum[-1], side="right")`` for the 1-d *u* in [0, 1]
    (else a ValueError), with a *table* by Chen and Asau (AIIE Trans. 6, 163 (1974)). Bucket b of k
    (a power of two, at least 16 per entry: u * k is exact) starts at ``first[b]``, the answer at b / k.
    A draw in bucket floor(u * k) steps on from there while ``cum[j] <= u * cum[-1]``, which is exact
    as fl(u * c) is monotone in u, and only if the next bucket starts elsewhere: about 3% of draws
    from a 201-node perception-time CDF step, by at most one node."""
    total = cum[-1]
    if table:
        k = 1 << (16 * len(cum) - 1).bit_length()
        first = cum.searchsorted(np.arange(k + 1) / k * total, side="right")
        split, cum = first[1:] != first[:-1], np.concatenate([cum, [np.inf]])

    def search(u: np.ndarray) -> np.ndarray:
        if len(u) and not (u.min() >= 0.0 and u.max() <= 1.0):
            raise ValueError("draws need uniforms in [0, 1]")
        if not table:
            return np.searchsorted(cum, u * total, side="right")
        j = np.multiply(u, k, out=np.empty(len(u), np.intp), casting="unsafe")  # floor(u * k)
        at = split.take(j, mode="clip").nonzero()[0]  # u = 1 reads bucket k - 1's flag: it cannot step
        first.take(j, out=j, mode="clip")  # in place: each bucket is read before its start is written
        while len(at := at[cum[j[at]] <= u[at] * total]):
            j[at] += 1
        return j
    return search


def draw_index(weights: np.ndarray, u):
    """Inverse-transform draws from *weights*, one per uniform in [0, 1] of *u*, a scalar or an array."""
    u = np.asarray(u, dtype=float)
    return _guide(np.cumsum(weights), u.size >= _GUIDE_MIN_DRAWS)(u.reshape(-1)).reshape(u.shape)[()]


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
# The block kernel's operands as 0-d uint64 arrays made once: numpy converts a scalar on every call.
_MASK32, _HALF, _ELEVEN = (np.array(v, np.uint64) for v in (0xFFFFFFFF, 32, 11))
_M_PARTS = [tuple(np.array(v, np.uint64) for v in (m, m & 0xFFFFFFFF, m >> 32)) for m in _PHILOX_M]
# Events up to which ``uniform_blocks`` runs on the lanes: past them the block kernel, whose cost is
# flat below a block, is faster (README).
_LANES_MAX = 216


def _mulhilo(m, x: np.ndarray, hi: np.ndarray, a, b, c, lo=True, narrow=False):
    """High and low 64-bit words of the 128-bit products m * x by 32-bit halves (Warren, *Hacker's
    Delight*, mulhu) into *hi* and *x* (kept if not *lo*), in fewer ops if *narrow* (x < 2**32); *m* is
    a uint64 array like *x* or 0-d ``(m, m_lo, m_hi)``, a, b, c scratch. Each op writes through ``out=``:
    a new block-sized array can cost an mmap."""
    m, m_lo, m_hi = m if isinstance(m, tuple) else (m, m & _MASK32, m >> _HALF)
    if narrow:  # x < 2**32: hi = (x m_hi + (x m_lo >> 32)) >> 32, with no carry past 64 bits
        np.right_shift(np.multiply(x, m_lo, out=c), _HALF, out=c)
        np.right_shift(np.add(np.multiply(x, m_hi, out=hi), c, out=hi), _HALF, out=hi)
        return hi, np.multiply(x, m, out=x) if lo else x
    np.bitwise_and(x, _MASK32, out=a)  # x_lo
    np.right_shift(x, _HALF, out=b)  # x_hi
    if lo:
        np.multiply(x, m, out=x)
    np.right_shift(np.multiply(a, m_lo, out=c), _HALF, out=c)
    np.add(np.multiply(b, m_lo, out=hi), c, out=hi)  # t < 2**64
    np.add(np.multiply(a, m_hi, out=a), np.bitwise_and(hi, _MASK32, out=c), out=a)  # w < 2**64
    hi >>= _HALF
    hi += np.multiply(b, m_hi, out=b)
    hi += np.right_shift(a, _HALF, out=a)  # x_hi m_hi + (t >> 32) + (w >> 32)
    return hi, x


def _philox(seed: int, events: range):
    """Philox4x64-10 of the event counters ``[1, 0, eid, 0]``, key ``[seed, 0]``, for eid in the range
    *events*, EVENT_BLOCK at a time: yields ``(lo, u)``, ``u[i][r]`` the uniform ``(word >> 11) * 2**-53``
    of word i (0 or 1) of event ``events[lo + r]``. A word that is the same for every counter stays an
    int, with exact products; any other lives in the block's counters or one of seven buffers made once
    per call, and each ``u[i]`` is a float64 view of one, which the next block may overwrite. Rounds 8
    to 10 make only the words that reach words 0 and 1."""
    n = len(events)
    buffers = np.empty((7, min(n, EVENT_BLOCK)), np.uint64)
    narrow = [events.stop <= 2**32] + [False] * 9  # round 1's counters < 2**32
    keys = [[np.array(k % 2**64, np.uint64) for k in (int(seed) + r * _PHILOX_W[0], r * _PHILOX_W[1])]
            for r in range(10)]
    live = [(0, 1, 2, 3)] * 7 + [(0, 2, 3), (1, 2), (0, 1)]

    def product(i, w, hi, lo, narrow):  # (hi, lo) of M_i * w; an array word is made only if asked for
        if isinstance(w, int):
            return divmod(_PHILOX_M[i] * w, 2**64)
        if not hi:  # w is None unless lo is asked for
            return None, w if w is None else np.multiply(w, _M_PARTS[i][0], out=w)
        h = _mulhilo(_M_PARTS[i], w, free.pop(), *free[-3:], lo, narrow)[0]  # popped before the scratch
        return h, w if lo else free.append(w)  # a lo not asked for frees w's buffer

    def xor(a, b, k):  # a ^ b ^ k for a 0-d k; an array result takes a's or b's buffer and frees the other
        a, b = (b, a) if isinstance(a, int) else (a, b)
        if isinstance(b, int):
            return a ^ b ^ int(k) if isinstance(a, int) else np.bitwise_xor(a, np.uint64(b ^ int(k)), out=a)
        free.append(b)
        return np.bitwise_xor(np.bitwise_xor(a, b, out=a), k, out=a)

    for lo in range(0, n, EVENT_BLOCK):
        free = list(buffers[:, :min(EVENT_BLOCK, n - lo)])
        x = [1, 0, np.arange(events[lo], events[lo] + len(free[0]), dtype=np.uint64), 0]
        for on, (k0, k1), nw in zip(live, keys, narrow):
            hi1, lo1 = product(1, x[2], 0 in on, 1 in on, nw)  # word 0 first: its xor frees x1's buffer
            x0, (hi0, lo0) = xor(hi1, x[1], k0) if 0 in on else None, product(0, x[0], 2 in on, 3 in on, nw)
            x = [x0, lo1, xor(hi0, x[3], k1) if 2 in on else None, lo0]
        for w in x[:2]:  # in place: each element is read before its float is written
            w >>= _ELEVEN
            np.multiply(w, 2.0**-53, out=w.view(np.float64))
        yield lo, [w.view(np.float64) for w in x[:2]]


def _philox_lanes(seed: int, c0, c2, n: int, n_words: int) -> np.ndarray:
    """Philox4x64-10 of the *n* counters ``[c0, 0, c2, 0]``, key ``[seed, 0]``, at once, one of c0 and c2
    an int and the other the ``range`` of the counters: rows of uniforms ``(word >> 11) * 2**-53``, one
    per word read, the first *n_words*. Word i of counter r is the low 64 bits of the 128-bit lane r
    of the Python int x[i], so ``m * x[i]`` keeps each product in its lane and a round is a dozen
    big-int operations for the whole set. Lanes are packed and unpacked as "<u8", whatever the host's
    byte order."""
    ones = int.from_bytes((b"\1" + bytes(15)) * n, "little")  # a 1 in every lane
    mask = ones * (2**64 - 1)

    def lanes(c):  # c in every lane, or the range of the lanes' values
        lane = np.zeros((n, 2), "<u8")
        lane[:, 0] = c
        return int.from_bytes(lane.tobytes(), "little")

    x0, x1, x2, x3 = lanes(c0), 0, lanes(c2), 0
    k0, k1 = int(seed), 0
    for _ in range(10):
        p0, p1 = _PHILOX_M[0] * x0, _PHILOX_M[1] * x2
        x0, x1 = ((p1 >> 64) & mask) ^ x1 ^ k0 * ones, p1 & mask
        x2, x3 = ((p0 >> 64) & mask) ^ x3 ^ k1 * ones, p0 & mask
        k0, k1 = (k0 + _PHILOX_W[0]) % 2**64, (k1 + _PHILOX_W[1]) % 2**64
    words = b"".join(w.to_bytes(16 * n, "little") for w in (x0, x1, x2, x3)[:n_words])
    return (np.frombuffer(words, "<u8")[::2] >> _ELEVEN).reshape(n_words, n) * 2.0**-53


def uniform_blocks(seed: int, n_events: int):
    """The rows of ``event_uniforms(seed, n_events)``, EVENT_BLOCK events at a time: blocks ``(lo, u)``,
    ``u[0][r]`` and ``u[1][r]`` the first two draws of event lo + r. Up to _LANES_MAX events are one
    block of the lanes; more take one pass of the block kernel, whose next block may overwrite a
    block's arrays, so a run's uniforms take a few blocks of memory whatever its size."""
    if n_events <= _LANES_MAX:
        return [(0, _philox_lanes(seed, 1, range(n_events), n_events, 2))]
    return _philox(seed, range(n_events))


def event_uniforms(seed: int, n_events: int) -> np.ndarray:
    """Row ``eid`` holds the first two ``event_rng(seed, eid).random()``
    draws, for every event ``eid < n_events``; no runner reads more.

    Each row is the first two words of one Philox4x64-10 block: numpy
    advances the counter before its first block, so event ``eid`` encrypts
    the counter ``[1, 0, eid, 0]`` under the key ``[seed, 0]``. Runs read
    the same rows block by block, through ``uniform_blocks``.
    """
    out = np.empty((n_events, 2))
    for lo, u in uniform_blocks(seed, n_events):
        for i, w in enumerate(u):
            out[lo:lo + len(w), i] = w
    return out


def philox_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The first *n* ``event_rng(seed, stream).random()`` draws: the blocks
    ``c0 = 1, 2, ...`` of the counter ``[c0, 0, stream, 0]``, in order, on the lanes."""
    rows = -(-n // 4)
    return _philox_lanes(seed, range(1, rows + 1), int(stream), rows, 4).T.ravel()[:n]


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


class PerceptionTimePdf(Record):
    """Tabulated perception-time density over one measurement window; its
    *normalization* is c_p, applied to the raw derivative sum."""

    def __init__(self, times: np.ndarray, density: np.ndarray, normalization: float):
        vars(self).update(times=times, density=density, normalization=normalization)

    @cached_property
    def lookup(self):
        """``sample_perception_time``'s tables, built on its first call: the trapezoid CDF,
        the ``_guide`` search of its nodes and the slopes ``diff(t) / diff(cdf)``."""
        t, f = self.times, np.clip(self.density, 0.0, None)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))])
        if not cdf[-1] > 0.0:
            raise InvariantError("perception-time density has no mass on its grid")
        cdf /= cdf[-1]
        with np.errstate(all="ignore"):  # an overflowed slope times 0 is replaced in the draw
            slope = np.append(np.diff(t) / np.diff(cdf), 0.0)
        return cdf, _guide(cdf[1:]), slope  # cdf[0] = 0 <= u: the search over cdf[1:] is the node


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
    psi0, h = model.input_state(amplitudes), model.hamiltonian
    n = psi0.layout.total_dim
    on_o = np.arange(n) % model.o_dim  # each amplitude's pointer index
    masks = [(on_o == j)[:, None] for j in range(1, model.o_dim)]
    block = max(1, EVENT_BLOCK // n**2)

    def raw(ts):
        # A block of times at once, its stack of unitaries at most EVENT_BLOCK
        # entries: psi(t) from the stack, then <psi| P H |psi> as (1, n) @
        # (n, 1) products, P a mask on the O axis. These give the bits of
        # np.vdot on each time alone; np.sum(conj * x) does not, and the
        # sampled perception times depend on those bits.
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
    time per uniform in *u*, a scalar or an array of values in [0, 1], from
    the density's trapezoid CDF, built once per density (``pdf.lookup``). The
    result has the bits of ``np.interp(u, cdf, t)``.

    The guide table of cdf[1:] (``_guide``; cdf[-1] = 1) finds np.interp's node, the last j
    with cdf[j] <= u, without a binary search per draw. The time is np.interp's
    ``slope[j] * (u - cdf[j]) + t[j]`` with ``slope = diff(t) / diff(cdf)``; a draw on a
    node gets the node's time.
    """
    cdf, search, slope = pdf.lookup
    u = np.asarray(u, dtype=float)
    x = u.reshape(-1)  # a view of a scalar or of a 1-d array
    j = search(x)
    at, tj = cdf[j], pdf.times[j]
    out = slope[j]
    with np.errstate(all="ignore"):  # an overflowed slope times 0 is replaced below
        out *= x - at
    out += tj
    np.copyto(out, tj, where=at == x)  # a draw on a node gets the node's time
    return out.reshape(u.shape)[()]


def jump_forbidden(H: LinearOperator, t: float):
    """No-spontaneous-jump rule between post-measurement branches.

    Computes the transition matrix P'_ij = |<Psi_i| U(t) |Psi_j>|^2 over the
    branch states |s_i>|O_i> of the generator's layout. Each is one basis
    state, so P' is |U(t)|^2 at their rows and columns. Returns
    ``(forbidden, P')`` where forbidden is True iff every off-diagonal entry
    vanishes, in which case the perception records must be held fixed.
    """
    layout = H.layout
    rows = [layout.flat_index({S_LABEL: i - 1, O_LABEL: i}) for i in range(1, layout.dim(S_LABEL) + 1)]
    p = np.abs(H.unitary_at(t)[np.ix_(rows, rows)]) ** 2
    return bool(np.max(p - np.diag(np.diag(p))) <= JUMP_TOL), p


def _draw_perceived(w: np.ndarray, u):
    """``draw_index(w, u)`` of a completed measurement's pointer weights *w*, the ready state absent
    (its residue, cos^2(pi/2) ~ 4e-33, would take a uniform of 0.0); *w* is left as it is."""
    if w[0] > READY_WEIGHT_TOL:
        raise InvariantError(f"measurement incomplete: ready-state weight {w[0]:.3g} > {READY_WEIGHT_TOL}")
    return draw_index(np.concatenate([[0.0], w[1:]]), u)


def _check_undone(w: np.ndarray):
    """Pointer weights *w* of a reversal must be back on the ready state."""
    if w[0] < 1.0 - READY_WEIGHT_TOL:
        raise InvariantError("reversal did not return the observer to its ready state; "
                             "the state was not a post-measurement state of this model")


class DualState(Record):
    """The dual state of ``n_events`` events: one dynamical state, per-event records.

    ``phi_d``, a StateVector or DensityMatrix at time ``clock``, is shared by
    every event and never collapsed. Each event's history is the record
    steps ``(t, j)``: pointer index j perceived at time t, each of t and j
    one scalar shared by every event or an ``(n_events,)`` column. Index 0
    means "no information" (the ready state), as it does before the first
    step. Every event carries *flags*.
    """

    def __init__(self, phi_d: StateVector | DensityMatrix, n_events: int, clock: float = 0.0,
                 flags: tuple = (), steps: tuple = ()):
        vars(self).update(phi_d=phi_d, n_events=n_events, clock=clock, flags=flags, steps=steps)

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
        o_dim, col = self.phi_d.layout.dim(O_LABEL), np.asarray(j)  # fmax, fmin skip NaN as < and >= do
        if col.size and (np.fmax.reduce(col, axis=None) >= o_dim
                         or col.dtype.kind != "u" and np.fmin.reduce(col, axis=None) < 0):
            raise InvariantError(f"perception index outside pointer basis 0..{o_dim - 1}")
        return replace(self, steps=self.steps + ((t, j),))

    def perceive(self, u, t=None) -> DualState:
        """Record, at time *t* (default: the clock), one draw from the pointer
        weights of ``phi_d`` per uniform in *u*, a scalar or a column.

        The dynamical component is left untouched: only the observers'
        private records change. Requires the measurement to have completed
        (no residual ready-state weight).
        """
        return self.record(self.clock if t is None else t, _draw_perceived(branch_weights(self.phi_d), u))

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

    def measure(self, model: MeasurementModel) -> DualState:
        """One more interaction window, ``model.rotate`` over its duration: it
        moves no weight between branches, so the no-jump rule holds every record."""
        return replace(self, phi_d=model.rotate(self.phi_d, model.duration),
                       clock=self.clock + model.duration)

    def undo(self, model: MeasurementModel) -> DualState:
        """Exact reversal of the measurement: ``model.rotate`` over -duration (so
        S and O lead the layout of ``phi_d``; a bath after them rides along),
        records erased (the step ``(clock, 0)``), events flagged "undo".

        A later re-measurement draws fresh records statistically independent
        of the erased ones; this is where the dual model departs from the
        textbook collapse comparator.
        """
        if not np.any(self.final_j):
            raise InvariantError("nothing to undo: no perception record is set")
        phi_d = model.rotate(self.phi_d, -model.duration)
        _check_undone(branch_weights(phi_d))
        out = replace(self, phi_d=phi_d, clock=self.clock + model.duration,
                      flags=self.flags + ("undo",))
        return out.record(out.clock, 0)


def draw_conditioned(rows, first, u) -> np.ndarray:
    """Each event's record drawn from the row of pointer weights that its earlier record selects:
    event e gets ``_draw_perceived(rows[first[e]], u[e])``, or -1 where ``first[e]`` selects no row
    (past the table, or a row of None), in intp whatever the type of *first*. One stable sort groups
    the events by their first record, and each row that holds events draws once for all of them."""
    order = np.argsort(first, kind="stable")
    counts = np.bincount(first, minlength=len(rows))[:len(rows)]
    ends = np.cumsum(counts)
    out = np.full(len(first), -1, dtype=np.intp)  # a record column may be unsigned
    for j in np.flatnonzero(counts):
        if rows[j] is not None:
            events = order[ends[j] - counts[j]:ends[j]]
            out[events] = _draw_perceived(rows[j], u[events])
    return out


def reduction_baseline(model: MeasurementModel, collapsed, u) -> np.ndarray:
    """Textbook collapse comparator over an ensemble: each event's re-measured index.

    Event e collapses S onto its record, the pointer index ``collapsed[e]``,
    leaving the branch |s_j>|O_j> with the record j if it is a system index
    (1..s_dim). Its chain (undo, the measurement again, a fresh record per
    uniform in [0, 1) of the column *u*) stays on the row s_j, so the chains
    are the rows of one (s_dim, o_dim) array, whose weights the model keeps
    (``model.collapse_chains``), and the fresh records are one
    ``draw_conditioned`` on their re-measured weights. The undo rewinds the
    observer but not the collapse, so every event re-measures its collapsed
    index; this persistence is the discriminating prediction against the
    dual model. An event whose record is no system index gets -1, in intp.
    """
    undone, measured = model.collapse_chains  # row j - 1: chain j
    for w in undone[np.bincount(collapsed, minlength=model.s_dim + 1)[1:model.s_dim + 1] > 0]:
        _check_undone(w)  # each chain that an event collapsed onto
    return draw_conditioned([None, *measured], collapsed, u)
