"""Dense complex linear algebra over labeled composite Hilbert spaces.

States and operators carry a :class:`CompositeLayout` describing the ordered
tensor factors (system, observer, environment atoms, ...). All values are
immutable after construction and every constructor validates the physical
invariants (normalization, Hermiticity, unit trace, positivity) up front, so
downstream code never has to re-check them.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

# Algebraic identities (Hermiticity, trace, idempotence, ...). Invariant
# checks read `not deviation <= TOL`, so a NaN deviation fails them.
TOL_ALGEBRAIC = 1e-12
# Round trips through eigendecompositions (evolve forward then back).
TOL_ROUNDTRIP = 1e-10
# Dense storage cap; exceeding it is an error, never silent truncation.
MAX_TOTAL_DIM = 4096
# Events per block of the Philox kernel, a run's sampling loop and the events
# writer, and entries per stack of perception_time_pdf's unitaries: bounds the
# temporaries of each (dynamics' time grid takes a sixteenth).
EVENT_BLOCK = 1 << 14


class LayoutError(ValueError):
    """Raised for malformed layouts or label/dimension mismatches."""


class InvariantError(ValueError):
    """Raised when a state or operator violates its defining invariants."""


class Record:
    """Base of the package's immutable records. Each ``__init__`` checks its
    arguments and stores them, under their parameter names, in the instance
    dict, where a ``cached_property`` also keeps its value; setting or
    deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value=None):  # and __delattr__(self, name)
        raise AttributeError(f"cannot set or delete {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in _fields(self).items())})"


def _fields(obj) -> dict:
    """The arguments of *obj*'s ``__init__`` by name, each an attribute of *obj*."""
    code = type(obj).__init__.__code__
    return {k: getattr(obj, k) for k in code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]}


class ValueRecord(Record):
    """A record compared and hashed by the arguments of its ``__init__``."""

    def __eq__(self, other):
        return type(other) is type(self) and _fields(self) == _fields(other)

    def __hash__(self):
        return hash(tuple(_fields(self).values()))


def replace(obj, **changes):
    """A copy of the record *obj* with the attributes *changes*, rebuilt through its
    ``__init__`` as ``dataclasses.replace`` does: its checks run again, and no
    ``cached_property`` value carries over."""
    return type(obj)(**{**_fields(obj), **changes})


class CompositeLayout(ValueRecord):
    """Ordered registry of tensor factors, e.g. (("S", 2), ("O", 3)).

    Index 0 of every subsystem is by convention the "ready"/ground label
    (observer ready state, environment initial state). Kronecker ordering is
    row-major in the listed order. Layouts compare and hash by value.
    """

    def __init__(self, subsystems: tuple[tuple[str, int], ...]):
        if not subsystems:
            raise LayoutError("layout needs at least one subsystem")
        vars(self)["subsystems"] = tuple((str(l), int(d)) for l, d in subsystems)
        labels = [l for l, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate subsystem labels in {labels}")
        for label, dim in self.subsystems:
            if dim < 1:
                raise LayoutError(f"subsystem {label!r} has dimension {dim} < 1")
        if self.total_dim > MAX_TOTAL_DIM:
            raise LayoutError(
                f"total dimension {self.total_dim} exceeds cap {MAX_TOTAL_DIM}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    @cached_property
    def total_dim(self) -> int:
        # Exact: np.prod would wrap in int64 and let a huge layout pass the cap.
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        """Position of *label* in the tensor ordering."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"unknown subsystem label {label!r}; have {self.labels}")

    def dim(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def flat_index(self, indices: dict[str, int]) -> int:
        """Row-major flat index of a product basis state, missing labels -> 0."""
        idx = 0
        for label, d in self.subsystems:
            i = indices.get(label, 0)
            if not 0 <= i < d:
                raise LayoutError(f"basis index {i} out of range for {label!r} (dim {d})")
            idx = idx * d + i
        return idx

    def restrict(self, keep: tuple[str, ...]) -> "CompositeLayout":
        """Sub-layout of the kept labels, in original order."""
        return CompositeLayout(tuple(p for p in self.subsystems if p[0] in keep))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


def _hermitian(layout: CompositeLayout, entries, noun: str) -> np.ndarray:
    """Read-only *entries*, checked n x n over *layout* and Hermitian; *noun* names it in errors."""
    m = _readonly(np.asarray(entries))
    n = layout.total_dim
    if m.shape != (n, n):
        raise LayoutError(f"matrix shape {m.shape} != ({n}, {n})")
    dev = np.max(np.abs(m - m.conj().T))
    if not dev <= TOL_ALGEBRAIC:
        raise InvariantError(f"{noun} deviates from Hermitian by {dev}")
    return m


class StateVector(Record):
    """Normalized pure state over a composite layout."""

    def __init__(self, layout: CompositeLayout, amplitudes: np.ndarray):
        amps = _readonly(np.asarray(amplitudes).reshape(-1))
        vars(self).update(layout=layout, amplitudes=amps)
        if amps.shape != (layout.total_dim,):
            raise LayoutError(
                f"amplitude length {amps.shape[0]} != layout dimension {layout.total_dim}"
            )
        # A pairwise sum: np.linalg.norm's rounding error grows with the length.
        norm = float(np.sqrt(np.sum((amps * amps.conj()).real)))
        if not abs(norm - 1.0) <= TOL_ALGEBRAIC:
            raise InvariantError(f"state norm {norm} deviates from 1 beyond {TOL_ALGEBRAIC}")

    @classmethod
    def basis(cls, layout: CompositeLayout, indices: dict[str, int]) -> "StateVector":
        """Product basis state |i_1 i_2 ...>; unspecified labels sit at index 0."""
        amps = np.zeros(layout.total_dim, dtype=complex)
        amps[layout.flat_index(indices)] = 1.0
        return cls(layout, amps)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))


class DensityMatrix(Record):
    """Hermitian, unit-trace, positive-semidefinite statistical state."""

    def __init__(self, layout: CompositeLayout, entries: np.ndarray):
        m = _hermitian(layout, entries, "density matrix")
        vars(self).update(layout=layout, entries=m)
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TOL_ALGEBRAIC:
            raise InvariantError(f"trace {tr} deviates from 1 beyond {TOL_ALGEBRAIC}")
        if not float(np.min(np.linalg.eigvalsh(m))) >= -TOL_ALGEBRAIC:
            raise InvariantError("density matrix has a negative eigenvalue beyond tolerance")

    @classmethod
    def mixture(cls, weights, states) -> "DensityMatrix":
        """Convex mixture sum_k w_k |psi_k><psi_k| (or of density matrices).
        Each part is valid already, so only the sum is checked."""
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < -TOL_ALGEBRAIC) or abs(weights.sum() - 1.0) > TOL_ALGEBRAIC:
            raise InvariantError("mixture weights must be nonnegative and sum to 1")
        states = list(states)
        m = sum(w * (np.outer(s.amplitudes, s.amplitudes.conj()) if isinstance(s, StateVector)
                     else s.entries) for w, s in zip(weights, states))
        return cls(states[0].layout, m)


class LinearOperator(Record):
    """Hermitian operator over a composite layout: a generator or an observable.

    Its eigendecomposition is cached (values are immutable, so the cache is
    safe to share); repeated time evolution under one generator costs a
    single diagonalization.
    """

    def __init__(self, layout: CompositeLayout, entries: np.ndarray):
        vars(self).update(layout=layout, entries=_hermitian(layout, entries, "operator"))

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(self.entries)

    def unitary_at(self, t) -> np.ndarray:
        """exp(-i * self * t) via the cached Hermitian eigendecomposition.

        A scalar *t* gives one (n, n) matrix; a 1-d time grid gives the
        (len(t), n, n) stack, each slice bit-identical to the scalar form. A
        grid is one (len(t) n, n) @ (n, n) product, not len(t) small ones.
        """
        w, v = self._eigh
        phase = np.exp(-1j * w * np.asarray(t, dtype=float)[..., None])
        left = v * phase[..., None, :]
        return (left.reshape(-1, len(w)) @ v.conj().T).reshape(left.shape)


def embed(layout: CompositeLayout, factors: dict[str, np.ndarray]) -> np.ndarray:
    """Kronecker-extend per-subsystem matrices by identities on the rest."""
    mats = []
    for label, d in layout.subsystems:
        if label in factors:
            f = np.asarray(factors[label], dtype=complex)
            if f.shape != (d, d):
                raise LayoutError(f"factor for {label!r} has shape {f.shape}, expected ({d}, {d})")
            mats.append(f)
        else:
            mats.append(np.eye(d, dtype=complex))
    return reduce(np.kron, mats)


def partial_trace(state, keep) -> DensityMatrix:
    """Reduced density matrix on the kept subsystem labels (trace preserved); of
    a StateVector, M M^dagger with M its kept axes by the rest, never psi psi^dagger."""
    keep = set(keep) if not isinstance(keep, (set, frozenset)) else keep
    labels = state.layout.labels
    unknown = keep - set(labels)
    if unknown:
        raise LayoutError(f"unknown labels {sorted(unknown)}; have {labels}")
    if not keep:
        raise LayoutError("must keep at least one subsystem")
    dims = state.layout.dims
    kept_layout = state.layout.restrict(tuple(keep))
    d = kept_layout.total_dim
    if isinstance(state, StateVector):
        kept = [i for i, l in enumerate(labels) if l in keep]
        m = np.moveaxis(state.amplitudes.reshape(dims), kept, range(len(kept))).reshape(d, -1)
        return DensityMatrix(kept_layout, m @ m.conj().T)
    n_sub = len(dims)
    m = state.entries.reshape(dims + dims)
    # Trace out dropped axes from the back so earlier axis numbers stay valid.
    for ax in sorted((i for i, l in enumerate(labels) if l not in keep), reverse=True):
        m = np.trace(m, axis1=ax, axis2=ax + n_sub)
        n_sub -= 1
    return DensityMatrix(kept_layout, m.reshape(d, d))


def evolve_unitary(state, H: LinearOperator, t: float):
    """Closed-system evolution by U = exp(-iHt); preserves norm and trace."""
    if H.layout != state.layout:
        raise LayoutError("generator and state layouts differ")
    u = H.unitary_at(t)
    if isinstance(state, StateVector):
        return StateVector(state.layout, u @ state.amplitudes)
    if isinstance(state, DensityMatrix):
        m = u @ state.entries @ u.conj().T
        # Re-symmetrize round-off so the constructor invariants hold exactly.
        m = 0.5 * (m + m.conj().T)
        return DensityMatrix(state.layout, m)
    raise TypeError(f"cannot evolve {type(state)}")


def projector(layout: CompositeLayout, subsystem: str, basis_index: int) -> LinearOperator:
    """|j><j| on the named subsystem, identity elsewhere."""
    d = layout.dim(subsystem)
    if not 0 <= basis_index < d:
        raise LayoutError(f"basis index {basis_index} out of range for {subsystem!r} (dim {d})")
    p = np.zeros((d, d), dtype=complex)
    p[basis_index, basis_index] = 1.0
    return LinearOperator(layout, embed(layout, {subsystem: p}))


def expectation(rho, A: LinearOperator) -> float:
    """Tr(rho A); works on StateVector or DensityMatrix."""
    if A.layout != rho.layout:
        raise LayoutError("observable and state layouts differ")
    if isinstance(rho, StateVector):
        val = complex(np.vdot(rho.amplitudes, A.entries @ rho.amplitudes))
    else:
        val = complex(np.einsum("ij,ji->", rho.entries, A.entries))  # sum_ij rho_ij A_ji
    if abs(val.imag) > 1e-9:
        raise InvariantError(f"expectation of Hermitian observable has imaginary part {val.imag}")
    return float(val.real)


def trace_distance(a, b) -> float:
    """(1/2) * sum |eigenvalues(a - b)|, in [0, 1]. Of two StateVectors it is
    sqrt(1 - |<a|b>|^2), taken as ||b - <a|b> a||: the square root's form
    turns 1e-16 rounding into 1e-8."""
    if a.layout != b.layout:
        raise LayoutError("trace distance needs matching layouts")
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        a, b = a.amplitudes, b.amplitudes
        return float(np.linalg.norm(b - np.vdot(a, b) * a))
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.entries - b.entries))))
