"""Interference-term observable: the external pure/mixed discriminator.

The off-diagonal branch operator has zero expectation on any mixture of
measurement branches but a nonzero one on the coherent superposition, so an
external observer can certify that no objective collapse happened. The
internal observer can never measure it: it fails to commute with the pointer
observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CompositeLayout,
    InvariantError,
    LayoutError,
    LinearOperator,
    embed,
    expectation,
)
from .dynamics import O_LABEL, S_LABEL, default_pointer_values


@dataclass(frozen=True)
class InterferenceObservable:
    """Hermitian, traceless coherence probe between two measurement branches."""

    op: LinearOperator

    def __post_init__(self):
        if abs(np.trace(self.op.entries)) > 1e-12:
            raise InvariantError("interference observable must be traceless")


def interference_operator(layout: CompositeLayout, branches=(1, 2)) -> InterferenceObservable:
    """B = |s_i><s_j| (x) |O_i><O_j| + h.c., identity on other subsystems.

    Branch indices are pointer indices: branch i pairs system state i-1 with
    observer pointer state i.
    """
    i, j = branches
    s_d, o_d = layout.dim(S_LABEL), layout.dim(O_LABEL)
    for b in branches:
        if not (1 <= b <= s_d and 1 <= b < o_d):
            raise LayoutError(f"branch index {b} invalid for dims S={s_d}, O={o_d}")
    if i == j:
        raise LayoutError("branch indices must differ")
    s_flip = np.zeros((s_d, s_d), dtype=complex)
    s_flip[i - 1, j - 1] = 1.0
    o_flip = np.zeros((o_d, o_d), dtype=complex)
    o_flip[i, j] = 1.0
    half = embed(layout, {S_LABEL: s_flip, O_LABEL: o_flip})
    b = half + half.conj().T
    return InterferenceObservable(op=LinearOperator(layout, b))


def discriminate(rho, b: InterferenceObservable) -> float:
    """Expectation Tr(rho B): zero for branch mixtures, nonzero for coherent
    superpositions (2 Re(a_i a_j*) on the post-measurement pure state)."""
    return expectation(rho, b.op)


def pointer_incompatibility(layout: CompositeLayout, b: InterferenceObservable, pointer_values=None) -> float:
    """Operator norm of [Q_O, B]; positive whenever the branch pointer values
    differ, which is why the internal observer cannot probe B."""
    o_d = layout.dim(O_LABEL)
    q = default_pointer_values(o_d) if pointer_values is None else np.asarray(pointer_values, float)
    q_op = embed(layout, {O_LABEL: np.diag(q.astype(complex))})
    comm = q_op @ b.op.entries - b.op.entries @ q_op
    return float(np.linalg.norm(comm, ord=2))
