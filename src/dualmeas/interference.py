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

from .core import CompositeLayout, LayoutError, StateVector
from .dynamics import O_LABEL, S_LABEL, default_pointer_values


@dataclass(frozen=True)
class InterferenceObservable:
    """Hermitian, traceless coherence probe B = sum_k |r1_k><r2_k| + h.c.
    between two measurement branches, kept as its rows: r1_k is branch i and
    r2_k branch j, each beside the k-th basis state of the other subsystems."""

    layout: CompositeLayout
    rows: tuple  # (r1, r2), index arrays into the flat basis of layout


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
    axes = (layout.axis(S_LABEL), layout.axis(O_LABEL))
    flat = np.moveaxis(np.arange(layout.total_dim).reshape(layout.dims), axes, (0, 1))
    return InterferenceObservable(layout, (flat[i - 1, i].ravel(), flat[j - 1, j].ravel()))


def discriminate(rho, b: InterferenceObservable) -> float:
    """Expectation Tr(rho B) from the entries B pairs: 2 Re sum_k
    conj(psi[r1_k]) psi[r2_k] of a StateVector, 2 Re sum_k rho[r2_k, r1_k] of
    a DensityMatrix. Zero for branch mixtures, nonzero for coherent
    superpositions (2 Re(a_i a_j*) on the post-measurement pure state)."""
    if rho.layout != b.layout:
        raise LayoutError("observable and state layouts differ")
    r1, r2 = b.rows
    if isinstance(rho, StateVector):
        return 2.0 * float(np.vdot(rho.amplitudes[r1], rho.amplitudes[r2]).real)
    return 2.0 * float(rho.entries[r2, r1].sum().real)


def pointer_incompatibility(b: InterferenceObservable, pointer_values=None) -> float:
    """Operator norm of [Q_O, B] on B's layout; positive whenever the branch
    pointer values differ, which is why the internal observer cannot probe B.

    B pairs disjoint rows (r1_k, r2_k), so [Q_O, B] is block-diagonal, each
    block (q(r1_k) - q(r2_k)) [[0, 1], [-1, 0]] with q(r) the pointer value of
    row r's O index: the norm is the largest |q(r1_k) - q(r2_k)|.
    """
    layout = b.layout
    o_d = layout.dim(O_LABEL)
    q = default_pointer_values(o_d) if pointer_values is None else np.asarray(pointer_values, float)
    if q.shape != (o_d,):
        raise LayoutError(f"pointer values of shape {q.shape}, expected ({o_d},)")
    r1, r2 = (np.unravel_index(r, layout.dims)[layout.axis(O_LABEL)] for r in b.rows)
    return float(np.max(np.abs(q[r1] - q[r2])))
