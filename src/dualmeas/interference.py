"""Interference-term observable: the external pure/mixed discriminator.

The off-diagonal branch operator has zero expectation on any mixture of
measurement branches but a nonzero one on the coherent superposition, so an
external observer can certify that no objective collapse happened. The
internal observer can never measure it: it fails to commute with the pointer
observable.
"""

from __future__ import annotations

import numpy as np

from .core import CompositeLayout, LayoutError, Record, StateVector
from .dynamics import O_LABEL, S_LABEL, default_pointer_values


class InterferenceObservable(Record):
    """Hermitian, traceless coherence probe B = sum_k |r1_k><r2_k| + h.c.
    between measurement branches 1 and 2, kept as its *rows* (r1, r2), index
    arrays into the flat basis of *layout*: r1_k is branch i and r2_k
    branch j, each beside the k-th basis state of the other subsystems."""

    def __init__(self, layout: CompositeLayout, rows: tuple):
        vars(self).update(layout=layout, rows=rows)


def interference_operator(layout: CompositeLayout) -> InterferenceObservable:
    """B = |s_0><s_1| (x) |O_1><O_2| + h.c. between branches 1 and 2,
    identity on other subsystems: branch i pairs system state i-1 with
    observer pointer state i, so *layout* needs S >= 2 and O >= 3.
    """
    s_d, o_d = layout.dim(S_LABEL), layout.dim(O_LABEL)
    if s_d < 2 or o_d < 3:
        raise LayoutError(f"branches 1 and 2 need S >= 2 and O >= 3, got S={s_d}, O={o_d}")
    axes = (layout.axis(S_LABEL), layout.axis(O_LABEL))
    flat = np.moveaxis(np.arange(layout.total_dim).reshape(layout.dims), axes, (0, 1))
    return InterferenceObservable(layout, (flat[0, 1].ravel(), flat[1, 2].ravel()))


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


def pointer_incompatibility(b: InterferenceObservable) -> float:
    """Operator norm of [Q_O, B] on B's layout; positive, since the pointer
    values of branches 1 and 2 differ, which is why the internal observer cannot probe B.

    B pairs disjoint rows (r1_k, r2_k), so [Q_O, B] is block-diagonal, each
    block (q(r1_k) - q(r2_k)) [[0, 1], [-1, 0]] with q(r) the pointer value
    (``default_pointer_values``) of row r's O index: the norm is the largest
    |q(r1_k) - q(r2_k)|.
    """
    layout = b.layout
    q = default_pointer_values(layout.dim(O_LABEL))
    r1, r2 = (np.unravel_index(r, layout.dims)[layout.axis(O_LABEL)] for r in b.rows)
    return float(np.max(np.abs(q[r1] - q[r2])))
