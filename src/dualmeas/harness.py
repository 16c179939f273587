"""Batch experiment runner: ``run`` and the six experiment runners.

A run is fully determined by the scenario plus its seed: per-event
randomness comes from counter-based substreams, so outputs are
byte-identical across repeated runs. The scenario layer is ``scenario.py``
and the events writer ``writer.py``; ``parse_scenario``, ``emit`` and
``event_rng`` are re-exported here, where the benchmark's worker and tracer
reach them as the ``harness`` layer.
"""

from __future__ import annotations

import json
import math
try:  # the fingerprint's builtin SHA-256, as in random.py; hashlib (OpenSSL) only as fallback
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

import numpy as np

from . import __version__
from .core import (
    StateVector,
    TOL_ALGEBRAIC,
    TOL_ROUNDTRIP,
    replace,
    trace_distance,
)
from .dual import (
    EVENT_BLOCK,
    DualState,
    _draw_perceived,
    draw_conditioned,
    event_rng,  # not called here; bench/test_bench.py reaches it as harness.event_rng
    perception_time_pdf,
    reduction_baseline,
    sample_perception_time,
    simpson,
    uniform_blocks,
)
from .dynamics import (
    EMPTY_BRANCH_NORM,
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_weights,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)
from .interference import discriminate, interference_operator
from .restriction import premeasured_restrictions
from .scenario import (
    DECOHERE_TOL,
    Scenario,
    parse_scenario,  # not called here; bench/worker.py calls harness.parse_scenario
)
from .writer import emit  # not called here; bench/worker.py calls harness.emit


class RunSummary:
    """Aggregate results plus the per-scenario physics checks; its attributes,
    in ``summary.json``'s order, are exactly its arguments."""

    def __init__(self, experiment: str, seed: int, n_events: int, frequencies: dict,
                 b_values: dict | None = None, restricted_states: dict | None = None,
                 correlations: dict | None = None, offdiag_curve: dict | None = None,
                 perception_pdf: dict | None = None, env_couplings: list | None = None,
                 checks: list | None = None, tolerances: dict | None = None, fingerprint: str = ""):
        self.experiment, self.seed, self.n_events, self.frequencies = experiment, seed, n_events, frequencies
        self.b_values, self.restricted_states = b_values or {}, restricted_states or {}
        self.correlations = correlations or {}
        self.offdiag_curve, self.perception_pdf = offdiag_curve, perception_pdf
        self.env_couplings, self.checks, self.tolerances = env_couplings or [], checks or [], tolerances or {}
        self.fingerprint = fingerprint

    def to_dict(self) -> dict:
        return {**vars(self), "frequencies": {str(k): v for k, v in self.frequencies.items()}}


def _complex_matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _check(name: str, value, passed) -> dict:
    return {"name": name, "passed": bool(passed), "value": value}


def _freq_check(js, probs: np.ndarray, n: int):
    """Frequencies of the records *js* over the pointer basis of *probs*, and
    the check that flags (not hard-fails) any beyond 4 sigma of P_j."""
    # A block at a time: np.bincount copies its input to intp.
    counts = sum(np.bincount(js[lo:lo + EVENT_BLOCK], minlength=len(probs))
                 for lo in range(0, n, EVENT_BLOCK))
    freqs = {j: counts[j] / n for j in range(len(probs))}
    worst, ok = 0.0, True
    for j, p in enumerate(probs):
        dev = abs(freqs[j] - p)
        if p in (0.0, 1.0):
            ok = ok and dev == 0.0
        elif dev > 4.0 * math.sqrt(max(p * (1 - p), 0.0) / n):
            ok = False
        worst = max(worst, dev)
    return freqs, _check("empirical frequencies within 4 sigma of P_j", worst, ok)


def _correlation(a, b):
    """Pearson correlation of two index columns; None when either margin is
    degenerate. The moments are exact integer sums, EVENT_BLOCK at a time:
    r = (n Sab - Sa Sb) / sqrt((n Saa - Sa^2)(n Sbb - Sb^2))."""
    n, sa, sb, saa, sbb, sab = len(a), 0, 0, 0, 0, 0
    for lo in range(0, n, EVENT_BLOCK):
        x = a[lo:lo + EVENT_BLOCK].astype(np.int64)
        y = b[lo:lo + EVENT_BLOCK].astype(np.int64)
        sa, sb = sa + int(x.sum()), sb + int(y.sum())
        saa, sbb, sab = saa + int(x @ x), sbb + int(y @ y), sab + int(x @ y)
    var_a, var_b = n * saa - sa * sa, n * sbb - sb * sb
    if var_a == 0 or var_b == 0:
        return None
    return (n * sab - sa * sb) / math.sqrt(var_a * var_b)


def _pure_vs_mixture(psi: StateVector, amplitudes):
    """<B> on the premeasured pure state *psi* and on the mixture of its
    branches b_i = |s_i>|O_i> with the same weights |a_i|^2, sum_i |a_i|^2
    <b_i|B|b_i>: b_i is 1 on one row, so 2 per pair of the probe's rows on it."""
    b, weights = interference_operator(psi.layout), np.abs(amplitudes) ** 2
    rows = np.array([[psi.layout.flat_index({S_LABEL: i, O_LABEL: i + 1})] for i in range(len(weights))])
    on_both = (b.rows[0] == rows) & (b.rows[1] == rows)  # one row per branch
    return discriminate(psi, b), float(sum(weights * (2.0 * on_both.sum(axis=1))))


def run(scenario: Scenario):
    """Execute one scenario; returns ``(RunSummary, DualState)``.

    Deterministic given (scenario, seed): ``run`` builds the measurement model
    and premeasures the system once under its generator. Each runner turns
    them into its summary fields and event records, drawing the records in
    the one sampling loop ``_sample``: event ``eid``'s two uniforms come from
    its counter-based substream, the row ``eid`` of ``event_uniforms``. The
    pointer weights of the premeasured state are taken once, here, and every
    runner reads them.
    """
    model = scenario.model()
    psi = run_premeasurement(StateVector(model.s_layout(), scenario.amplitudes), model)
    fields, records = _RUNNERS[scenario.experiment](scenario, model, psi, branch_weights(psi))
    payload = json.dumps(scenario.canonical_dict(), sort_keys=True) + f"|dualmeas {__version__}"
    summary = RunSummary(
        experiment=scenario.experiment,
        seed=scenario.seed,
        n_events=scenario.n_events,
        tolerances={"algebraic": TOL_ALGEBRAIC, "roundtrip": TOL_ROUNDTRIP},
        fingerprint=sha256(payload.encode()).hexdigest()[:16],
        **fields,
    )
    return summary, records


def _sample(scenario: Scenario, psi: StateVector, weights, then=None, pdf=None) -> DualState:
    """The run's one sampling loop: one pass of the Philox kernel over its
    events, EVENT_BLOCK at a time, ``u[0][r]`` and ``u[1][r]`` the two draws
    of the block's event r. Each event's first record is drawn from the
    pointer weights *weights* of *psi* with its first uniform, perceived at
    the end of the window or, given a density *pdf*, at a time drawn from it
    with its second; ``then(state, u)`` turns that DualState of the block
    into the block's own. Each record column of the blocks goes into one
    whole column: a time as float64, an index in the narrowest unsigned type
    that holds the pointer basis (uint8 for o_dim <= 256). Returns the last
    block's state over all the events; every block's records passed its own
    checks, and its scalar steps are the same in every block."""
    n = scenario.n_events
    dtypes = (np.float64, np.min_scalar_type(scenario.o_dim - 1))  # of t and of j
    steps = None
    for lo, u in uniform_blocks(scenario.seed, n):
        t = scenario.delta_t if pdf is None else sample_perception_time(pdf, u[1])
        state = DualState(psi, len(u[0]), clock=scenario.delta_t).record(t, _draw_perceived(weights, u[0]))
        if then is not None:
            state = then(state, u)
        if steps is None:
            steps = [tuple(np.empty(n, dtype) if np.ndim(x) else x for dtype, x in zip(dtypes, step))
                     for step in state.steps]
        for whole, step in zip(steps, state.steps):
            for column, x in zip(whole, step):
                if np.ndim(x):
                    column[lo:lo + len(x)] = x
    return replace(state, n_events=n, steps=tuple(steps))


def _run_premeasure(scenario: Scenario, model: MeasurementModel, psi: StateVector, weights):
    dev = float(np.max(np.abs(weights[1:1 + model.s_dim] - np.abs(scenario.amplitudes) ** 2)))
    b_pure, b_mixed = _pure_vs_mixture(psi, scenario.amplitudes)
    r_pure, r_mixed, dist = premeasured_restrictions(
        psi.amplitudes.reshape(model.s_dim, model.o_dim), scenario.amplitudes)

    pdf = None
    if scenario.perception_mode == "sample":
        grid = np.linspace(0.0, scenario.delta_t, 201)
        pdf = perception_time_pdf(model, scenario.amplitudes, grid)
    records = _sample(scenario, psi, weights, pdf=pdf)
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)
    return dict(
        frequencies=freqs,
        b_values={"pure": b_pure, "mixed": b_mixed},
        restricted_states={
            "pure_ensemble": _complex_matrix_to_json(r_pure),
            "mixed_ensemble": _complex_matrix_to_json(r_mixed),
        },
        checks=[
            _check("branch weights equal |a_i|^2", dev, dev <= TOL_ALGEBRAIC),
            _check("interference expectation distinguishes pure from mixed ensembles",
                   b_mixed, abs(b_mixed) <= TOL_ALGEBRAIC),
            _check("pure and matched mixed restrictions coincide", dist, dist <= 1e-12),
            freq_check,
        ],
    ), records


def _run_undo(scenario: Scenario, model: MeasurementModel, psi: StateVector, weights):
    chain, persisted = [], 0  # the undone and re-measured states, and the latter's pointer weights

    def then(first, u):
        # Reverse, re-measure. Perception never back-reacts, so the dynamical
        # chain is shared by all events: the first block takes it, and each
        # block adds its two draws to the steps the chain appended.
        nonlocal persisted
        if not chain:
            undone = first.undo(model)
            measured = undone.measure(model)
            chain.extend([undone, measured, branch_weights(measured.phi_d)])
        _, measured, fresh = chain
        state = replace(measured, n_events=first.n_events, steps=first.steps + measured.steps[1:])
        state = state.record(measured.clock, _draw_perceived(fresh, u[1]))
        # Textbook collapse on the same draws: the events whose re-measured
        # outcome is the one they collapsed onto.
        collapsed = state.steps[0][1]
        persisted += np.count_nonzero(reduction_baseline(model, collapsed, u[1]) == collapsed)
        return state

    records = _sample(scenario, psi, weights, then)
    recovery = trace_distance(model.input_state(scenario.amplitudes), chain[0].phi_d)
    corr_dual = _correlation(records.steps[0][1], records.final_j)
    persistence = persisted / scenario.n_events
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)

    # 0.02 is the reference bound at 1e4 events; smaller runs get the
    # matching sampling allowance.
    corr_bound = max(0.02, 4.0 / math.sqrt(scenario.n_events))
    return dict(
        frequencies=freqs,
        correlations={
            "dual_old_new": corr_dual,
            "baseline_old_new": persistence,
            "recovery_trace_distance": recovery,
        },
        checks=[
            _check("undo restores the initial dynamical state", recovery,
                   recovery <= TOL_ROUNDTRIP),
            _check("dual model: erased and fresh outcomes uncorrelated", corr_dual,
                   corr_dual is None or abs(corr_dual) < corr_bound),
            _check("reduction baseline: outcome persists through undo", persistence,
                   persistence == 1.0),
            freq_check,
        ],
    ), records


def _joint_pointer_weights(model: MeasurementModel, p) -> np.ndarray:
    """(O, O2) pointer weights once O2 measures S by O's rotation, from the
    premeasured (s_dim, o_dim) amplitudes *p*: O2's turn keeps S's rows, so
    joint[o, o2] = sum_s |p[s, o]|^2 |R[s, o2]|^2, R a ready O2 turned beside each row."""
    r = model.rotate(np.tile(np.eye(1, model.o_dim), (model.s_dim, 1)), model.duration)
    return (p * p.conj()).real.T @ (r * r.conj()).real


def _run_two_observer(scenario: Scenario, model: MeasurementModel, psi: StateVector, weights):
    p = psi.amplitudes.reshape(model.s_dim, model.o_dim)

    # Coherence between branches 1 and 2 available to the second observer
    # between the two measurements: nonzero certifies no objective collapse at
    # t1. It is 2|rho_12| = |<B> + i<B'>|, B the interference probe and B' its
    # imaginary-part partner, so no relative phase of the branches hides it.
    b_mid = 2.0 * abs(np.vdot(p[0, 1], p[1, 2]))

    # Each event draws O's record from psi's pointer weights, and O2's a window
    # later from the joint row of that record (only a record with weight has
    # one), O2's ready weight left out as the first draw leaves O's.
    joint = _joint_pointer_weights(model, p)
    joint[:, 0] = 0.0
    rows = [joint[j] / joint[j].sum() if j and weights[j] else None for j in range(model.o_dim)]
    t2 = 2.0 * scenario.delta_t
    records = _sample(scenario, psi, weights,
                      lambda first, u: first.record(t2, draw_conditioned(rows, first.final_j, u[1])))
    (_, js1), (_, js2) = records.steps
    agree = np.count_nonzero(js1 == js2)
    rate = agree / scenario.n_events

    freqs, freq_check = _freq_check(js1, weights, scenario.n_events)
    a, angle = scenario.amplitudes, model.coupling * model.duration
    floor = 2.0 * abs(a[0] * a[1]) * math.sin(angle) ** 2 - 1e-10  # b_mid's closed form
    return dict(
        frequencies=freqs,
        b_values={"between_measurements": b_mid},
        correlations={"agreement_rate": rate},
        checks=[
            _check("second observer's perceived index equals the first's in every event", rate,
                   agree == scenario.n_events),
            _check("interference expectation nonzero between the two measurements", b_mid,
                   b_mid >= floor),
            freq_check,
        ],
    ), records


def _run_decohere(scenario: Scenario, model: MeasurementModel, psi: StateVector, weights):
    couplings = scenario.bath_couplings()
    b_pure = discriminate(psi, interference_operator(psi.layout))

    times = np.linspace(0.0, scenario.t_max, scenario.n_times)
    formula = offdiag_suppression(couplings, times)
    simulated, b_vals = [], []
    for coherence, overlap in run_decoherence(psi, couplings, times):
        simulated.append(overlap)
        b_vals.append(2.0 * coherence.real)  # discriminate(rho_SO, B): 2 Re rho_SO[r_2, r_1]
    # The cosine product is the decay of the coherence of branches 1 and 2;
    # with either branch empty there is none to compare (the simulated factor
    # is then 1). Both sides are product forms over the same couplings and
    # pointer values, so this is a rounding consistency check; the 2^N side
    # lives in the tests. Its absolute bound passes any factor below
    # DECOHERE_TOL, most times at hundreds of atoms (ROADMAP item 4).
    coherent = np.all(np.abs(scenario.amplitudes[:2]) >= EMPTY_BRANCH_NORM)
    worst_factor = max(abs(f - e) for f, e in zip(simulated, formula)) if coherent else 0.0
    worst_b = max(abs(b - b_pure * f.real) for b, f in zip(b_vals, simulated))

    # Each branch's bath state has norm 1: dephasing leaves psi's weights.
    records = _sample(scenario, psi, weights)
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)
    return dict(
        frequencies=freqs,
        b_values={"pure": b_pure},
        offdiag_curve={
            "times": [float(t) for t in times],
            "simulated": [[z.real, z.imag] for z in simulated],
            "formula": formula.tolist(),
            "b_damped": [float(x) for x in b_vals],
        },
        env_couplings=[float(g) for g in couplings],
        checks=[
            _check("simulated off-diagonal factor matches the cosine product", worst_factor,
                   worst_factor <= DECOHERE_TOL),
            _check("interference damped exactly by the off-diagonal factor", worst_b,
                   worst_b <= DECOHERE_TOL),
            freq_check,
        ],
    ), records


def _run_reduction_compare(scenario: Scenario, model: MeasurementModel, psi: StateVector, weights):
    """Matched dual and textbook-collapse ensembles, side by side."""
    fields, records = _run_undo(scenario, model, psi, weights)
    b_dual, b_baseline = _pure_vs_mixture(psi, scenario.amplitudes)
    fields["b_values"] = {"dual": b_dual, "reduction_baseline": b_baseline}
    fields["checks"].append(_check("interference discriminator: dual nonzero, baseline zero",
                                   b_baseline, abs(b_baseline) <= TOL_ALGEBRAIC))
    return fields, records


def _run_perception_timing(scenario: Scenario, model: MeasurementModel, psi: StateVector, weights):
    grid = np.linspace(0.0, scenario.delta_t, scenario.n_times)
    pdf = perception_time_pdf(model, scenario.amplitudes, grid)
    integral = simpson(pdf.density, pdf.times)
    # The rule's change from every other point of the grid (and its last) is a
    # pessimistic estimate of its error; a coarse grid keeps that allowance.
    # A half grid of at most 3 points can match the full rule by symmetry
    # alone, so there the trapezoid's change counts too.
    coarse = np.r_[0:len(grid) - 1:2, len(grid) - 1]
    rules = [simpson(pdf.density[coarse], pdf.times[coarse])]
    if len(coarse) <= 3:
        rules.append(np.sum(np.diff(pdf.times) * (pdf.density[1:] + pdf.density[:-1]) / 2))
    bound = max(1e-6, *(abs(integral - r) for r in rules))

    records = _sample(scenario, psi, weights, pdf=pdf)
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)
    return dict(
        frequencies=freqs,
        perception_pdf={
            "times": [float(t) for t in pdf.times],
            "density": [float(x) for x in pdf.density],
            "normalization": pdf.normalization,
        },
        checks=[
            _check("perception-time density integrates to 1 over the window", integral,
                   abs(integral - 1.0) <= bound),
            freq_check,
        ],
    ), records


# Each experiment's runner: the one list of experiments, in the order a
# scenario error names them.
_RUNNERS = {
    "premeasure": _run_premeasure,
    "undo": _run_undo,
    "two_observer": _run_two_observer,
    "decohere": _run_decohere,
    "reduction_compare": _run_reduction_compare,
    "perception_timing": _run_perception_timing,
}
EXPERIMENTS = tuple(_RUNNERS)
