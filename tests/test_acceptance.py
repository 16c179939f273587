"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(bypassing pytest capture, so the lines appear even on quiet runs).
"""

import math
import time

import numpy as np

from dualmeas import replace
from dualmeas.core import (
    DensityMatrix,
    StateVector,
    evolve_unitary,
)
from dualmeas.dual import DualState, event_uniforms, perception_time_pdf
from dualmeas.dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    run_premeasurement,
)
from dualmeas.core import LinearOperator, embed
from dualmeas.harness import run
from dualmeas.interference import discriminate, interference_operator
from dualmeas.restriction import breuer_distinguishable, restricted_state
from dualmeas.scenario import Scenario
from dualmeas.writer import emit

SEED = 20260826
AMPS = (math.sqrt(0.3), math.sqrt(0.7))


def _report(capsys, number, name, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{tag}] criterion {number}: {name}{suffix}", flush=True)
    assert passed, f"criterion {number}: {name}{suffix}"


def _scenario(experiment, **overrides):
    base = dict(experiment=experiment, amplitudes=np.array(AMPS), seed=SEED)
    base.update(overrides)
    return Scenario(**base)


def _matched_mixture(model):
    layout = model.so_layout()
    parts = [StateVector.basis(layout, {S_LABEL: i, O_LABEL: i + 1})
             for i in range(model.s_dim)]
    return DensityMatrix.mixture(np.abs(np.array(AMPS)) ** 2, parts)


def test_criterion_1_born_statistics(capsys):
    t0 = time.perf_counter()
    summary, _ = run(_scenario("premeasure", n_events=100000))
    elapsed = time.perf_counter() - t0
    f1 = summary.frequencies[1]
    ok = 0.29 <= f1 <= 0.31 and elapsed < 10.0
    _report(capsys, 1, "Born statistics at 1e5 events", ok,
            f"freq(j=1)={f1:.5f}, runtime={elapsed:.2f}s")


def test_criterion_2_interference_discrimination(capsys):
    model = MeasurementModel.calibrated()
    sym = (1 / math.sqrt(2), 1 / math.sqrt(2))
    psi = run_premeasurement(StateVector(model.s_layout(), sym), model)
    b = interference_operator(model.so_layout())
    b_pure = discriminate(psi.to_density(), b)
    layout = model.so_layout()
    parts = [StateVector.basis(layout, {S_LABEL: i, O_LABEL: i + 1}) for i in range(2)]
    b_mixed = discriminate(DensityMatrix.mixture((0.5, 0.5), parts), b)
    ok = abs(b_pure - 1.0) <= 1e-12 and abs(b_mixed) <= 1e-12
    _report(capsys, 2, "interference discrimination pure vs mixed", ok,
            f"pure={b_pure:.3e}, mixed={b_mixed:.3e}")


def test_criterion_3_breuer_indistinguishability(capsys):
    model = MeasurementModel.calibrated()
    layout = model.so_layout()
    rng = np.random.default_rng(SEED)
    worst_ens = 0.0
    worst_margin = np.inf
    ok = True
    for _ in range(100):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        psi = run_premeasurement(StateVector(model.s_layout(), a), model)
        rho = psi.to_density()
        w = np.abs(a) ** 2
        parts = [StateVector.basis(layout, {S_LABEL: i, O_LABEL: i + 1}) for i in range(2)]
        mixed = DensityMatrix.mixture(w, parts)
        r_pure = restricted_state(rho, source_kind="pure_ensemble")
        r_mixed = restricted_state(mixed, source_kind="mixed_ensemble")
        _, dist = breuer_distinguishable(r_pure, r_mixed)
        worst_ens = max(worst_ens, dist)
        ok = ok and dist <= 1e-12
        floor = float(np.min(1.0 - w)) - 1e-9
        for j in (1, 2):
            event_rho = StateVector.basis(layout, {S_LABEL: j - 1, O_LABEL: j}).to_density()
            r_event = restricted_state(event_rho, source_kind="individual_event")
            _, d_event = breuer_distinguishable(r_event, r_pure)
            worst_margin = min(worst_margin, d_event - floor)
            ok = ok and d_event >= floor
    _report(capsys, 3, "ensemble restrictions coincide, event restrictions differ", ok,
            f"max ensemble dist={worst_ens:.2e}, min event margin={worst_margin:.2e}")


def test_criterion_4_undoing_reversibility(capsys):
    summary, _ = run(_scenario("undo", n_events=10000))
    recovery = summary.correlations["recovery_trace_distance"]
    corr = summary.correlations["dual_old_new"]
    base = summary.correlations["baseline_old_new"]
    ok = recovery <= 1e-10 and abs(corr) <= 0.02 and base == 1.0
    _report(capsys, 4, "undoing reversibility and outcome independence", ok,
            f"recovery={recovery:.2e}, dual corr={corr:.4f}, collapse persistence={base}")


def test_criterion_5_decoherence_law(capsys):
    summary, _ = run(_scenario("decohere", env_atoms=8, t_max=1.0, n_times=50,
                               n_events=100))
    curve = summary.offdiag_curve
    sim = np.array([complex(re, im) for re, im in curve["simulated"]])
    formula = np.array(curve["formula"])
    b_damped = np.array(curve["b_damped"])
    b_pure = summary.b_values["pure"]
    worst_factor = float(np.max(np.abs(sim - formula)))
    worst_b = float(np.max(np.abs(b_damped - b_pure * sim.real)))
    ok = len(formula) == 50 and worst_factor <= 1e-10 and worst_b <= 1e-10
    _report(capsys, 5, "dephasing follows the cosine-product law", ok,
            f"factor dev={worst_factor:.2e}, interference dev={worst_b:.2e}")


def test_criterion_6_perception_time_pdf(capsys):
    from scipy.integrate import simpson

    model = MeasurementModel.calibrated()
    grid = np.linspace(0.0, model.duration, 401)
    pdf = perception_time_pdf(model, AMPS, grid)
    integral = float(simpson(pdf.density, x=grid))
    lam = model.coupling
    pointwise = float(np.max(np.abs(pdf.density - lam * np.sin(2 * lam * grid))))
    ok = abs(integral - 1.0) <= 1e-6 and pointwise <= 1e-8
    _report(capsys, 6, "perception-time density normalized and analytic", ok,
            f"integral={integral:.8f}, pointwise dev={pointwise:.2e}")


def test_criterion_7_two_observer_agreement(capsys):
    summary, records = run(_scenario("two_observer", n_events=10000))
    rate = summary.correlations["agreement_rate"]
    b_mid = summary.b_values["between_measurements"]
    floor = 2.0 * abs(AMPS[0] * AMPS[1]) - 1e-10
    ok = rate == 1.0 and b_mid >= floor
    _report(capsys, 7, "two-observer agreement with intact coherence", ok,
            f"agreement={rate:.4f} over {records.n_events} events, "
            f"b_mid={b_mid:.6f} >= {floor:.6f}")


def test_criterion_8_conservation_suite(capsys):
    ok = True
    details = []
    # every scenario runs its internal invariant audits without raising
    for exp in ("premeasure", "undo", "two_observer", "reduction_compare",
                "perception_timing"):
        summary, _ = run(_scenario(exp, n_events=50))
        ok = ok and all(c["passed"] for c in summary.checks)
    summary, _ = run(_scenario("decohere", env_atoms=4, n_times=10, n_events=50))
    ok = ok and all(c["passed"] for c in summary.checks)

    # purity invariant under closed evolution
    model = MeasurementModel.calibrated()
    ready = np.eye(model.o_dim, dtype=complex)[0]
    rho0 = StateVector(model.so_layout(), np.kron(np.asarray(AMPS, dtype=complex), ready)).to_density()
    h = model.hamiltonian
    purity0 = np.trace(rho0.entries @ rho0.entries).real
    purity_drift = 0.0
    for t in (0.3, 0.7, 1.0, 2.5):
        rho_t = evolve_unitary(rho0, h, t).entries
        purity_drift = max(purity_drift, abs(np.trace(rho_t @ rho_t).real - purity0))
    ok = ok and purity_drift <= 1e-10
    details.append(f"purity drift={purity_drift:.2e}")

    # eigenstate inputs perceive deterministically
    psi = run_premeasurement(StateVector(model.s_layout(), (0.0, 1.0)), model)
    post = DualState(psi.to_density(), 100, clock=model.duration)
    deterministic = bool(np.all(post.perceive(event_uniforms(SEED, 100)[:, 0]).final_j == 2))
    ok = ok and deterministic
    details.append(f"eigenstate deterministic={deterministic}")
    _report(capsys, 8, "conservation and calibration invariants", ok, ", ".join(details))


def test_criterion_9_no_jump_rule(capsys):
    model = MeasurementModel.calibrated()
    layout = model.so_layout()
    psi = run_premeasurement(StateVector(model.s_layout(), AMPS), model)
    h_hold = LinearOperator(layout, embed(layout, {O_LABEL: np.diag([0.0, 1.0, -1.0])}))
    state = DualState(psi.to_density(), 20, clock=model.duration)
    state = state.perceive(event_uniforms(SEED, 20)[:, 0])
    steps, ok = state.steps, True
    for _ in range(100):
        state = state.evolve(h_hold, 0.05)
        ok = ok and state.steps is steps and not state.flags
    _report(capsys, 9, "perception record constant under branch-preserving evolution", ok,
            "20 events x 100 steps")


def test_criterion_10_determinism(capsys, tmp_path):
    sc = replace(_scenario("undo", n_events=500), out_format="csv")
    blobs = []
    for name in ("first", "second"):
        summary, records = run(sc)
        paths = emit(summary, records, tmp_path / name, fmt="csv")
        blobs.append(tuple(open(p, "rb").read() for p in paths))
    ok = blobs[0] == blobs[1]
    _report(capsys, 10, "byte-identical outputs across repeated runs", ok,
            f"{len(blobs[0])} files compared")
