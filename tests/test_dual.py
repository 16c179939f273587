"""Tests for the dual event-state layer: perception sampling, timing, undo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmeas.core import (
    CompositeLayout,
    InvariantError,
    LinearOperator,
    StateVector,
    embed,
    evolve_unitary,
    expectation,
    projector,
    tensor_compose,
)
from dualmeas.dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_state,
    build_meas_hamiltonian,
    run_premeasurement,
)
from dualmeas.dual import (
    EVENT_BLOCK,
    DualEventState,
    DualStatisticalState,
    ReductionBaselineState,
    draw_index,
    event_rng,
    event_uniforms,
    evolve_event,
    init_dual,
    jump_forbidden,
    perceive,
    perception_time_pdf,
    reduction_baseline,
    sample_perception_time,
    undo_dual,
)
from dualmeas.harness import Scenario, run

MODEL = MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)
SO = MODEL.so_layout()
AMPS = (math.sqrt(0.3), math.sqrt(0.7))


def ready_density(amplitudes=AMPS, model=MODEL):
    psi_s = StateVector.from_amplitudes(model.s_layout(), amplitudes)
    o_ready = StateVector.basis(CompositeLayout(((O_LABEL, model.o_dim),)), {})
    return tensor_compose([psi_s, o_ready]).to_density()


def measured_event(amplitudes=AMPS, event_id=0):
    psi_s = StateVector.from_amplitudes(MODEL.s_layout(), amplitudes)
    psi = run_premeasurement(psi_s, MODEL)
    ev = init_dual(ready_density(amplitudes), event_id=event_id)
    return DualEventState(phi_d=psi.to_density(), phi_i=ev.phi_i,
                          event_id=event_id, clock=MODEL.duration)


class TestDrawIndex:
    def test_deterministic_on_point_mass(self):
        rng = event_rng(1, 0)
        w = np.array([0.0, 1.0, 0.0])
        assert all(draw_index(w, rng.random()) == 1 for _ in range(20))

    def test_never_draws_zero_weight(self):
        rng = event_rng(2, 0)
        w = np.array([0.0, 0.5, 0.5])
        assert all(draw_index(w, rng.random()) != 0 for _ in range(200))

    def test_frequencies_track_weights(self):
        rng = event_rng(3, 0)
        w = np.array([0.2, 0.3, 0.5])
        draws = np.array([draw_index(w, rng.random()) for _ in range(20000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        # 4 sigma on 20000 samples for p=0.5 is ~0.014
        assert np.max(np.abs(freq - w)) < 0.015


class TestEventRng:
    def test_streams_are_order_independent(self):
        a = event_rng(7, 5).random(4)
        _ = event_rng(7, 9).random(4)
        b = event_rng(7, 5).random(4)
        assert np.array_equal(a, b)

    def test_distinct_events_differ(self):
        assert not np.array_equal(event_rng(7, 0).random(4), event_rng(7, 1).random(4))

    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
           n=st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_batched_kernel_matches_event_rng(self, seed, n):
        # Small event ids suffice: after the first round every operand of the
        # 128-bit multiply is full-width.
        rows = event_uniforms(seed, n)
        for eid in range(n):
            assert np.array_equal(rows[eid], event_rng(seed, eid).random(4))

    @pytest.mark.parametrize("n", [EVENT_BLOCK - 1, EVENT_BLOCK, EVENT_BLOCK + 1])
    def test_blocks_match_event_rng(self, n):
        rows = event_uniforms(2**64 - 1, n)
        assert rows.shape == (n, 4)
        for eid in range(n):
            assert np.array_equal(rows[eid], event_rng(2**64 - 1, eid).random(4))


class TestInitDual:
    def test_ready_start_accepted(self):
        ev = init_dual(ready_density())
        assert ev.phi_i == 0
        assert ev.clock == 0.0

    def test_rejects_excited_observer(self):
        psi = tensor_compose([
            StateVector.from_amplitudes(MODEL.s_layout(), AMPS),
            StateVector.basis(CompositeLayout(((O_LABEL, 3),)), {O_LABEL: 1}),
        ])
        with pytest.raises(InvariantError):
            init_dual(psi.to_density())

    def test_rejects_out_of_range_record(self):
        with pytest.raises(InvariantError):
            DualEventState(phi_d=ready_density(), phi_i=3)


def evolve_statistical(theta, h, t):
    """Unitary evolution of the statistical component, probabilities recomputed."""
    return DualStatisticalState.from_density(evolve_unitary(theta.eta_d, h, t))


class TestStatisticalEvolution:
    def test_system_only_generator_keeps_probs_fixed(self):
        theta = DualStatisticalState.from_density(ready_density())
        h_s = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = LinearOperator(SO, embed(SO, {S_LABEL: h_s}))
        out = evolve_statistical(theta, h, 0.7)
        assert np.allclose(out.perception_probs, theta.perception_probs, atol=1e-12)

    def test_full_measurement_transfers_weights(self):
        theta = DualStatisticalState.from_density(ready_density())
        h = build_meas_hamiltonian(MODEL, SO)
        out = evolve_statistical(theta, h, MODEL.duration)
        assert np.allclose(out.perception_probs, [0.0, 0.3, 0.7], atol=1e-12)

    def test_half_duration_rabi_weight(self):
        # at lambda*t = pi/4 each branch has transferred sin^2(pi/4) = 1/2
        theta = DualStatisticalState.from_density(ready_density((1.0, 0.0)))
        h = build_meas_hamiltonian(MODEL, SO)
        out = evolve_statistical(theta, h, MODEL.duration / 2)
        assert abs(out.perception_probs[1] - 0.5) < 1e-12

    def test_inconsistent_probs_rejected(self):
        with pytest.raises(InvariantError):
            DualStatisticalState(ready_density(), np.array([0.0, 0.3, 0.7]))


class TestPerceive:
    def test_requires_completed_measurement(self):
        ev = init_dual(ready_density())
        with pytest.raises(InvariantError):
            perceive(ev, event_rng(0, 0))

    def test_record_set_dynamics_untouched(self):
        ev = measured_event()
        out = perceive(ev, event_rng(11, 0))
        assert out.phi_i in (1, 2)
        assert np.array_equal(out.phi_d.entries, ev.phi_d.entries)

    def test_eigenstate_input_is_deterministic(self):
        ev = measured_event(amplitudes=(0.0, 1.0))
        for k in range(30):
            assert perceive(ev, event_rng(5, k)).phi_i == 2

    def test_zero_weight_branch_never_drawn(self):
        ev = measured_event(amplitudes=(1.0, 0.0))
        for k in range(30):
            assert perceive(ev, event_rng(6, k)).phi_i == 1

    def test_frequencies_match_born_weights(self):
        ev = measured_event()
        draws = np.array([perceive(ev, event_rng(12, k)).phi_i for k in range(5000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert abs(freq[1] - 0.3) < 0.03
        assert abs(freq[2] - 0.7) < 0.03

    def test_perceive_matches_fast_path_draw(self):
        # the harness precomputes weights and calls draw_index directly; both
        # routes must consume the stream identically
        ev = measured_event()
        w = ev.perception_weights()
        assert perceive(ev, event_rng(13, 42)).phi_i == draw_index(w, event_rng(13, 42).random())


class TestPerceptionTiming:
    def test_density_normalizes_to_one(self):
        from scipy.integrate import simpson

        grid = np.linspace(0.0, MODEL.duration, 801)
        pdf = perception_time_pdf(MODEL, AMPS, grid)
        assert abs(simpson(pdf.density, x=grid) - 1.0) < 1e-6

    def test_matches_rabi_rate_formula(self):
        # for the calibrated model the outflow rate is lam*sin(2*lam*t),
        # independent of the amplitudes
        lam = MODEL.coupling
        grid = np.linspace(0.0, MODEL.duration, 101)
        pdf = perception_time_pdf(MODEL, AMPS, grid)
        assert np.max(np.abs(pdf.density - lam * np.sin(2.0 * lam * grid))) < 1e-8

    def test_peak_at_window_midpoint(self):
        grid = np.linspace(0.0, MODEL.duration, 501)
        pdf = perception_time_pdf(MODEL, AMPS, grid)
        assert abs(grid[np.argmax(pdf.density)] - MODEL.duration / 2) < 2e-3

    def test_sampled_times_follow_density(self):
        grid = np.linspace(0.0, MODEL.duration, 501)
        pdf = perception_time_pdf(MODEL, AMPS, grid)
        rng = event_rng(21, 0)
        ts = np.array([sample_perception_time(pdf, rng.random()) for _ in range(20000)])
        # P(t < duration/2) = sin^2(lam*duration/2) = 1/2 for the calibrated model
        assert abs(np.mean(ts < MODEL.duration / 2) - 0.5) < 0.015
        assert ts.min() >= 0.0 and ts.max() <= MODEL.duration


def _swap_generator(layout):
    """Hermitian generator that rotates branch 1 into branch 2."""
    b1 = branch_state(layout, 1).amplitudes
    b2 = branch_state(layout, 2).amplitudes
    m = (math.pi / 2) * (np.outer(b1, b2.conj()) + np.outer(b2, b1.conj()))
    return LinearOperator(layout, m)


class TestNoJumpRule:
    def test_identity_evolution_forbids_jumps(self):
        ev = perceive(measured_event(), event_rng(31, 0))
        h = LinearOperator(SO, np.zeros((SO.total_dim, SO.total_dim)))
        forbidden, p = jump_forbidden(ev, h, 1.0)
        assert forbidden
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_pointer_commuting_generator_forbids_jumps(self):
        ev = perceive(measured_event(), event_rng(32, 0))
        h = LinearOperator(SO, embed(SO, {O_LABEL: np.diag([0.0, 1.0, -1.0])}))
        forbidden, _ = jump_forbidden(ev, h, 2.3)
        assert forbidden

    def test_branch_swap_breaks_rule(self):
        ev = perceive(measured_event(), event_rng(33, 0))
        forbidden, p = jump_forbidden(ev, _swap_generator(SO), 1.0)
        assert not forbidden
        # at this angle the swap is complete
        assert abs(p[0, 1] - 1.0) < 1e-12
        assert abs(p[1, 0] - 1.0) < 1e-12

    def test_evolve_event_holds_record_when_forbidden(self):
        ev = perceive(measured_event(), event_rng(34, 0))
        h = LinearOperator(SO, embed(SO, {O_LABEL: np.diag([0.0, 1.0, -1.0])}))
        out, flags = evolve_event(ev, h, 0.8)
        assert out.phi_i == ev.phi_i
        assert flags == []
        assert out.clock == pytest.approx(ev.clock + 0.8)

    def test_evolve_event_resamples_when_branches_mix(self):
        ev = perceive(measured_event(), event_rng(35, 0))
        out, flags = evolve_event(ev, _swap_generator(SO), 0.5, rng=event_rng(35, 1))
        assert "re-perception" in flags
        assert out.phi_i in (1, 2)

    def test_evolve_event_branch_mix_without_rng_raises(self):
        ev = perceive(measured_event(), event_rng(36, 0))
        with pytest.raises(InvariantError):
            evolve_event(ev, _swap_generator(SO), 0.5)


class TestUndo:
    def test_requires_a_record(self):
        ev = measured_event()
        with pytest.raises(InvariantError):
            undo_dual(ev, MODEL)

    def test_restores_ready_state_and_erases_record(self):
        ev = perceive(measured_event(), event_rng(41, 0))
        out = undo_dual(ev, MODEL)
        assert out.phi_i == 0
        ready = expectation(out.phi_d, projector(SO, O_LABEL, 0))
        assert ready == pytest.approx(1.0, abs=1e-10)
        # system amplitudes are back too
        rho0 = ready_density()
        assert np.max(np.abs(out.phi_d.entries - rho0.entries)) < 1e-10

    def test_rejects_non_postmeasurement_state(self):
        ev = DualEventState(phi_d=ready_density(), phi_i=1)
        with pytest.raises(InvariantError):
            undo_dual(ev, MODEL)

    def test_redraw_is_independent_of_erased_record(self):
        h = build_meas_hamiltonian(MODEL, SO)
        n = 4000
        old = np.empty(n, dtype=int)
        new = np.empty(n, dtype=int)
        for k in range(n):
            rng = event_rng(42, k)
            ev = init_dual(ready_density(), event_id=k)
            ev, _ = evolve_event(ev, h, MODEL.duration)
            ev = perceive(ev, rng)
            old[k] = ev.phi_i
            ev = undo_dual(ev, MODEL)
            ev, _ = evolve_event(ev, h, MODEL.duration)
            new[k] = perceive(ev, rng).phi_i
        x, y = old.astype(float), new.astype(float)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("amplitudes", [AMPS, (math.sqrt(0.3), 1j * math.sqrt(0.7))])
    def test_event_chain_matches_undo_runner(self, amplitudes):
        # The undo runner draws (j_old, j_new) from precomputed pointer
        # weights; the event-level chain is the reference for every event.
        seed = 20260826
        sc = Scenario(experiment="undo", amplitudes=np.array(amplitudes), seed=seed, n_events=64)
        h = build_meas_hamiltonian(MODEL, SO)
        records = run(sc)[1]
        for eid, js in zip(records.event_ids.tolist(), records.indices.tolist()):
            rng = event_rng(seed, eid)
            ev = init_dual(ready_density(amplitudes), event_id=eid)
            ev = perceive(evolve_event(ev, h, MODEL.duration)[0], rng)
            j_old = ev.phi_i
            ev = evolve_event(undo_dual(ev, MODEL), h, MODEL.duration)[0]
            assert (j_old, perceive(ev, rng).phi_i) == (js[0], js[-1])


class TestReductionBaseline:
    def test_collapsed_state_is_an_eigenstate(self):
        psi = StateVector.from_amplitudes(MODEL.s_layout(), AMPS)
        out = reduction_baseline(psi, event_rng(51, 0))
        assert out.collapsed_index in (1, 2)
        amps = out.s_state.amplitudes
        assert abs(abs(amps[out.collapsed_index - 1]) - 1.0) < 1e-12

    def test_remeasurement_repeats_the_outcome(self):
        psi = StateVector.from_amplitudes(MODEL.s_layout(), AMPS)
        for k in range(50):
            first = reduction_baseline(psi, event_rng(52, k))
            again = reduction_baseline(first.s_state, event_rng(53, k))
            assert again.collapsed_index == first.collapsed_index

    def test_outcome_frequencies_are_born(self):
        psi = StateVector.from_amplitudes(MODEL.s_layout(), AMPS)
        idx = np.array([reduction_baseline(psi, event_rng(54, k)).collapsed_index
                        for k in range(5000)])
        assert abs(np.mean(idx == 1) - 0.3) < 0.03

    def test_mismatched_state_rejected(self):
        psi = StateVector.from_amplitudes(MODEL.s_layout(), AMPS)
        with pytest.raises(InvariantError):
            ReductionBaselineState(collapsed_index=1, s_state=psi)


class TestObjectivity:
    def test_dynamics_identical_with_and_without_perception(self):
        h = build_meas_hamiltonian(MODEL, SO)
        a = init_dual(ready_density(), event_id=0)
        b = init_dual(ready_density(), event_id=0)
        a, _ = evolve_event(a, h, MODEL.duration)
        b, _ = evolve_event(b, h, MODEL.duration)
        b = perceive(b, event_rng(61, 0))
        assert np.array_equal(a.phi_d.entries, b.phi_d.entries)

    def test_ensemble_state_equals_event_average(self):
        h = build_meas_hamiltonian(MODEL, SO)
        theta = DualStatisticalState.from_density(ready_density())
        theta = evolve_statistical(theta, h, MODEL.duration)
        ev = measured_event()
        assert np.max(np.abs(theta.eta_d.entries - ev.phi_d.entries)) < 1e-12
        assert np.allclose(theta.perception_probs, ev.perception_weights(), atol=1e-12)
