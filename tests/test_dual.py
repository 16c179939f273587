"""Tests for the dual state: perception sampling, timing, the no-jump rule, undo."""

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
    branch_weights,
    build_meas_hamiltonian,
    run_premeasurement,
)
from dualmeas.dual import (
    EVENT_BLOCK,
    DualState,
    ReductionBaselineState,
    draw_index,
    event_rng,
    event_uniforms,
    jump_forbidden,
    perception_time_pdf,
    reduction_baseline,
    sample_perception_time,
)
from dualmeas.harness import Scenario, run

MODEL = MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)
SO = MODEL.so_layout()
AMPS = (math.sqrt(0.3), math.sqrt(0.7))


def ready_density(amplitudes=AMPS, model=MODEL):
    psi_s = StateVector.from_amplitudes(model.s_layout(), amplitudes)
    o_ready = StateVector.basis(CompositeLayout(((O_LABEL, model.o_dim),)), {})
    return tensor_compose([psi_s, o_ready]).to_density()


def measured(amplitudes=AMPS, n=1):
    """The post-measurement dual state of *n* events, before any record."""
    psi_s = StateVector.from_amplitudes(MODEL.s_layout(), amplitudes)
    return DualState(run_premeasurement(psi_s, MODEL).to_density(), n, clock=MODEL.duration)


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
    """A fresh dual state holds no information until its first record."""

    def test_ready_start_accepted(self):
        state = DualState(ready_density(), 1)
        assert state.final_j == 0 and state.steps == ()
        assert state.clock == 0.0

    def test_rejects_out_of_range_record(self):
        with pytest.raises(InvariantError):
            DualState(ready_density(), 1).record(0.0, 3)


class TestStatisticalEvolution:
    """The ensemble's perception probabilities are the pointer weights of the
    unitarily evolved statistical state."""

    def test_system_only_generator_keeps_probs_fixed(self):
        h_s = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = LinearOperator(SO, embed(SO, {S_LABEL: h_s}))
        out = evolve_unitary(ready_density(), h, 0.7)
        assert np.allclose(branch_weights(out), branch_weights(ready_density()), atol=1e-12)

    def test_full_measurement_transfers_weights(self):
        h = build_meas_hamiltonian(MODEL, SO)
        out = evolve_unitary(ready_density(), h, MODEL.duration)
        assert np.allclose(branch_weights(out), [0.0, 0.3, 0.7], atol=1e-12)

    def test_half_duration_rabi_weight(self):
        # at lambda*t = pi/4 each branch has transferred sin^2(pi/4) = 1/2
        h = build_meas_hamiltonian(MODEL, SO)
        out = evolve_unitary(ready_density((1.0, 0.0)), h, MODEL.duration / 2)
        assert abs(branch_weights(out)[1] - 0.5) < 1e-12


class TestPerceive:
    def test_requires_completed_measurement(self):
        with pytest.raises(InvariantError):
            DualState(ready_density(), 1).perceive(0.5)

    def test_record_set_dynamics_untouched(self):
        state = measured(n=8)
        out = state.perceive(event_uniforms(11, 8)[:, 0])
        assert set(out.final_j.tolist()) <= {1, 2}
        assert len(out.steps) == 1 and out.t_perceive == MODEL.duration
        assert np.array_equal(out.phi_d.entries, state.phi_d.entries)

    def test_eigenstate_input_is_deterministic(self):
        out = measured(amplitudes=(0.0, 1.0), n=30).perceive(event_uniforms(5, 30)[:, 0])
        assert np.all(out.final_j == 2)

    def test_zero_weight_branch_never_drawn(self):
        out = measured(amplitudes=(1.0, 0.0), n=30).perceive(event_uniforms(6, 30)[:, 0])
        assert np.all(out.final_j == 1)

    def test_frequencies_match_born_weights(self):
        draws = measured(n=5000).perceive(event_uniforms(12, 5000)[:, 0]).final_j
        freq = np.bincount(draws, minlength=3) / draws.size
        assert abs(freq[1] - 0.3) < 0.03
        assert abs(freq[2] - 0.7) < 0.03

    def test_perceive_matches_fast_path_draw(self):
        # event k of the batched draw is the first draw of its own stream
        state = measured(n=50)
        w = branch_weights(state.phi_d)
        js = state.perceive(event_uniforms(13, 50)[:, 0]).final_j
        assert js.tolist() == [draw_index(w, event_rng(13, k).random()) for k in range(50)]
        assert state.perceive(event_rng(13, 42).random()).final_j == js[42]


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


def _pointer_diagonal_generator(layout):
    """Generator diagonal in the pointer basis: it keeps every branch, up to a phase."""
    return LinearOperator(layout, embed(layout, {O_LABEL: np.diag([0.0, 1.0, -1.0])}))


class TestNoJumpRule:
    def test_identity_evolution_forbids_jumps(self):
        h = LinearOperator(SO, np.zeros((SO.total_dim, SO.total_dim)))
        forbidden, p = jump_forbidden(h, 1.0)
        assert forbidden
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_pointer_commuting_generator_forbids_jumps(self):
        forbidden, _ = jump_forbidden(_pointer_diagonal_generator(SO), 2.3)
        assert forbidden

    def test_branch_swap_breaks_rule(self):
        forbidden, p = jump_forbidden(_swap_generator(SO), 1.0)
        assert not forbidden
        # at this angle the swap is complete
        assert abs(p[0, 1] - 1.0) < 1e-12
        assert abs(p[1, 0] - 1.0) < 1e-12

    def test_evolve_holds_record_when_forbidden(self):
        state = measured(n=8).perceive(event_uniforms(34, 8)[:, 0])
        out = state.evolve(_pointer_diagonal_generator(SO), 0.8)
        assert out.steps is state.steps
        assert out.flags == ()
        assert out.clock == pytest.approx(state.clock + 0.8)

    def test_evolve_resamples_when_branches_mix(self):
        u = event_uniforms(35, 8)
        state = measured(n=8).perceive(u[:, 0])
        out = state.evolve(_swap_generator(SO), 0.5, u=u[:, 1])
        assert out.flags == ("re-perception",)
        assert len(out.steps) == 2
        assert set(out.final_j.tolist()) <= {1, 2}

    def test_evolve_branch_mix_without_uniforms_raises(self):
        state = measured().perceive(0.5)
        with pytest.raises(InvariantError):
            state.evolve(_swap_generator(SO), 0.5)

    @given(t=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), st.floats(0.0, 4.0)),
           diag=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_evolve_over_branch_swap_angles(self, t, diag, seed):
        # The swap turns branch 1 into branch 2 by the angle pi*t/2, so it
        # mixes them except at even t; a pointer-diagonal generator never does.
        u = event_uniforms(seed, 16)
        state = measured(n=16).perceive(u[:, 0])
        held = state.evolve(LinearOperator(SO, np.diag(diag)), t)
        assert held.steps is state.steps and held.flags == ()
        h = _swap_generator(SO)
        if jump_forbidden(h, t)[0]:
            out = state.evolve(h, t)
            assert out.steps is state.steps and out.flags == ()
            return
        with pytest.raises(InvariantError):
            state.evolve(h, t)
        out = state.evolve(h, t, u=u[:, 1])
        assert out.flags == ("re-perception",)
        w = branch_weights(evolve_unitary(state.phi_d, h, t))
        assert out.steps[-1][0] == state.clock + t
        assert np.array_equal(out.final_j, draw_index(w, u[:, 1]))


class TestUndo:
    def test_requires_a_record(self):
        with pytest.raises(InvariantError):
            measured().undo(MODEL)

    def test_restores_ready_state_and_erases_record(self):
        state = measured(n=4).perceive(event_uniforms(41, 4)[:, 0])
        out = state.undo(MODEL)
        assert out.final_j == 0 and out.flags == ("undo",)
        assert out.steps[-1] == (2 * MODEL.duration, 0)
        ready = expectation(out.phi_d, projector(SO, O_LABEL, 0))
        assert ready == pytest.approx(1.0, abs=1e-10)
        # system amplitudes are back too
        rho0 = ready_density()
        assert np.max(np.abs(out.phi_d.entries - rho0.entries)) < 1e-10

    def test_rejects_non_postmeasurement_state(self):
        state = DualState(ready_density(), 1).record(0.0, 1)
        with pytest.raises(InvariantError):
            state.undo(MODEL)

    def test_redraw_is_independent_of_erased_record(self):
        h = build_meas_hamiltonian(MODEL, SO)
        n = 4000
        u = event_uniforms(42, n)
        state = DualState(ready_density(), n).evolve(h, MODEL.duration).perceive(u[:, 0])
        out = state.undo(MODEL).evolve(h, MODEL.duration).perceive(u[:, 1])
        x, y = state.final_j.astype(float), out.final_j.astype(float)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("amplitudes", [AMPS, (math.sqrt(0.3), 1j * math.sqrt(0.7))])
    def test_event_chain_matches_undo_runner(self, amplitudes):
        # Stream order: each event's erased and fresh records are the first
        # and second draws of its own stream, from the premeasured weights.
        seed = 20260826
        sc = Scenario(experiment="undo", amplitudes=np.array(amplitudes), seed=seed, n_events=64)
        w = branch_weights(run_premeasurement(sc.system_state(), sc.model()))
        records = run(sc)[1]
        j_old, j_new = records.steps[0][1].tolist(), records.final_j.tolist()
        for eid in range(sc.n_events):
            r = event_rng(seed, eid)
            assert (j_old[eid], j_new[eid]) == (draw_index(w, r.random()), draw_index(w, r.random()))


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
        a = DualState(ready_density(), 1).evolve(h, MODEL.duration)
        b = DualState(ready_density(), 1).evolve(h, MODEL.duration).perceive(0.5)
        assert np.array_equal(a.phi_d.entries, b.phi_d.entries)

    def test_ensemble_state_equals_event_average(self):
        h = build_meas_hamiltonian(MODEL, SO)
        eta = evolve_unitary(ready_density(), h, MODEL.duration)
        state = measured()
        assert np.max(np.abs(eta.entries - state.phi_d.entries)) < 1e-12
        assert np.allclose(branch_weights(eta), branch_weights(state.phi_d), atol=1e-12)
