import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmeas.core import (
    CompositeLayout,
    InvariantError,
    LayoutError,
    StateVector,
    TOL_ALGEBRAIC,
    embed,
    evolve_unitary,
    expectation,
    LinearOperator,
    projector,
    trace_distance,
)
from dualmeas.dynamics import (
    EnvironmentModel,
    MeasurementModel,
    attach_environment,
    branch_weights,
    build_dephasing_hamiltonian,
    default_pointer_values,
    env_label,
    offdiag_suppression,
    reverse_evolution,
    run_decoherence,
    run_premeasurement,
)


def s_state(*amps):
    lay = CompositeLayout((("S", len(amps)),))
    return StateVector.from_amplitudes(lay, np.array(amps, complex), normalize=True)


@pytest.fixture
def model():
    return MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)


class TestModelValidation:
    def test_calibration(self, model):
        assert abs(model.coupling * model.duration - math.pi / 2) < 1e-15

    def test_pointer_capacity(self):
        with pytest.raises(InvariantError):
            MeasurementModel(s_dim=3, o_dim=3, coupling=1.0, duration=1.0)

    def test_default_pointer_values(self):
        np.testing.assert_allclose(default_pointer_values(5), [0, 1, -1, 2, -2])

    def test_env_pointer_values_distinct(self):
        with pytest.raises(InvariantError):
            EnvironmentModel(n_atoms=0, couplings=[], pointer_values=np.array([0.0, 1.0, 1.0]))


class TestMeasurementHamiltonian:
    def test_hermitian(self, model):
        h = model.hamiltonian
        np.testing.assert_allclose(h.entries, h.entries.conj().T, atol=TOL_ALGEBRAIC)

    def test_full_transfer_of_eigenstate(self, model):
        # two-level rotation at coupling*duration = pi/2 moves all weight
        layout = model.so_layout()
        psi0 = StateVector.basis(layout, {"S": 0, "O": 0})
        h = model.hamiltonian
        out = evolve_unitary(psi0, h, model.duration)
        target = StateVector.basis(layout, {"S": 0, "O": 1})
        assert abs(abs(out.overlap(target)) - 1.0) <= 1e-10

    def test_measured_observable_conserved(self, model):
        layout = model.so_layout()
        h = model.hamiltonian
        from dualmeas.core import embed

        q = embed(layout, {"S": np.diag([1.0 + 0j, -1.0 + 0j])})
        np.testing.assert_allclose(q @ h.entries, h.entries @ q, atol=TOL_ALGEBRAIC)

    @given(s_dim=st.integers(2, 4), extra=st.integers(1, 3),
           coupling=st.floats(-10.0, 10.0).filter(lambda c: c != 0.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_embedded_ladder_sum_bits(self, s_dim, extra, coupling):
        # Reference: sum_i coupling * embed(|s_i><s_i| (x) (|O_i><O_0| + h.c.)).
        # (A coupling of -0.0 is excluded: the sum adds it to +0.0.)
        model = MeasurementModel(s_dim=s_dim, o_dim=s_dim + extra, coupling=coupling, duration=1.0)
        layout = model.so_layout()
        want = np.zeros((layout.total_dim, layout.total_dim), complex)
        for i in range(s_dim):
            s_proj = np.zeros((s_dim, s_dim), complex)
            s_proj[i, i] = 1.0
            ladder = np.zeros((model.o_dim, model.o_dim), complex)
            ladder[i + 1, 0] = ladder[0, i + 1] = 1.0
            want += coupling * embed(layout, {"S": s_proj, "O": ladder})
        got = model.hamiltonian.entries
        assert got.tobytes() == want.tobytes()


@st.composite
def composite_states(draw):
    """Random complex state, some amplitudes zeroed, over S(2-4) x
    O(s_dim+1..s_dim+2) plus either 0-3 environment atoms or a second
    observer, with the subsystems in any order."""
    s_dim = draw(st.integers(2, 4))
    o_dim = draw(st.integers(s_dim + 1, s_dim + 2))
    subsystems = [("S", s_dim), ("O", o_dim)]
    if draw(st.booleans()):
        subsystems.append(("O2", o_dim))
    else:
        subsystems += [(env_label(k), 2) for k in range(draw(st.integers(0, 3)))]
    layout = CompositeLayout(tuple(draw(st.permutations(subsystems))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = layout.total_dim
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    a[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    a[rng.integers(n)] += 1.0
    return StateVector(layout, a / np.linalg.norm(a))


class TestBranchWeightsProperty:
    @given(composite_states())
    @settings(max_examples=40, deadline=None)
    def test_equals_clipped_normalized_projector_expectations(self, psi):
        # Reference: Tr(P_j rho) with P_j the dense projector embed.
        for state in (psi, psi.to_density()):
            for obs in sorted({"O", "O2"} & set(psi.layout.labels)):
                dim = psi.layout.dim(obs)
                ref = np.array([expectation(state, projector(psi.layout, obs, j)) for j in range(dim)])
                ref = np.clip(ref, 0.0, None)
                np.testing.assert_allclose(
                    branch_weights(state, observer=obs), ref / ref.sum(), rtol=0, atol=1e-12
                )


class TestPremeasurement:
    def test_eigenstate_definite_pointer(self, model):
        out = run_premeasurement(s_state(1, 0), model)
        target = StateVector.basis(model.so_layout(), {"S": 0, "O": 1})
        assert abs(abs(out.overlap(target)) - 1.0) <= 1e-10

    def test_branch_weights(self, model):
        out = run_premeasurement(s_state(1, 1), model)
        w = branch_weights(out)
        np.testing.assert_allclose(w, [0.0, 0.5, 0.5], atol=TOL_ALGEBRAIC)

    def test_branch_weights_match_input_moduli(self, model):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            out = run_premeasurement(s_state(*a), model)
            np.testing.assert_allclose(branch_weights(out)[1:], np.abs(a) ** 2, atol=TOL_ALGEBRAIC)

    def test_normalized_output(self, model):
        out = run_premeasurement(s_state(0.3, 0.4), model)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= TOL_ALGEBRAIC

    def test_branch_phase_metadata(self, model):
        out = run_premeasurement(s_state(1, 0), model)
        phase = model.branch_phase
        # dividing the phase out recovers the phase-free entangled form
        target = StateVector.basis(model.so_layout(), {"S": 0, "O": 1})
        np.testing.assert_allclose(out.amplitudes / phase, target.amplitudes, atol=1e-12)

    def test_q_expectation_conserved(self, model):
        from dualmeas.core import embed

        layout = model.so_layout()
        psi_s = s_state(0.6, 0.8)
        q_s = np.diag([1.0 + 0j, -1.0 + 0j])
        before = float(np.real(psi_s.amplitudes.conj() @ q_s @ psi_s.amplitudes))
        out = run_premeasurement(psi_s, model)
        q_full = LinearOperator(layout, embed(layout, {"S": q_s}))
        after = expectation(out.to_density(), q_full)
        assert abs(before - after) <= TOL_ALGEBRAIC


class TestDephasingHamiltonian:
    def test_no_atoms_zero_operator(self, model):
        env = EnvironmentModel.default(0, model.o_dim)
        layout = model.so_layout()
        h = LinearOperator(layout, np.diag(build_dephasing_hamiltonian(env, layout)))
        assert np.max(np.abs(h.entries)) == 0.0

    def test_commutes_with_pointer_projectors(self, model):
        env = EnvironmentModel.default(2, model.o_dim)
        layout = attach_environment(run_premeasurement(s_state(1, 1), model), env).layout
        h = LinearOperator(layout, np.diag(build_dephasing_hamiltonian(env, layout)))
        for j in range(model.o_dim):
            p = projector(layout, "O", j)
            np.testing.assert_allclose(
                h.entries @ p.entries, p.entries @ h.entries, atol=TOL_ALGEBRAIC
            )

    def test_single_atom_spectrum(self):
        # diagonal operator: eigenvalues are +-q_i over the joint basis
        model = MeasurementModel.calibrated()
        env = EnvironmentModel.default(1, model.o_dim)
        layout = CompositeLayout((("O", 3), (env_label(0), 2)))
        h = build_dephasing_hamiltonian(env, layout)
        got = sorted(h)
        expected = sorted(q * s for q in env.pointer_values for s in (1, -1))
        np.testing.assert_allclose(got, expected, atol=TOL_ALGEBRAIC)

    def test_missing_atom_label(self, model):
        env = EnvironmentModel.default(1, model.o_dim)
        with pytest.raises(Exception):
            build_dephasing_hamiltonian(env, model.so_layout())


class TestDecoherence:
    def test_no_evolution_factor_one(self, model):
        env = EnvironmentModel.default(3, model.o_dim)
        psi = attach_environment(run_premeasurement(s_state(1, 1), model), env)
        _, factor = run_decoherence(psi, env, 0.0)
        assert abs(factor - 1.0) <= TOL_ALGEBRAIC

    def test_single_atom_exact_zero(self, model):
        # q1 - q2 = 2, g = 1, t = pi/4: cos(pi/2) = 0
        env = EnvironmentModel.default(1, model.o_dim)
        psi = attach_environment(run_premeasurement(s_state(1, 1), model), env)
        _, factor = run_decoherence(psi, env, math.pi / 4)
        assert abs(factor) <= 1e-10

    def test_eight_atoms_product_formula(self, model):
        # dual route: full unitary simulation vs the closed-form product
        rng = np.random.default_rng(17)
        env = EnvironmentModel.default(8, model.o_dim, couplings=rng.uniform(0.5, 1.5, 8))
        psi = attach_environment(run_premeasurement(s_state(1, 1), model), env)
        for t in np.linspace(0.0, 1.2, 7):
            _, factor = run_decoherence(psi, env, float(t))
            assert abs(abs(factor) - abs(offdiag_suppression(env, float(t)))) <= 1e-10

    def test_branch_weights_untouched(self, model):
        env = EnvironmentModel.default(4, model.o_dim)
        psi = attach_environment(run_premeasurement(s_state(0.6, 0.8), model), env)
        w0 = branch_weights(psi)
        out, _ = run_decoherence(psi, env, 0.83)
        np.testing.assert_allclose(branch_weights(out), w0, atol=TOL_ALGEBRAIC)

    @given(
        seed=st.integers(0, 2**32 - 1),
        s_dim=st.integers(2, 4),
        n_atoms=st.integers(0, 5),
        t=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_phase_vector_matches_dense_generator(self, seed, s_dim, n_atoms, t):
        # Complex amplitudes with nonzero branches 1 and 2; reference: the
        # dense sum_k g_k embed(q (x) sigma_z^(k)) through evolve_unitary.
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.1, 1.0, s_dim) * np.exp(2j * np.pi * rng.random(s_dim))
        model = MeasurementModel.calibrated(s_dim=s_dim, o_dim=s_dim + 1)
        env = EnvironmentModel.default(n_atoms, model.o_dim, couplings=rng.uniform(0.0, 2.0, n_atoms))
        psi = attach_environment(run_premeasurement(s_state(*amps), model), env)
        layout = psi.layout
        h = np.zeros((layout.total_dim, layout.total_dim), complex)
        for k in range(n_atoms):
            q_sz = {"O": np.diag(env.pointer_values), env_label(k): np.diag([1.0, -1.0])}
            h += env.couplings[k] * embed(layout, q_sz)
        want = evolve_unitary(psi, LinearOperator(layout, h), t)
        got, factor = run_decoherence(psi, env, t)
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)
        assert abs(factor - offdiag_suppression(env, t)) <= 1e-10

    def test_overlap_needs_system_and_observer_leading(self, model):
        env = EnvironmentModel.default(2, model.o_dim)
        psi = attach_environment(run_premeasurement(s_state(1, 1), model), env)
        swapped = psi.amplitudes.reshape(psi.layout.dims).swapaxes(0, 1)
        layout = CompositeLayout((("O", model.o_dim), ("S", model.s_dim)) + psi.layout.subsystems[2:])
        with pytest.raises(LayoutError, match="lead the layout"):
            run_decoherence(StateVector(layout, swapped.ravel()), env, 0.3)

    def test_monotone_suppression_in_atom_count(self, model):
        t = 0.2  # all g_k * t in (0, pi/4)
        couplings = np.linspace(0.6, 1.1, 6)
        factors = []
        for n in range(1, 7):
            env = EnvironmentModel.default(n, model.o_dim, couplings=couplings[:n])
            factors.append(abs(offdiag_suppression(env, t)))
        assert all(b <= a + 1e-15 for a, b in zip(factors, factors[1:]))


class TestReversal:
    def test_reverse_after_premeasurement(self, model):
        psi_s = s_state(0.6, 0.8j)
        post = run_premeasurement(psi_s, model)
        h = model.hamiltonian
        back = reverse_evolution(post, h, model.duration)
        initial = np.kron(psi_s.amplitudes, [1, 0, 0])
        assert 1.0 - abs(np.vdot(initial, back.amplitudes)) <= 1e-10

    def test_t_zero_identity(self, model):
        psi = run_premeasurement(s_state(1, 1), model)
        h = model.hamiltonian
        out = reverse_evolution(psi, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_group_property(self, model):
        h = model.hamiltonian
        psi = run_premeasurement(s_state(1, 1j), model)
        twice_back = reverse_evolution(reverse_evolution(psi, h, 0.4), h, 0.4)
        forward = evolve_unitary(twice_back, h, 0.8)
        np.testing.assert_allclose(forward.amplitudes, psi.amplitudes, atol=1e-10)

    def test_full_round_trip_with_decoherence(self, model):
        env = EnvironmentModel.default(4, model.o_dim)
        psi_s = s_state(0.6, 0.8)
        psi0 = attach_environment(
            StateVector(
                model.so_layout(), np.kron(psi_s.amplitudes, np.array([1, 0, 0], complex))
            ),
            env,
        )
        layout = psi0.layout
        # The measurement generator on S (x) O, times the identity on the bath.
        h_meas = LinearOperator(layout, np.kron(model.hamiltonian.entries, np.eye(2**env.n_atoms)))
        t_deco = 0.7
        state = evolve_unitary(psi0, h_meas, model.duration)
        state, _ = run_decoherence(state, env, t_deco)
        state, _ = run_decoherence(state, env, -t_deco)
        state = reverse_evolution(state, h_meas, model.duration)
        assert trace_distance(state.to_density(), psi0.to_density()) <= 1e-9
