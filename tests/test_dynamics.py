import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmeas.core import (
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    LayoutError,
    MAX_TOTAL_DIM,
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
    _GRID_CHUNK,
    EnvironmentModel,
    MeasurementModel,
    attach_environment,
    branch_weights,
    build_dephasing_hamiltonian,
    default_pointer_values,
    env_label,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)
from dualmeas.interference import discriminate, interference_operator


def s_state(*amps):
    a = np.array(amps, complex)
    return StateVector(CompositeLayout((("S", len(amps)),)), a / np.linalg.norm(a))


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
        assert abs(abs(np.vdot(out.amplitudes, target.amplitudes)) - 1.0) <= 1e-10

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
        assert abs(abs(np.vdot(out.amplitudes, target.amplitudes)) - 1.0) <= 1e-10

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
        # Each transferred branch picks up exp(-i coupling duration) = -i;
        # dividing the phase out recovers the phase-free entangled form.
        phase = np.exp(-1j * model.coupling * model.duration)
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

    @given(s_dim=st.integers(2, 5), extra_o=st.integers(1, 3),
           parts=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=5, max_size=5),
           delta_t=st.floats(0.1, 3.0), angle=st.floats(-3.14, 3.14))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_closed_form_equals_the_dense_evolution(self, s_dim, extra_o, parts, delta_t, angle):
        # Complex amplitudes (never all 0), any coupling with |coupling| * duration < pi.
        a = np.asarray(parts[:s_dim]) + 1e-3
        model = MeasurementModel(s_dim=s_dim, o_dim=s_dim + extra_o, coupling=angle / delta_t,
                                 duration=delta_t)
        psi_s = StateVector(model.s_layout(), a / np.linalg.norm(a))
        want = evolve_unitary(model.input_state(psi_s.amplitudes), model.hamiltonian, model.duration)
        got = run_premeasurement(psi_s, model)
        assert got.layout == want.layout
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-13)


class TestRotate:
    """``MeasurementModel.rotate``, the closed-form U(t), on any S (x) O input."""

    @given(s_dim=st.integers(2, 5), extra_o=st.integers(1, 3), coupling=st.floats(-4.0, 4.0),
           t=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1), density=st.booleans())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_equals_the_dense_unitary(self, s_dim, extra_o, coupling, t, seed, density):
        # Complex inputs with weight off the ready state, any coupling, either sign of t.
        model = MeasurementModel(s_dim=s_dim, o_dim=s_dim + extra_o, coupling=coupling, duration=1.0)
        layout, n = model.so_layout(), s_dim * (s_dim + extra_o)
        rng = np.random.default_rng(seed)
        vs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        u = model.hamiltonian.unitary_at(t)
        if density:
            w = rng.dirichlet(np.ones(3))
            state = DensityMatrix(layout, np.einsum("k,ki,kj->ij", w, vs, vs.conj()))
            got, want = model.rotate(state, t).entries, u @ state.entries @ u.conj().T
        else:
            state = StateVector(layout, vs[0])
            got, want = model.rotate(state, t).amplitudes, u @ state.amplitudes
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_inverse_and_ready_case(self, model):
        psi = model.input_state(s_state(0.6, 0.8j).amplitudes)
        post = model.rotate(psi, model.duration)
        premeasured = run_premeasurement(s_state(0.6, 0.8j), model)
        np.testing.assert_array_equal(post.amplitudes, premeasured.amplitudes)
        np.testing.assert_allclose(model.rotate(post, -model.duration).amplitudes, psi.amplitudes,
                                   rtol=0, atol=1e-16)

    @given(s_dim=st.integers(2, 3), extra_o=st.integers(1, 2), rest=st.sampled_from(["O2", 1, 2, 3]),
           t=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["array", "state", "density"]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_riding_subsystems_equal_the_dense_unitary(self, s_dim, extra_o, rest, t, seed, kind):
        # U(t) (x) 1 on (S, O, O2) or (S, O, E0, ...): the later subsystems, or
        # an array's trailing axes, ride along. Complex inputs, either sign of t.
        model = MeasurementModel.calibrated(s_dim=s_dim, o_dim=s_dim + extra_o)
        later = (("O2", model.o_dim),) if rest == "O2" else tuple((env_label(k), 2) for k in range(rest))
        layout = CompositeLayout(model.so_layout().subsystems + later)
        m = layout.total_dim // model.so_layout().total_dim
        u = np.kron(model.hamiltonian.unitary_at(t), np.eye(m))
        rng = np.random.default_rng(seed)
        vs = rng.normal(size=(2, layout.total_dim)) + 1j * rng.normal(size=(2, layout.total_dim))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        if kind == "array":  # no normalization asked of an array
            x = (3.0 * vs[0]).reshape(s_dim, model.o_dim, *(d for _, d in later))
            got, want = model.rotate(x, t).ravel(), u @ x.ravel()
            assert np.array_equal(x.ravel(), 3.0 * vs[0])  # the input is left as it was
        elif kind == "state":
            state = StateVector(layout, vs[0])
            got, want = model.rotate(state, t).amplitudes, u @ state.amplitudes
        else:
            state = DensityMatrix(layout, 0.4 * np.outer(vs[0], vs[0].conj())
                                  + 0.6 * np.outer(vs[1], vs[1].conj()))
            got, want = model.rotate(state, t).entries, u @ state.entries @ u.conj().T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_rejects_another_layout(self, model):
        # S and O must lead, in that order and at the model's dimensions.
        for subsystems in [(("S", 2), ("O2", 3), ("O", 3)), (("O", 3), ("S", 2)),
                           (("S", 2), ("O", 4)), (("S", 2),)]:
            layout = CompositeLayout(subsystems)
            for state in (StateVector.basis(layout, {}), StateVector.basis(layout, {}).to_density()):
                with pytest.raises(LayoutError):
                    model.rotate(state, 1.0)
        for shape in [(3, 2), (2, 4), (6,), (2, 2, 3)]:
            with pytest.raises(LayoutError):
                model.rotate(np.zeros(shape), 1.0)


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
        ((_, factor),) = run_decoherence(run_premeasurement(s_state(1, 1), model), env, [0.0])
        assert abs(factor - 1.0) <= TOL_ALGEBRAIC

    def test_single_atom_exact_zero(self, model):
        # q1 - q2 = 2, g = 1, t = pi/4: cos(pi/2) = 0
        env = EnvironmentModel.default(1, model.o_dim)
        ((_, factor),) = run_decoherence(run_premeasurement(s_state(1, 1), model), env, [math.pi / 4])
        assert abs(factor) <= 1e-10

    def test_eight_atoms_product_formula(self, model):
        # The per-atom product of bath overlaps against the closed-form cosine product.
        rng = np.random.default_rng(17)
        env = EnvironmentModel.default(8, model.o_dim, couplings=rng.uniform(0.5, 1.5, 8))
        psi = run_premeasurement(s_state(1, 1), model)
        times = np.linspace(0.0, 1.2, 7)
        for t, (_, factor) in zip(times, run_decoherence(psi, env, times)):
            assert abs(abs(factor) - abs(offdiag_suppression(env, float(t)))) <= 1e-10

    def test_branch_weights_untouched(self, model):
        # Each branch's bath state has norm 1: the dephased 2^N state has the
        # pointer weights of the bare S (x) O state that decohere draws from.
        env = EnvironmentModel.default(4, model.o_dim)
        psi = run_premeasurement(s_state(0.6, 0.8), model)
        full = attach_environment(psi, env)
        h = build_dephasing_hamiltonian(env, full.layout)
        out = StateVector(full.layout, np.exp(-1j * h * 0.83) * full.amplitudes)
        np.testing.assert_allclose(branch_weights(out), branch_weights(psi), atol=TOL_ALGEBRAIC)

    @given(
        seed=st.integers(0, 2**32 - 1),
        s_dim=st.integers(2, 4),
        extra_o=st.integers(1, 3),
        empty=st.sampled_from([None, 1, 2]),
        n_atoms=st.integers(0, 10),
        t=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_phase_vector_matches_dense_generator(self, seed, s_dim, extra_o, empty, n_atoms, t):
        # Complex amplitudes, o_dim from s_dim + 1 to s_dim + 3, branch 1 or 2
        # possibly empty. Reference, from np.kron and np.exp alone and none of
        # the package's bath code: |+>^N beside psi on S (x) O, the diagonal
        # sum_k g_k q_o z_k of the dense generator, and the coherence
        # <row r_1|row r_2> of the evolved (s * o, 2^N) matrix. It is the
        # 2^N side of decohere's cosine-product check, which compares two
        # product forms.
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.1, 1.0, s_dim) * np.exp(2j * np.pi * rng.random(s_dim))
        if empty is not None:
            amps[empty - 1] = 0.0
        model = MeasurementModel.calibrated(s_dim=s_dim, o_dim=s_dim + extra_o)
        env = EnvironmentModel.default(n_atoms, model.o_dim, couplings=rng.uniform(0.0, 2.0, n_atoms))
        psi = run_premeasurement(s_state(*amps), model)
        plus, z, one = np.full(2, 2**-0.5), np.array([1.0, -1.0]), np.ones(2)
        full, h = psi.amplitudes, np.zeros(model.s_dim * model.o_dim * 2**n_atoms)
        for k in range(n_atoms):
            full = np.kron(full, plus)
            z_k = [z if i == k else one for i in range(n_atoms)]
            q_o = np.kron(np.ones(model.s_dim), env.pointer_values)
            h += env.couplings[k] * np.kron(q_o, reduce(np.kron, z_k, np.ones(1)))
        if full.size <= MAX_TOTAL_DIM:  # within its cap, the package's dense layer forms both
            dense = attach_environment(psi, env)
            np.testing.assert_allclose(dense.amplitudes, full, rtol=0, atol=1e-15)
            np.testing.assert_allclose(build_dephasing_hamiltonian(env, dense.layout), h, rtol=0, atol=1e-12)
        ((coherence, factor),) = run_decoherence(psi, env, [t])
        r1, r2 = 1, model.o_dim + 2  # |s_0 O_1> and |s_1 O_2>
        rows = (np.exp(-1j * h * t) * full).reshape(model.s_dim * model.o_dim, -1)
        assert abs(coherence - np.vdot(rows[r1], rows[r2])) <= 1e-12
        # The interference probe on S (x) O reads 2 Re of that one entry of
        # the reduced state M M^dagger.
        reduced = DensityMatrix(psi.layout, rows @ rows.conj().T)
        b = discriminate(reduced, interference_operator(reduced.layout))
        assert abs(2.0 * coherence.real - b) <= 1e-12
        want_factor = 1.0 if empty else offdiag_suppression(env, t)
        assert abs(factor - want_factor) <= 1e-10

    @pytest.mark.parametrize("n_atoms, n_times", [(4096, 13), (8, 2 * _GRID_CHUNK // 8 + 1),
                                                  (3, 2 * _GRID_CHUNK // 3 + 1), (0, 3)])
    def test_grid_in_chunks_equals_one_time_at_a_time(self, model, n_atoms, n_times):
        # 4096 atoms take one time per chunk of _GRID_CHUNK phases; 8 and 3
        # atoms span 3 chunks, the last of one time. The reference is the
        # loop of one time at a time, in the same operations, so the bits are
        # equal.
        rng = np.random.default_rng(n_atoms)
        env = EnvironmentModel.default(n_atoms, model.o_dim, couplings=rng.uniform(0.5, 1.5, n_atoms))
        psi = run_premeasurement(s_state(0.6, 0.8j), model)
        times = np.linspace(0.0, 0.01, n_times)  # the coherence at 4096 atoms stays near exp(-0.8)
        rows = psi.amplitudes.reshape(-1, 1)[[1, model.o_dim + 2]]
        bare, generator = np.vdot(*rows), -1j * np.outer(env.pointer_values[1:3], env.couplings)
        w1, w2 = (rows * rows.conj()).real.sum(axis=1)
        unphase = np.exp(-1j * np.angle(bare)) / math.sqrt(w1 * w2)
        dq = env.pointer_values[1] - env.pointer_values[2]
        want, formula = [], []
        for t in times:
            e1, e2 = np.exp(generator * t)
            coherence = bare * np.prod((e1.conj() * e2).real)
            want.append((coherence, complex(coherence * unphase)))
            formula.append(float(np.prod(np.cos(dq * env.couplings * t))))
        assert run_decoherence(psi, env, times) == want
        assert offdiag_suppression(env, times).tolist() == formula
        assert [offdiag_suppression(env, t) for t in times] == formula

    def test_overlap_needs_system_and_observer_leading(self, model):
        env = EnvironmentModel.default(2, model.o_dim)
        psi = run_premeasurement(s_state(1, 1), model)
        swapped = psi.amplitudes.reshape(psi.layout.dims).swapaxes(0, 1)
        layout = CompositeLayout((("O", model.o_dim), ("S", model.s_dim)))
        with pytest.raises(LayoutError, match="lead the layout"):
            run_decoherence(StateVector(layout, swapped.ravel()), env, [0.3])
        with pytest.raises(LayoutError, match="a pointer value per O state"):
            run_decoherence(psi, EnvironmentModel.default(2, model.o_dim + 1), [0.3])
        with pytest.raises(LayoutError, match="without the bath's atoms"):
            run_decoherence(attach_environment(psi, env), env, [0.3])

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
        back = evolve_unitary(post, h, -model.duration)
        initial = np.kron(psi_s.amplitudes, [1, 0, 0])
        assert 1.0 - abs(np.vdot(initial, back.amplitudes)) <= 1e-10

    def test_t_zero_identity(self, model):
        psi = run_premeasurement(s_state(1, 1), model)
        h = model.hamiltonian
        out = evolve_unitary(psi, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_group_property(self, model):
        h = model.hamiltonian
        psi = run_premeasurement(s_state(1, 1j), model)
        twice_back = evolve_unitary(evolve_unitary(psi, h, -0.4), h, -0.4)
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
        h_deco = build_dephasing_hamiltonian(env, layout)
        t_deco = 0.7
        state = evolve_unitary(psi0, h_meas, model.duration)
        state = StateVector(layout, np.exp(-1j * h_deco * t_deco) * state.amplitudes)
        state = StateVector(layout, np.exp(1j * h_deco * t_deco) * state.amplitudes)
        state = evolve_unitary(state, h_meas, -model.duration)
        assert trace_distance(state.to_density(), psi0.to_density()) <= 1e-9
