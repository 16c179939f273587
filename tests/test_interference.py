"""Tests for the branch-coherence observable and pointer incompatibility."""

import math

import numpy as np
import pytest

from dualmeas.core import (
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
    embed,
)
from dualmeas.dynamics import (
    EnvironmentModel,
    MeasurementModel,
    default_pointer_values,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)
from dualmeas.dual import DualState, event_rng
from dualmeas.interference import (
    discriminate,
    interference_operator,
    pointer_incompatibility,
)

MODEL = MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)
SO = MODEL.so_layout()


def post_measurement(amplitudes):
    psi_s = StateVector(MODEL.s_layout(), amplitudes)
    return run_premeasurement(psi_s, MODEL)


def branch_state(layout, i):
    """The post-measurement branch |s_i>|O_i>, other subsystems at index 0."""
    return StateVector.basis(layout, {"S": i - 1, "O": i})


def branch_mixture(weights):
    states = [branch_state(SO, i + 1) for i in range(len(weights))]
    return DensityMatrix.mixture(weights, states)


def dense_probe(b):
    """B as an n x n matrix, 1 at each pair of its rows and their mirror."""
    m = np.zeros((b.layout.total_dim,) * 2, dtype=complex)
    m[b.rows] = m[b.rows[::-1]] = 1.0
    return m


LAYOUTS = [
    ((("S", 2), ("O", 3)), (1, 2)),
    ((("S", 3), ("O", 5)), (3, 1)),
    ((("S", 3), ("O", 4), ("E0", 2), ("E1", 2)), (2, 3)),
    ((("E0", 2), ("O", 4), ("X", 3), ("S", 3)), (1, 3)),
]


class TestOperatorStructure:
    def test_hermitian_and_traceless(self):
        m = dense_probe(interference_operator(SO))
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m)) < 1e-12

    def test_square_is_identity_on_branch_plane(self):
        # B^2 acts as the identity on span{|s_0>|O_1>, |s_1>|O_2>}
        m = dense_probe(interference_operator(SO))
        sq = m @ m
        for i in (1, 2):
            v = branch_state(SO, i).amplitudes
            assert np.max(np.abs(sq @ v - v)) < 1e-12

    def test_invalid_branches_rejected(self):
        with pytest.raises(LayoutError):
            interference_operator(SO, branches=(1, 1))
        with pytest.raises(LayoutError):
            interference_operator(SO, branches=(0, 1))
        with pytest.raises(LayoutError):
            interference_operator(SO, branches=(1, 3))

    def test_non_hermitian_wrapper_rejected(self):
        m = np.zeros((SO.total_dim, SO.total_dim), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(InvariantError):  # rejected by the operator constructor
            LinearOperator(SO, m)


class TestDiscrimination:
    def test_symmetric_superposition_gives_one(self):
        psi = post_measurement((1 / math.sqrt(2), 1 / math.sqrt(2)))
        b = interference_operator(SO)
        assert discriminate(psi.to_density(), b) == pytest.approx(1.0, abs=1e-12)

    def test_matched_mixture_gives_zero(self):
        rho = branch_mixture((0.5, 0.5))
        b = interference_operator(SO)
        assert abs(discriminate(rho, b)) < 1e-12

    def test_single_branch_gives_zero(self):
        psi = post_measurement((1.0, 0.0))
        b = interference_operator(SO)
        assert abs(discriminate(psi.to_density(), b)) < 1e-12

    def test_value_is_twice_amplitude_product(self):
        a1, a2 = math.sqrt(0.3), math.sqrt(0.7)
        psi = post_measurement((a1, a2))
        b = interference_operator(SO)
        assert discriminate(psi.to_density(), b) == pytest.approx(2 * a1 * a2, abs=1e-12)

    def test_relative_phase_sweep(self):
        a1, a2 = math.sqrt(0.3), math.sqrt(0.7)
        b = interference_operator(SO)
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            psi = post_measurement((a1, a2 * np.exp(1j * theta)))
            expected = 2 * a1 * a2 * math.cos(theta)
            assert abs(discriminate(psi.to_density(), b) - expected) < 1e-10

    def test_accepts_state_vector_directly(self):
        psi = post_measurement((1 / math.sqrt(2), 1 / math.sqrt(2)))
        b = interference_operator(SO)
        assert discriminate(psi, b) == pytest.approx(1.0, abs=1e-12)


class TestEntryForm:
    """``discriminate`` reads B's entries; B is never formed as a matrix."""

    @pytest.mark.parametrize("subsystems, branches", LAYOUTS)
    def test_matches_the_dense_operator(self, subsystems, branches):
        layout = CompositeLayout(subsystems)
        rng = np.random.default_rng(len(subsystems) + branches[0])
        n = layout.total_dim
        vs = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        rho = DensityMatrix(layout, np.einsum("k,ki,kj->ij", [0.5, 0.3, 0.2], vs, vs.conj()))
        psi = StateVector(layout, vs[0])
        for state in (psi, rho):
            b = interference_operator(layout, branches)
            got = discriminate(state, b)
            assert not hasattr(b, "op")
            m = dense_probe(b)
            i, j = branches
            s_d, o_d = layout.dim("S"), layout.dim("O")
            s_flip, o_flip = np.zeros((2, s_d, s_d)), np.zeros((2, o_d, o_d))
            s_flip[0, i - 1, j - 1] = s_flip[1, j - 1, i - 1] = o_flip[0, i, j] = o_flip[1, j, i] = 1.0
            dense = sum(embed(layout, {"S": s_flip[k], "O": o_flip[k]}) for k in (0, 1))
            np.testing.assert_array_equal(m, dense)
            want = np.vdot(psi.amplitudes, m @ psi.amplitudes) if state is psi else np.trace(rho.entries @ m)
            assert abs(got - want.real) <= 1e-14

    def test_layout_mismatch_rejected(self):
        b = interference_operator(SO)
        with pytest.raises(LayoutError):
            discriminate(StateVector.basis(CompositeLayout((("S", 2), ("O", 4))), {}), b)

    def test_decohere_builds_no_kron(self, monkeypatch):
        from dualmeas import core
        from dualmeas.harness import run
        from dualmeas.scenario import Scenario

        calls = []
        monkeypatch.setattr(core, "embed", lambda *a: calls.append(a))
        sc = Scenario(experiment="decohere", amplitudes=np.array([0.6, 0.8j]), seed=3,
                      n_events=50, env_atoms=3, n_times=4)
        summary, _ = run(sc)
        assert all(c["passed"] for c in summary.checks) and calls == []


class TestPointerIncompatibility:
    def test_default_pointer_values_give_two(self):
        # default q = (0, +1, -1): |q_1 - q_2| * ||B|| = 2
        b = interference_operator(SO)
        assert pointer_incompatibility(b) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_pointer_values_commute(self):
        b = interference_operator(SO)
        assert pointer_incompatibility(b, pointer_values=(0.0, 1.0, 1.0)) < 1e-12

    def test_norm_scales_with_pointer_gap(self):
        b = interference_operator(SO)
        for gap in (0.5, 1.0, 3.0):
            got = pointer_incompatibility(b, pointer_values=(0.0, gap, 0.0))
            assert got == pytest.approx(gap, abs=1e-12)

    @pytest.mark.parametrize("subsystems, branches", LAYOUTS)
    def test_matches_the_dense_commutator_norm(self, subsystems, branches):
        # The norm read off the rows against ||Q B - B Q||_2 of the n x n
        # matrices, Q by embed, on the default and on random pointer values
        # and branch pairs.
        layout = CompositeLayout(subsystems)
        rng = np.random.default_rng(len(subsystems) + branches[0])
        s_d, o_d = layout.dim("S"), layout.dim("O")
        cases = [(branches, None)]
        for _ in range(5):
            pair = tuple(int(k) for k in rng.choice(np.arange(1, min(s_d, o_d - 1) + 1), 2, replace=False))
            cases.append((pair, rng.normal(scale=3.0, size=o_d)))
        for pair, q in cases:
            b = interference_operator(layout, pair)
            got = pointer_incompatibility(b, pointer_values=q)
            q_op = embed(layout, {"O": np.diag(default_pointer_values(o_d) if q is None else q)})
            m = dense_probe(b)
            want = np.linalg.norm(q_op @ m - m @ q_op, ord=2)
            assert abs(got - want) <= 1e-12

    def test_layout_mismatch_rejected(self):
        # (S 2, O 6) and (S 3, O 4) have the same size but other rows. The
        # probe carries its layout: pointer values of the other observer are
        # rejected, and its own give |q_1 - q_2| = 2, where reading its rows
        # on (S 3, O 4) gave 1.
        b = interference_operator(CompositeLayout((("S", 2), ("O", 6))))
        with pytest.raises(LayoutError):
            pointer_incompatibility(b, pointer_values=default_pointer_values(4))
        assert pointer_incompatibility(b) == pytest.approx(2.0, abs=1e-12)

    def test_pointer_values_must_match_the_observer(self):
        b = interference_operator(SO)
        with pytest.raises(LayoutError):
            pointer_incompatibility(b, pointer_values=(0.0, 1.0, -1.0, 2.0))


class TestDecoherenceDamping:
    def test_expectation_damped_by_overlap_factor(self):
        a1, a2 = math.sqrt(0.3), math.sqrt(0.7)
        psi = post_measurement((a1, a2))
        env = EnvironmentModel.default(n_atoms=4, o_dim=3,
                                       couplings=(0.6, 0.9, 1.1, 1.4))
        bare = 2 * a1 * a2
        times = np.linspace(0.0, 1.5, 7)
        for t, (coherence, factor) in zip(times, run_decoherence(psi, env, times)):
            expected = bare * np.real(offdiag_suppression(env, t))
            assert abs(2.0 * coherence.real - expected) < 1e-10
            assert abs(factor - offdiag_suppression(env, t)) < 1e-10


class TestPerceptionInvariance:
    def test_expectation_unchanged_by_perceive(self):
        psi = post_measurement((math.sqrt(0.3), math.sqrt(0.7)))
        state = DualState(psi.to_density(), 1, clock=MODEL.duration)
        b = interference_operator(SO)
        before = discriminate(state.phi_d, b)
        after = discriminate(state.perceive(event_rng(71, 0).random()).phi_d, b)
        assert before == after
