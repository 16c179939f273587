"""Tests for the branch-coherence observable and pointer incompatibility."""

import math

import numpy as np
import pytest

from dualmeas.core import (
    DensityMatrix,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
)
from dualmeas.dynamics import (
    EnvironmentModel,
    MeasurementModel,
    branch_state,
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
    psi_s = StateVector.from_amplitudes(MODEL.s_layout(), amplitudes)
    return run_premeasurement(psi_s, MODEL)


def branch_mixture(weights):
    states = [branch_state(SO, i + 1) for i in range(len(weights))]
    return DensityMatrix.mixture(weights, states)


class TestOperatorStructure:
    def test_hermitian_and_traceless(self):
        b = interference_operator(SO)
        m = b.op.entries
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m)) < 1e-12

    def test_square_is_identity_on_branch_plane(self):
        # B^2 acts as the identity on span{|s_0>|O_1>, |s_1>|O_2>}
        b = interference_operator(SO)
        sq = b.op.entries @ b.op.entries
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


class TestPointerIncompatibility:
    def test_default_pointer_values_give_two(self):
        # default q = (0, +1, -1): |q_1 - q_2| * ||B|| = 2
        b = interference_operator(SO)
        assert pointer_incompatibility(SO, b) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_pointer_values_commute(self):
        b = interference_operator(SO)
        assert pointer_incompatibility(SO, b, pointer_values=(0.0, 1.0, 1.0)) < 1e-12

    def test_norm_scales_with_pointer_gap(self):
        b = interference_operator(SO)
        for gap in (0.5, 1.0, 3.0):
            got = pointer_incompatibility(SO, b, pointer_values=(0.0, gap, 0.0))
            assert got == pytest.approx(gap, abs=1e-12)


class TestDecoherenceDamping:
    def test_expectation_damped_by_overlap_factor(self):
        a1, a2 = math.sqrt(0.3), math.sqrt(0.7)
        psi = post_measurement((a1, a2))
        env = EnvironmentModel.default(n_atoms=4, o_dim=3,
                                       couplings=(0.6, 0.9, 1.1, 1.4))
        from dualmeas.dynamics import attach_environment
        state0 = attach_environment(psi, env)
        b = interference_operator(state0.layout)
        bare = 2 * a1 * a2
        for t in np.linspace(0.0, 1.5, 7):
            state_t, factor = run_decoherence(state0, env, t)
            expected = bare * np.real(offdiag_suppression(env, t))
            assert abs(discriminate(state_t.to_density(), b) - expected) < 1e-10
            assert abs(factor - offdiag_suppression(env, t)) < 1e-10


class TestPerceptionInvariance:
    def test_expectation_unchanged_by_perceive(self):
        psi = post_measurement((math.sqrt(0.3), math.sqrt(0.7)))
        state = DualState(psi.to_density(), 1, clock=MODEL.duration)
        b = interference_operator(SO)
        before = discriminate(state.phi_d, b)
        after = discriminate(state.perceive(event_rng(71, 0).random()).phi_d, b)
        assert before == after
