import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmeas.core import CompositeLayout, DensityMatrix, InvariantError, LayoutError, StateVector
from dualmeas.dynamics import MeasurementModel, branch_weights, run_premeasurement
from dualmeas.restriction import (
    RestrictedState,
    breuer_distinguishable,
    premeasured_restrictions,
    restricted_state,
)

MODEL = MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)
SO = MODEL.so_layout()


def s_state(*amps):
    a = np.array(amps, complex)
    return StateVector(CompositeLayout((("S", len(amps)),)), a / np.linalg.norm(a))


def matched_mixture(weights):
    parts = [StateVector.basis(SO, {"S": i, "O": i + 1}) for i in range(len(weights))]
    return DensityMatrix.mixture(weights, parts)


def random_amplitudes(rng, dim=2):
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return a / np.linalg.norm(a)


class TestRestrictedState:
    def test_pure_entangled_reduction(self):
        rho = run_premeasurement(s_state(math.sqrt(0.3), math.sqrt(0.7)), MODEL).to_density()
        r = restricted_state(rho, source_kind="pure_ensemble")
        np.testing.assert_allclose(r.o_density.entries, np.diag([0, 0.3, 0.7]), atol=1e-12)

    def test_matched_mixture_gives_same_matrix(self):
        rho_m = matched_mixture([0.3, 0.7])
        r = restricted_state(rho_m, source_kind="mixed_ensemble")
        np.testing.assert_allclose(r.o_density.entries, np.diag([0, 0.3, 0.7]), atol=1e-12)

    def test_individual_event_is_pointer_projector(self):
        rho_event = StateVector.basis(SO, {"S": 0, "O": 1}).to_density()
        r = restricted_state(rho_event, source_kind="individual_event")
        np.testing.assert_allclose(r.o_density.entries, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_individual_event_tag_enforced(self):
        rho = run_premeasurement(s_state(1, 1), MODEL).to_density()
        with pytest.raises(InvariantError):
            restricted_state(rho, source_kind="individual_event")

    def test_unknown_label(self):
        # A state without the observer O has no restriction to O.
        rho = StateVector.basis(CompositeLayout((("S", 2), ("X", 3))), {}).to_density()
        with pytest.raises(LayoutError):
            restricted_state(rho)


class TestPointerWeights:
    def test_post_measurement(self):
        rho = run_premeasurement(s_state(math.sqrt(0.3), math.sqrt(0.7)), MODEL).to_density()
        w = branch_weights(restricted_state(rho).o_density)
        np.testing.assert_allclose(w, [0, 0.3, 0.7], atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_ready_state(self):
        lay = SO
        rho = StateVector.basis(lay, {"S": 0, "O": 0}).to_density()
        np.testing.assert_allclose(branch_weights(restricted_state(rho).o_density), [1, 0, 0], atol=1e-14)

    def test_maximally_mixed(self):
        oc = CompositeLayout((("O", 3),))
        r = RestrictedState(DensityMatrix(oc, np.eye(3) / 3), "mixed_ensemble")
        np.testing.assert_allclose(branch_weights(r.o_density), [1 / 3] * 3, atol=1e-14)


class TestBreuerDistinguishability:
    def test_pure_vs_matched_mixture_indistinguishable(self):
        rho_p = run_premeasurement(s_state(math.sqrt(0.3), math.sqrt(0.7)), MODEL).to_density()
        r_pure = restricted_state(rho_p, source_kind="pure_ensemble")
        r_mixed = restricted_state(matched_mixture([0.3, 0.7]), source_kind="mixed_ensemble")
        verdict, dist = breuer_distinguishable(r_pure, r_mixed)
        assert not verdict
        assert dist <= 1e-12

    def test_ensemble_vs_individual_event(self):
        # eigenvalues of diag(0, 0.3, 0.7) - diag(0, 1, 0) are 0, -0.7, 0.7
        r_ens = restricted_state(matched_mixture([0.3, 0.7]), source_kind="mixed_ensemble")
        r_event = restricted_state(
            StateVector.basis(SO, {"S": 0, "O": 1}).to_density(), source_kind="individual_event"
        )
        verdict, dist = breuer_distinguishable(r_ens, r_event)
        assert verdict
        assert abs(dist - 0.7) <= 1e-12

    def test_self_indistinguishable(self):
        r = restricted_state(matched_mixture([0.5, 0.5]))
        verdict, dist = breuer_distinguishable(r, r)
        assert not verdict and dist == 0.0

    def test_restriction_linearity(self):
        rng = np.random.default_rng(23)
        rho1 = run_premeasurement(s_state(*random_amplitudes(rng)), MODEL).to_density()
        rho2 = run_premeasurement(s_state(*random_amplitudes(rng)), MODEL).to_density()
        p = 0.41
        mixed = DensityMatrix.mixture([p, 1 - p], [rho1, rho2])
        lhs = restricted_state(mixed).o_density.entries
        rhs = (
            p * restricted_state(rho1).o_density.entries
            + (1 - p) * restricted_state(rho2).o_density.entries
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPremeasuredRestrictions:
    def test_weight_off_a_row_pair_raises(self):
        # Row 0's pair is (0, 0) and (0, 1): weight at (0, 2) is outside the
        # closed form, so it raises rather than go unseen.
        amps = np.array([math.sqrt(0.3), math.sqrt(0.7)])
        psi = run_premeasurement(s_state(*amps), MODEL).amplitudes.reshape(2, 3)
        pure, _, dist = premeasured_restrictions(psi, amps)
        np.testing.assert_allclose(pure, np.diag([0, 0.3, 0.7]), atol=1e-12)
        assert dist <= 1e-12
        planted = psi.copy()
        planted[0, 2] = 1e-9
        with pytest.raises(InvariantError, match="off its ready and pointer entries"):
            premeasured_restrictions(planted, amps)


def phase_class(psi_a, psi_b):
    """Whether the observer's restrictions of the premeasured *psi_a* and
    *psi_b* coincide: the restriction only sees |a_i|^2, never relative phases."""
    ra, rb = (restricted_state(run_premeasurement(psi, MODEL).to_density()) for psi in (psi_a, psi_b))
    return breuer_distinguishable(ra, rb)[1] <= 1e-12


class TestPhaseClasses:
    def test_opposite_relative_phase_equivalent(self):
        assert phase_class(s_state(1, 1), s_state(1, -1))

    def test_disjoint_supports_differ(self):
        assert not phase_class(s_state(1, 0), s_state(0, 1))

    def test_global_phase_equivalent(self):
        psi = s_state(0.6, 0.8)
        psi_rot = s_state(0.6 * np.exp(1.3j), 0.8 * np.exp(1.3j))
        assert phase_class(psi, psi_rot)

    @given(st.floats(min_value=0.0, max_value=2 * math.pi), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_restriction_sees_only_moduli(self, theta, w):
        a1, a2 = math.sqrt(w), math.sqrt(1 - w)
        assert phase_class(s_state(a1, a2), s_state(a1, a2 * np.exp(1j * theta)))

    def test_breuer_premise_over_random_amplitudes(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a = random_amplitudes(rng)
            w = np.abs(a) ** 2
            rho_p = run_premeasurement(s_state(*a), MODEL).to_density()
            r_pure = restricted_state(rho_p, source_kind="pure_ensemble")
            r_mixed = restricted_state(matched_mixture(w), source_kind="mixed_ensemble")
            verdict, _ = breuer_distinguishable(r_pure, r_mixed)
            assert not verdict
            for j in range(2):
                rho_event = StateVector.basis(SO, {"S": j, "O": j + 1}).to_density()
                r_event = restricted_state(rho_event, source_kind="individual_event")
                differs, dist = breuer_distinguishable(r_pure, r_event)
                if w[j] < 1.0 - 1e-12:
                    assert differs
                    assert dist >= (1.0 - w[j]) - 1e-12
