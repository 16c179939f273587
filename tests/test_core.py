import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualmeas import (
    DualState,
    Scenario,
    core,
    interference_operator,
    perception_time_pdf,
    replace,
    restricted_state,
)
from dualmeas.core import (
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
    TOL_ALGEBRAIC,
    TOL_ROUNDTRIP,
    evolve_unitary,
    expectation,
    partial_trace,
    projector,
    trace_distance,
)
from dualmeas.dynamics import MeasurementModel, run_premeasurement
from dualmeas.scenario import ScenarioError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0 + 0j])


def qubit(label="A"):
    return CompositeLayout(((label, 2),))


def normalized(layout, amps):
    a = np.asarray(amps, dtype=complex)
    return StateVector(layout, a / np.linalg.norm(a))


def brute_partial_trace(m, dims, keep_axes):
    """Independent oracle: partial trace by explicit index summation."""
    n_sub = len(dims)
    kept_dims = [dims[a] for a in keep_axes]
    dk = int(np.prod(kept_dims))
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(m.shape[0]):
        for col in range(m.shape[1]):
            ri = np.unravel_index(row, dims)
            ci = np.unravel_index(col, dims)
            if all(ri[a] == ci[a] for a in range(n_sub) if a not in keep_axes):
                r = np.ravel_multi_index([ri[a] for a in keep_axes], kept_dims)
                c = np.ravel_multi_index([ci[a] for a in keep_axes], kept_dims)
                out[r, c] += m[row, col]
    return out


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            CompositeLayout((("A", 2), ("A", 3)))

    def test_total_dim(self):
        lay = CompositeLayout((("S", 2), ("O", 3)))
        assert lay.total_dim == 6

    def test_dim_cap(self):
        with pytest.raises(LayoutError):
            CompositeLayout((("big", 5000),))

    @pytest.mark.parametrize("n_atoms", [61, 62, 64])
    def test_dim_cap_past_int64(self, n_atoms):
        # 6 * 2**n wraps in int64 to -2**62, -2**63 and 0, all under the cap.
        atoms = tuple((f"E{k}", 2) for k in range(n_atoms))
        with pytest.raises(LayoutError, match=f"total dimension {6 << n_atoms} exceeds"):
            CompositeLayout((("S", 2), ("O", 3)) + atoms)

    def test_flat_index_row_major(self):
        lay = CompositeLayout((("S", 2), ("O", 3)))
        assert lay.flat_index({"S": 1, "O": 2}) == 5
        assert lay.flat_index({"S": 1}) == 3


class TestPartialTrace:
    def test_product_state_factorizes(self):
        a = normalized(qubit("A"), [1, 1j])
        b = StateVector.basis(CompositeLayout((("B", 3),)), {"B": 1})
        rho_a, rho_b = a.to_density(), b.to_density()
        full = StateVector(CompositeLayout((("A", 2), ("B", 3))),
                           np.kron(a.amplitudes, b.amplitudes)).to_density()
        np.testing.assert_allclose(partial_trace(full, {"A"}).entries, rho_a.entries, atol=1e-14)
        np.testing.assert_allclose(partial_trace(full, {"B"}).entries, rho_b.entries, atol=1e-14)

    def test_entangled_observer_reduction(self):
        # sqrt(0.3)|s1 O1> + sqrt(0.7)|s2 O2> reduces to diag(0, 0.3, 0.7) on O
        lay = CompositeLayout((("S", 2), ("O", 3)))
        amps = np.zeros(6, dtype=complex)
        amps[lay.flat_index({"S": 0, "O": 1})] = math.sqrt(0.3)
        amps[lay.flat_index({"S": 1, "O": 2})] = math.sqrt(0.7)
        rho_o = partial_trace(StateVector(lay, amps).to_density(), {"O"})
        np.testing.assert_allclose(rho_o.entries, np.diag([0.0, 0.3, 0.7]), atol=1e-14)

    def test_bell_state_reduces_to_maximally_mixed(self):
        lay = CompositeLayout((("A", 2), ("B", 2)))
        bell = normalized(lay, [1, 0, 0, 1]).to_density()
        expected = brute_partial_trace(bell.entries, (2, 2), [0])
        np.testing.assert_allclose(expected, np.eye(2) / 2, atol=1e-14)  # oracle sanity
        np.testing.assert_allclose(partial_trace(bell, {"A"}).entries, expected, atol=1e-14)
        np.testing.assert_allclose(partial_trace(bell, {"B"}).entries, np.eye(2) / 2, atol=1e-14)

    def test_against_brute_force_three_factors(self):
        rng = np.random.default_rng(5)
        lay = CompositeLayout((("A", 2), ("B", 3), ("C", 2)))
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = m @ m.conj().T
        m /= np.trace(m).real
        rho = DensityMatrix(lay, m)
        for keep, axes in ((("A",), [0]), (("B",), [1]), (("A", "C"), [0, 2])):
            got = partial_trace(rho, set(keep)).entries
            np.testing.assert_allclose(got, brute_partial_trace(m, (2, 3, 2), axes), atol=1e-12)

    def test_unknown_label(self):
        rho = StateVector.basis(qubit(), {}).to_density()
        with pytest.raises(LayoutError):
            partial_trace(rho, {"nope"})

    def test_commutes_with_mixture(self):
        rng = np.random.default_rng(11)
        lay = CompositeLayout((("A", 2), ("B", 2)))

        def random_rho():
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = m @ m.conj().T
            return DensityMatrix(lay, m / np.trace(m).real)

        r1, r2 = random_rho(), random_rho()
        p = 0.37
        mixed = DensityMatrix.mixture([p, 1 - p], [r1, r2])
        lhs = partial_trace(mixed, {"A"}).entries
        rhs = p * partial_trace(r1, {"A"}).entries + (1 - p) * partial_trace(r2, {"A"}).entries
        np.testing.assert_allclose(lhs, rhs, atol=TOL_ALGEBRAIC)


@st.composite
def layouts_and_keeps(draw):
    """A random complex state over 1-4 subsystems of dimension 1-4, and a
    nonempty set of them to keep."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    layout = CompositeLayout(tuple((f"X{k}", d) for k, d in enumerate(dims)))
    keep = draw(st.sets(st.sampled_from(layout.labels), min_size=1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, a / np.linalg.norm(a)), keep


@given(layouts_and_keeps())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_partial_trace_of_a_vector_equals_that_of_its_projector(case):
    psi, keep = case
    got, want = partial_trace(psi, keep), partial_trace(psi.to_density(), keep)
    assert got.layout == want.layout
    np.testing.assert_allclose(got.entries, want.entries, rtol=0, atol=1e-15)


class TestMixture:
    @pytest.mark.parametrize("kind", ["state", "density"])
    def test_equals_the_sum_of_validated_parts(self, kind):
        rng = np.random.default_rng(17)
        lay = CompositeLayout((("A", 3), ("B", 4)))
        parts = [normalized(lay, rng.normal(size=12) + 1j * rng.normal(size=12)) for _ in range(5)]
        if kind == "density":
            parts = [p.to_density() for p in parts]
        weights = rng.dirichlet(np.ones(5))
        want = sum(w * (p.to_density() if kind == "state" else p).entries
                   for w, p in zip(weights, parts))
        got = DensityMatrix.mixture(weights, parts).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_validates_only_the_sum(self, monkeypatch):
        # The 20 branches of an s_dim-20 premeasured state, n = 420: one n x n
        # density is 2.7 MiB, the 20 validated parts would be 54 MiB.
        model = MeasurementModel.calibrated(s_dim=20, o_dim=21)
        s = StateVector(model.s_layout(), np.full(20, 20 ** -0.5))
        layout = run_premeasurement(s, model).layout
        branches = [StateVector.basis(layout, {"S": i - 1, "O": i}) for i in range(1, 21)]
        DensityMatrix.mixture(np.full(2, 0.5), branches[:2])  # numpy's first-use allocations
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        tracemalloc.start()
        try:
            rho = DensityMatrix.mixture(np.full(20, 0.05), branches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [(420, 420)]
        assert peak < 16 * 2**20
        assert rho.layout == layout


class TestEvolveUnitary:
    def test_zero_generator(self):
        psi = normalized(qubit(), [1, 1j])
        h = LinearOperator(qubit(), np.zeros((2, 2)))
        out = evolve_unitary(psi, h, 3.7)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_pauli_x_half_pi(self):
        # exp(-i (pi/2) sigma_x)|0> = -i|1>
        lam = 2.0
        h = LinearOperator(qubit(), lam * SX)
        out = evolve_unitary(StateVector.basis(qubit(), {}), h, math.pi / 2 / lam)
        np.testing.assert_allclose(out.amplitudes, [0, -1j], atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lay = CompositeLayout((("A", 2), ("B", 2)))
        rho = DensityMatrix(lay, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
        h = LinearOperator(lay, np.kron(SX, SZ))
        out = evolve_unitary(rho, h, 0.9)
        assert abs(np.trace(out.entries) - 1.0) <= TOL_ALGEBRAIC

    def test_non_hermitian_rejected(self):
        # A generator is Hermitian by construction: the constructor rejects it.
        with pytest.raises(InvariantError):
            LinearOperator(qubit(), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_layout_mismatch(self):
        h = LinearOperator(qubit("A"), SX)
        with pytest.raises(LayoutError):
            evolve_unitary(StateVector.basis(qubit("B"), {}), h, 1.0)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_reversibility(self, t):
        lay = CompositeLayout((("A", 2), ("B", 2)))
        h = LinearOperator(lay, np.kron(SX, SZ) + 0.3 * np.kron(SZ, SX))
        psi = normalized(lay, [1, 2, 3j, 0.5])
        back = evolve_unitary(evolve_unitary(psi, h, t), h, -t)
        assert trace_distance(back.to_density(), psi.to_density()) <= TOL_ROUNDTRIP

    @given(
        n=st.integers(1, 8),
        ts=st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_slices_match_scalar_bits(self, n, ts, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = LinearOperator(CompositeLayout((("A", n),)), m + m.conj().T)
        ts = np.array(ts)
        stack = h.unitary_at(ts)
        assert stack.shape == (len(ts), n, n)
        for k, t in enumerate(ts):
            # compared as raw bits: equal values with a different sign of zero fail
            assert np.array_equal(stack[k].view(np.uint64), h.unitary_at(t).view(np.uint64))

    @pytest.mark.parametrize("n, n_times", [(6, 2001), (18, 501), (240, 21)])
    def test_long_grid_slices_match_scalar_bits(self, n, n_times):
        # perception_time_pdf's 2001-point window at the default layout, and
        # larger layouts: the grid is one product of (n_times n, n) rows.
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = LinearOperator(CompositeLayout((("A", n),)), m + m.conj().T)
        ts = np.concatenate([np.linspace(0.0, 1.0, n_times - 1), [-3.5]])
        stack = h.unitary_at(ts)
        assert stack.shape == (n_times, n, n)
        for k, t in enumerate(ts):
            assert np.array_equal(stack[k].view(np.uint64), h.unitary_at(t).view(np.uint64))

    def test_scalar_time_gives_one_matrix(self):
        h = LinearOperator(qubit(), SX + 0.5 * SZ)
        w, v = np.linalg.eigh(h.entries)
        for t in (0.7, -2, np.float64(1.5)):
            u = h.unitary_at(t)
            assert u.shape == (2, 2)
            want = (v * np.exp(-1j * w * t)) @ v.conj().T
            assert np.array_equal(u.view(np.uint64), want.view(np.uint64))
        assert h.unitary_at([0.7]).shape == (1, 2, 2)

    def test_purity_invariant(self):
        lay = CompositeLayout((("A", 2), ("B", 2)))
        rho = DensityMatrix.mixture(
            [0.6, 0.4],
            [
                normalized(lay, [1, 1, 0, 0]),
                normalized(lay, [0, 0, 1, 1j]),
            ],
        )
        h = LinearOperator(lay, np.kron(SX, SX))
        out = evolve_unitary(rho, h, 1.23).entries
        assert abs(np.trace(out @ out).real - np.trace(rho.entries @ rho.entries).real) <= TOL_ROUNDTRIP


class TestProjector:
    def test_idempotent(self):
        lay = CompositeLayout((("S", 2), ("O", 3)))
        p = projector(lay, "O", 1)
        np.testing.assert_allclose(p.entries @ p.entries, p.entries, atol=TOL_ALGEBRAIC)

    def test_completeness(self):
        lay = CompositeLayout((("S", 2), ("O", 3)))
        total = sum(projector(lay, "O", j).entries for j in range(3))
        np.testing.assert_allclose(total, np.eye(6), atol=TOL_ALGEBRAIC)

    def test_trace_counts_complement(self):
        lay = CompositeLayout((("S", 2), ("O", 3)))
        assert abs(np.trace(projector(lay, "O", 0).entries) - 2.0) <= TOL_ALGEBRAIC

    def test_index_out_of_range(self):
        with pytest.raises(LayoutError):
            projector(CompositeLayout((("O", 3),)), "O", 3)


class TestExpectation:
    def test_identity(self):
        rho = StateVector.basis(qubit(), {}).to_density()
        ident = LinearOperator(qubit(), np.eye(2))
        assert abs(expectation(rho, ident) - 1.0) <= TOL_ALGEBRAIC

    def test_eigenstate(self):
        rho = StateVector.basis(qubit(), {}).to_density()
        assert abs(expectation(rho, LinearOperator(qubit(), SZ)) - 1.0) <= TOL_ALGEBRAIC

    def test_traceless_on_maximally_mixed(self):
        rho = DensityMatrix(qubit(), np.eye(2) / 2)
        assert abs(expectation(rho, LinearOperator(qubit(), SX))) <= TOL_ALGEBRAIC

    def test_complex_density_matches_trace_of_product(self):
        # Tr(rho A) = sum_ij rho_ij A_ji: with complex rho and A, the sum
        # without the transpose would read Tr(rho A*) instead.
        rng = np.random.default_rng(3)
        lay = CompositeLayout((("A", 3),))
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = LinearOperator(lay, m + m.conj().T)
        psi = normalized(lay, rng.normal(size=3) + 1j * rng.normal(size=3))
        ref = np.trace(psi.to_density().entries @ a.entries).real
        assert abs(expectation(psi.to_density(), a) - ref) <= 1e-12
        assert abs(expectation(psi, a) - ref) <= 1e-12

    def test_non_hermitian_rejected(self):
        # An observable is Hermitian by construction: the constructor rejects it.
        with pytest.raises(InvariantError):
            LinearOperator(qubit(), np.array([[0, 1], [0, 0]], complex))


class TestTraceDistance:
    def test_identical(self):
        rho = DensityMatrix(qubit(), np.eye(2) / 2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = StateVector.basis(qubit(), {}).to_density()
        b = StateVector(qubit(), [0, 1]).to_density()
        assert abs(trace_distance(a, b) - 1.0) <= TOL_ALGEBRAIC

    def test_pure_vs_maximally_mixed(self):
        # eigenvalues of diag(1,0) - I/2 are +-1/2, so distance is 0.5
        a = StateVector.basis(qubit(), {}).to_density()
        b = DensityMatrix(qubit(), np.eye(2) / 2)
        assert abs(trace_distance(a, b) - 0.5) <= TOL_ALGEBRAIC

    @given(n=st.integers(2, 40), log_eps=st.floats(-16.0, -3.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_pure_pair_matches_the_densities(self, n, log_eps, seed):
        # Near-identical pure states: the vector form ||b - <a|b> a|| agrees
        # with the eigenvalues of the n x n difference of the densities.
        rng = np.random.default_rng(seed)
        layout = CompositeLayout((("S", n),))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = a / np.linalg.norm(a) + 10.0**log_eps * (rng.normal(size=n) + 1j * rng.normal(size=n))
        a, b = (StateVector(layout, v / np.linalg.norm(v)) for v in (a, b))
        dense = trace_distance(b.to_density(), a.to_density())
        assert abs(trace_distance(a, b) - dense) <= 1e-15
        assert trace_distance(a, a) <= 1e-15

    def test_pure_pair_makes_no_eigvalsh(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        b = StateVector(qubit(), [0.6, 0.8j])
        assert abs(trace_distance(StateVector.basis(qubit(), {}), b) - 0.8) <= TOL_ALGEBRAIC


class TestInvariantEnforcement:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(InvariantError):
            StateVector(qubit(), np.array([1.0, 1.0]))

    def test_norm_check_does_not_grow_with_the_length(self, monkeypatch):
        # (sqrt(0.3)|1 1> + sqrt(0.7)|2 2>) (x) |+>^20, built exactly: np.linalg.norm
        # reads 1 + 1.67e-12 on it, a pairwise sum 1; 2e-12 off stays rejected.
        monkeypatch.setattr(core, "MAX_TOTAL_DIM", 6 << 20)
        layout = CompositeLayout((("S", 2), ("O", 3), ("E", 1 << 20)))
        amps = np.zeros((2, 3, 1 << 20), complex)
        amps[0, 1], amps[1, 2] = 2**-10 * math.sqrt(0.3), 2**-10 * math.sqrt(0.7)
        assert StateVector(layout, amps).layout == layout
        amps *= 1 + 2e-12
        with pytest.raises(InvariantError, match="norm"):
            StateVector(layout, amps)

    def test_non_hermitian_density_rejected(self):
        with pytest.raises(InvariantError):
            DensityMatrix(qubit(), np.array([[0.5, 0.5], [0.0, 0.5]], complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvariantError):
            DensityMatrix(qubit(), np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StateVector(qubit(), [math.nan, 0.8]),
            lambda: DensityMatrix(qubit(), [[math.nan, 0], [0, 1]]),
            lambda: LinearOperator(qubit(), [[math.nan, 0], [0, 1]]),
        ],
        ids=["state", "density", "operator"],
    )
    def test_nan_entry_rejected(self, build):
        with pytest.raises(InvariantError):
            build()


def _records():
    """One of each immutable record type, by name."""
    model = MeasurementModel.calibrated()
    psi = run_premeasurement(StateVector.basis(model.s_layout(), {}), model)
    return {
        "CompositeLayout": qubit(),
        "StateVector": psi,
        "DensityMatrix": psi.to_density(),
        "LinearOperator": LinearOperator(qubit(), SZ),
        "MeasurementModel": model,
        "RestrictedState": restricted_state(psi),
        "PerceptionTimePdf": perception_time_pdf(model, [0.6, 0.8], np.linspace(0.0, 1.0, 5)),
        "DualState": DualState(psi, 1),
        "InterferenceObservable": interference_operator(psi.layout),
        "Scenario": Scenario(experiment="premeasure", amplitudes=[0.6, 0.8], seed=1),
    }


class TestRecords:
    @pytest.mark.parametrize("name", list(_records()))
    def test_attributes_can_be_neither_set_nor_deleted(self, name):
        record = _records()[name]
        assert type(record).__name__ == name
        field = next(iter(vars(record)))
        value = getattr(record, field)
        for change in (lambda: setattr(record, field, None), lambda: setattr(record, "extra", 1),
                       lambda: delattr(record, field)):
            with pytest.raises(AttributeError, match="immutable"):
                change()
        assert getattr(record, field) is value and not hasattr(record, "extra")

    def test_replace_checks_again(self):
        records = _records()
        with pytest.raises(ScenarioError, match="n_events"):
            replace(records["Scenario"], n_events=0)
        with pytest.raises(LayoutError, match="amplitude length 3"):
            replace(records["StateVector"], amplitudes=np.ones(3) / math.sqrt(3.0))
        with pytest.raises(TypeError):
            replace(records["CompositeLayout"], dims=(2,))

    def test_replace_keeps_the_other_arguments(self):
        sc = _records()["Scenario"]
        out = replace(sc, seed=2)
        assert out.canonical_dict() == {**sc.canonical_dict(), "seed": 2}

    def test_replace_carries_no_cached_value(self):
        model = MeasurementModel.calibrated()
        h, chains = model.hamiltonian, model.collapse_chains
        out = replace(model, coupling=2.0 * model.coupling)
        assert out.hamiltonian is not h and out.collapse_chains is not chains
        assert np.max(np.abs(out.hamiltonian.entries)) == 2.0 * np.max(np.abs(h.entries))
        assert model.hamiltonian is h  # the original keeps its own

    def test_layouts_and_models_compare_and_hash_by_value(self):
        a, b = CompositeLayout((("S", 2), ("O", 3))), CompositeLayout([["S", 2.0], ["O", 3]])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != a.restrict(("S",)) and a != a.subsystems
        m = MeasurementModel.calibrated()
        m.hamiltonian  # a cached value is no part of the model's value
        n = MeasurementModel(2, 3, math.pi / 2, 1.0)
        assert m == n and hash(m) == hash(n) and len({m, n}) == 1
        assert m != replace(n, o_dim=4) and m != replace(n, coupling=1.0)

    def test_repr_names_every_argument(self):
        assert repr(CompositeLayout((("S", 2),))) == "CompositeLayout(subsystems=(('S', 2),))"
        assert repr(MeasurementModel(2, 3, 1.5, 1.0)) == (
            "MeasurementModel(s_dim=2, o_dim=3, coupling=1.5, duration=1.0)")
