"""Tests for the dual state: perception sampling, timing, the no-jump rule, undo."""

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualmeas import dual, replace
from dualmeas.core import (
    CompositeLayout,
    InvariantError,
    LayoutError,
    LinearOperator,
    StateVector,
    embed,
    evolve_unitary,
    expectation,
    partial_trace,
    projector,
)
from dualmeas.dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    attach_environment,
    branch_weights,
    build_dephasing_hamiltonian,
    offdiag_suppression,
    run_premeasurement,
)
from dualmeas.dual import (
    EVENT_BLOCK,
    DualState,
    draw_conditioned,
    draw_index,
    event_rng,
    event_uniforms,
    jump_forbidden,
    perception_time_pdf,
    philox_uniforms,
    reduction_baseline,
    sample_perception_time,
    simpson,
)
from dualmeas.harness import run
from dualmeas.scenario import Scenario

MODEL = MeasurementModel.calibrated(s_dim=2, o_dim=3, duration=1.0)
SO = MODEL.so_layout()
AMPS = (math.sqrt(0.3), math.sqrt(0.7))
LANES = dual._LANES_MAX  # events up to which uniform_blocks runs on the integer lanes


def ready_input(amplitudes, model):
    """S (x) |O_0> written with np.kron, independent of ``model.input_state``."""
    ready = np.eye(model.o_dim, dtype=complex)[0]
    return StateVector(model.so_layout(), np.kron(np.asarray(amplitudes, dtype=complex), ready))


def ready_density(amplitudes=AMPS, model=MODEL):
    return ready_input(amplitudes, model).to_density()


def measured(amplitudes=AMPS, n=1):
    """The post-measurement dual state of *n* events, before any record."""
    psi_s = StateVector(MODEL.s_layout(), amplitudes)
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

    # The guide table's draw is np.searchsorted's to the bit: on tied
    # cumulative sums (zero weights, equal weights), at totals far from 1,
    # including subnormal ones, and at every uniform that lands on a
    # cumulative sum or next to one.
    @given(n=st.one_of(st.sampled_from([1, 2, 3, 4096]), st.integers(1, 4096)),
           seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
           ties=st.booleans(), scale=st.sampled_from([1.0, 0.37, 3.0, 1e-310, 1e300]))
    @settings(max_examples=150, deadline=None)
    def test_equals_searchsorted(self, n, seed, zeros, ties, scale):
        rng = np.random.default_rng(seed)
        w = (rng.integers(1, 3, n) / 4.0 if ties else rng.random(n)) * scale / n
        w[rng.random(n) < zeros] = 0.0
        cum = np.cumsum(w)
        edges = [0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0]
        on = cum / cum[-1] if cum[-1] > 0 else np.zeros(0)
        u = np.clip(np.concatenate([edges, on, np.nextafter(on, 0.0), np.nextafter(on, 1.0),
                                    rng.random(EVENT_BLOCK)]), 0.0, 1.0)
        want = np.searchsorted(cum, u * cum[-1], side="right")
        got = draw_index(w, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for v in edges + [float(rng.random())]:
            one, want = draw_index(w, v), np.searchsorted(cum, v * cum[-1], side="right")
            assert type(one) is type(want) and one == want

    @pytest.mark.parametrize("u", [-2.0**-1074, -1.0, 1.0 + 2.0**-52, 2.0, math.nan,
                                   [0.5, math.nan], [0.0, -0.5]])
    def test_uniform_outside_the_unit_interval_rejected(self, u):
        with pytest.raises(ValueError, match=r"uniforms in \[0, 1\]"):
            draw_index(np.array([0.0, 0.3, 0.7]), u)

    @pytest.mark.parametrize("o_dim", [3, 64, 200])
    def test_block_of_draws_allocates_no_more_than_searchsorted(self, o_dim):
        # np.searchsorted(cum, u * cum[-1]) holds two block-sized arrays, the
        # scaled uniforms and the indices. The guide table's draw holds the
        # indices, which it makes in place, the cast's buffer of numpy's
        # default 8192 entries and a bool column an eighth of a block.
        w, u = np.full(o_dim, 1.0 / o_dim), np.random.default_rng(4).random(EVENT_BLOCK)

        def peak(draw):
            draw(u[:10])  # numpy's own first-use allocations, outside the trace
            tracemalloc.start()
            try:
                draw(u)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        searchsorted = peak(lambda v: np.searchsorted(np.cumsum(w), v * np.cumsum(w)[-1], side="right"))
        assert searchsorted > 2 * u.nbytes
        assert peak(lambda v: draw_index(w, v)) < searchsorted


class TestDrawConditioned:
    """Each event's record drawn from the row of weights its earlier record selects."""

    @staticmethod
    def per_event(rows, first, u):
        return [draw_index(rows[j], x) if j < len(rows) and rows[j] is not None else -1
                for j, x in zip(first.tolist(), u.tolist())]

    # Rows of None and records past the table get -1; the rest match a draw
    # per event, whatever the type of the first records. With the guide
    # table's threshold lowered to 16, groups of events fall on both sides.
    @given(widths=st.lists(st.one_of(st.none(), st.integers(2, 6)), min_size=1, max_size=6),
           past=st.integers(0, 3), n=st.integers(0, 200), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.uint8, np.intp]), guide=st.sampled_from([None, 16]))
    @settings(max_examples=80, deadline=None)
    def test_matches_a_draw_per_event(self, widths, past, n, seed, dtype, guide):
        rng = np.random.default_rng(seed)
        rows = [None if k is None else np.r_[0.0, rng.random(k - 1)] for k in widths]
        first = rng.integers(0, len(rows) + past, n).astype(dtype)
        u = rng.random(n)
        with patch.object(dual, "_GUIDE_MIN_DRAWS", guide or dual._GUIDE_MIN_DRAWS):
            got = draw_conditioned(rows, first, u)
            assert got.dtype == np.intp and got.tolist() == self.per_event(rows, first, u)

    def test_groups_at_the_guide_threshold(self):
        # Groups of _GUIDE_MIN_DRAWS - 1 and _GUIDE_MIN_DRAWS events, shuffled
        # among each other: np.searchsorted for one, the guide table for the
        # other, each the bits of the draw per event.
        k = dual._GUIDE_MIN_DRAWS
        rng = np.random.default_rng(8)
        rows = [None, np.array([0.0, 0.2, 0.5, 0.3]), np.array([0.0, 0.6, 0.1, 0.3])]
        first = rng.permutation(np.repeat(np.arange(3, dtype=np.uint8), [5, k - 1, k]))
        u = rng.random(len(first))
        got = draw_conditioned(rows, first, u)
        assert got.tolist() == self.per_event(rows, first, u)
        assert (got[first == 0] == -1).all() and (got[first > 0] > 0).all()


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
            assert np.array_equal(rows[eid], event_rng(seed, eid).random(2))

    # Both sides of the switch from the lanes to the block kernel, and the
    # block kernel's block edges.
    @pytest.mark.parametrize("n", [1, LANES - 1, LANES, LANES + 1, EVENT_BLOCK - 1, EVENT_BLOCK,
                                   EVENT_BLOCK + 1])
    def test_blocks_match_event_rng(self, n):
        rows = event_uniforms(2**64 - 1, n)
        assert rows.shape == (n, 2)
        for eid in range(n):
            assert np.array_equal(rows[eid], event_rng(2**64 - 1, eid).random(2))

    @pytest.mark.parametrize("seed", [0, 7, 20260826, 1 << 62, 2**64 - 1])
    @pytest.mark.parametrize("stream", [0, 1 << 62, 2**64 - 1])
    def test_stream_draws_match_event_rng(self, seed, stream):
        # 4 uniforms per counter, all from the lanes: whole and partial last
        # counters, up to 4096, the bath's n_atoms cap.
        for n in (0, 1, 3, 4, 5, 8, 9, 17, 1023, 1024, 1025, 4096):
            u = philox_uniforms(seed, stream, n)
            assert u.shape == (n,)
            assert np.array_equal(u, event_rng(seed, stream).random(n))

    def test_stream_draws_never_enter_the_block_kernel(self, monkeypatch):
        # The kernel serves only uniform_blocks' event counters; a bath's
        # couplings up to the n_atoms cap (1024 counters) run on the lanes.
        def refuse(*args):
            raise AssertionError("philox_uniforms entered the block kernel")
        monkeypatch.setattr(dual, "_philox", refuse)
        for n in (1025, 2048, 4095, 4096):
            assert np.array_equal(philox_uniforms(3, 1 << 62, n), event_rng(3, 1 << 62).random(n))

    @given(seed=st.integers(0, 2**64 - 1),
           stream=st.one_of(st.sampled_from([0, 1 << 62]), st.integers(0, 2**64 - 1)))
    @settings(max_examples=100, deadline=None)
    def test_stream_draws_match_event_rng_at_any_seed(self, seed, stream):
        self.test_stream_draws_match_event_rng(seed, stream)

    def test_kernel_allocates_only_its_block_buffers(self):
        # The kernel's words live in a fixed set of block buffers made once per
        # call; a temporary per op, as in a kernel of plain numpy expressions,
        # shows as several more blocks at once.
        event_uniforms(1, 10)  # numpy's own first-use allocations, outside the trace
        tracemalloc.start()
        try:
            out = event_uniforms(1, 4 * EVENT_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 12 * EVENT_BLOCK * 8

    # Counters below 2**32 take the block kernel's short first-round product; 300
    # counters from 2**32 - 150, and those near 2**63 and 2**64, take the full one.
    # The integer lanes, a second engine, are the reference on either side.
    @pytest.mark.parametrize("start", [0, 2**32 - 300, 2**32 - 150, 2**63 + 5, 2**64 - 600])
    def test_block_kernel_equals_the_lanes_at_any_counter(self, start):
        events = range(start, start + 300)
        (lo, u), = dual._philox(11, events)
        assert lo == 0 and np.array_equal(np.array(u), dual._philox_lanes(11, 1, events, 300, 2))

    @pytest.mark.parametrize("n", [1, LANES, LANES + 1, EVENT_BLOCK, 2 * EVENT_BLOCK + 3])
    def test_uniform_blocks_are_the_rows_in_buffers_made_once(self, n):
        rows, owners, end = event_uniforms(5, n), set(), 0
        for lo, u in dual.uniform_blocks(5, n):
            assert lo == end and len(u) == 2
            for i, w in enumerate(u):
                assert np.array_equal(w, rows[lo:lo + len(w), i])
            owners.update(id(w.base) for w in u)
            end = lo + len(u[0])
        assert end == n and len(owners) == 1


def _random_grid(rng, n):
    """A strictly increasing grid of *n* points with uneven spacings."""
    return np.cumsum(rng.uniform(0.01, 2.0, n)) - rng.uniform(0.0, 5.0)


class TestSimpson:
    """dual.simpson gives the bits of scipy.integrate.simpson."""

    @staticmethod
    def _assert_same_bits(y, x):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        assert simpson(y, x).hex() == float(scipy_integrate.simpson(y, x=x)).hex()

    @pytest.mark.parametrize("n", [*range(2, 61), 201, 2000, 2001])
    def test_matches_scipy_bits(self, n):
        rng = np.random.default_rng(n)
        for x in (np.linspace(0.0, 1.0, n), np.linspace(-3.0, 7.5, n),
                  *(_random_grid(rng, n) for _ in range(20))):
            self._assert_same_bits(rng.normal(size=n), x)
            self._assert_same_bits(np.sin(3.0 * x), x)

    @given(y=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_bits_on_any_samples(self, y, seed):
        y = np.array(y)
        self._assert_same_bits(y, np.linspace(0.0, 2.0, len(y)))
        self._assert_same_bits(y, _random_grid(np.random.default_rng(seed), len(y)))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [1.0, 0.0],
                                   [0.0, math.nan, 1.0], [0.0], [[0.0, 1.0]]])
    def test_grid_not_strictly_increasing_rejected(self, x):
        with pytest.raises(ValueError, match="strictly increasing"):
            simpson(np.ones(np.shape(x)), x)


class TestInitDual:
    """A fresh dual state holds no information until its first record."""

    def test_ready_start_accepted(self):
        state = DualState(ready_density(), 1)
        assert state.final_j == 0 and state.steps == ()
        assert state.clock == 0.0

    def test_rejects_out_of_range_record(self):
        with pytest.raises(InvariantError):
            DualState(ready_density(), 1).record(0.0, 3)

    @pytest.mark.parametrize("j", [np.array([0, 2, -1], np.intp), np.array([3, 0, 1], np.intp),
                                   np.array([1, 3, 2], np.uint8), np.array([-1.0, math.nan, 1.0]),
                                   np.array([math.nan, 3.0, 0.0])])
    def test_rejects_out_of_range_record_column(self, j):
        with pytest.raises(InvariantError, match=r"outside pointer basis 0\.\.2"):
            DualState(ready_density(), 3).record(0.0, j)

    @pytest.mark.parametrize("j", [np.array([0, 2, 1], np.intp), np.array([2, 2, 0], np.uint8),
                                   np.array([math.nan, 2.0, 0.0]), np.zeros(0, np.uint8)])
    def test_accepts_record_column_in_range(self, j):
        state = DualState(ready_density(), len(j)).record(0.0, j)
        assert state.final_j is j


class TestStatisticalEvolution:
    """The ensemble's perception probabilities are the pointer weights of the
    unitarily evolved statistical state."""

    def test_system_only_generator_keeps_probs_fixed(self):
        h_s = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = LinearOperator(SO, embed(SO, {S_LABEL: h_s}))
        out = evolve_unitary(ready_density(), h, 0.7)
        assert np.allclose(branch_weights(out), branch_weights(ready_density()), atol=1e-12)

    def test_full_measurement_transfers_weights(self):
        h = MODEL.hamiltonian
        out = evolve_unitary(ready_density(), h, MODEL.duration)
        assert np.allclose(branch_weights(out), [0.0, 0.3, 0.7], atol=1e-12)

    def test_half_duration_rabi_weight(self):
        # at lambda*t = pi/4 each branch has transferred sin^2(pi/4) = 1/2
        h = MODEL.hamiltonian
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

    @pytest.mark.parametrize("amplitudes", [
        AMPS, (math.sqrt(0.3), 1j * math.sqrt(0.7)),
        (math.sqrt(0.2), 1j * math.sqrt(0.3), -math.sqrt(0.5)),
    ])
    def test_zero_uniform_draws_a_system_index(self, amplitudes):
        # After the calibrated window the ready weight is cos^2(pi/2) in
        # floating point, about 4e-33, not 0; a uniform of 0.0 may not draw it.
        model = MeasurementModel.calibrated(s_dim=len(amplitudes), o_dim=len(amplitudes) + 1)
        psi = run_premeasurement(StateVector(model.s_layout(), amplitudes), model)
        assert branch_weights(psi)[0] > 0.0
        state = DualState(psi, 2, clock=model.duration)
        assert state.perceive(0.0).final_j == 1
        assert state.perceive(np.array([0.0, 0.5])).final_j[0] == 1

    def test_draw_leaves_the_weights_it_reads(self):
        # A run draws every block from one vector of pointer weights: each draw
        # leaves the ready residue out of its own copy, not out of that vector.
        psi = run_premeasurement(StateVector(MODEL.s_layout(), AMPS), MODEL)
        w = branch_weights(psi)
        before = w.copy()
        assert dual._draw_perceived(w, np.array([0.0, 0.5])).tolist() == [1, 2]
        assert w.tobytes() == before.tobytes() and w[0] > 0.0

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


def _per_point_pdf(model, amplitudes, grid):
    """``(density, normalization)`` of perception_time_pdf as computed before it
    evaluated blocks of times: one evolve_unitary call per time point."""
    from scipy.integrate import simpson

    layout = model.so_layout()
    psi0 = ready_input(amplitudes, model)
    h = model.hamiltonian
    projs = [projector(layout, O_LABEL, j).entries for j in range(1, model.o_dim)]

    def raw(ts):
        out = np.empty(len(ts))
        for k, t in enumerate(ts):
            psi_t = evolve_unitary(psi0, h, t).amplitudes
            h_psi = h.entries @ psi_t
            out[k] = sum(2.0 * np.imag(np.vdot(psi_t, p @ h_psi)) for p in projs)
        return out

    dense_t = np.linspace(0.0, model.duration, 2001)
    c_p = 1.0 / float(simpson(raw(dense_t), x=dense_t))
    return c_p * raw(np.asarray(grid, dtype=float)), c_p


class TestPerceptionTiming:
    @given(
        s_dim=st.integers(2, 4),
        extra_o=st.integers(1, 3),
        parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        delta_t=st.floats(0.05, 5.0),
        angle=st.floats(0.1, 3.0),  # lambda * delta_t, below pi so the outflow integrates > 0
        n_times=st.integers(1, 300),
        span=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
        block=st.sampled_from([None, 1, 7]),
    )
    @example(s_dim=2, extra_o=1, parts=[0.5] * 8, delta_t=1.0, angle=math.pi / 2, n_times=201,
             span=(0.0, 1.0), block=7)
    @settings(max_examples=15, deadline=None)
    def test_density_matches_per_point_bits(self, s_dim, extra_o, parts, delta_t, angle,
                                            n_times, span, block):
        amps = np.array(parts[:s_dim]) + 1j * np.array(parts[4:4 + s_dim])
        assume(np.linalg.norm(amps) > 0.1)
        amps /= np.linalg.norm(amps)
        model = MeasurementModel(s_dim=s_dim, o_dim=s_dim + extra_o, coupling=angle / delta_t,
                                 duration=delta_t)
        grid = delta_t * np.linspace(*span, n_times)
        # A small block constant makes both the internal window and the
        # caller's grid cross block boundaries.
        size = dual.EVENT_BLOCK if block is None else block * model.so_layout().total_dim ** 2
        with patch.object(dual, "EVENT_BLOCK", size):
            pdf = perception_time_pdf(model, amps, grid)
        density, c_p = _per_point_pdf(model, amps, grid)
        assert np.array_equal(pdf.density.view(np.uint64), density.view(np.uint64))
        assert pdf.normalization.hex() == c_p.hex()

    @pytest.mark.parametrize("amps", [(0.6, 0.8j), (0.5, 0.5j, -0.5, 0.5 * np.exp(0.7j))])
    def test_density_bits_do_not_depend_on_the_stack_size(self, amps, monkeypatch):
        model = MeasurementModel.calibrated(s_dim=len(amps), o_dim=len(amps) + 1)
        grid = np.linspace(0.0, model.duration, 201)
        pdfs = []
        for times in (1, 7, 2001):  # per stack: one time, a few, the whole window
            monkeypatch.setattr(dual, "EVENT_BLOCK", times * model.so_layout().total_dim ** 2)
            pdfs.append(perception_time_pdf(model, amps, grid))
        for pdf in pdfs[1:]:
            assert pdf.density.tobytes() == pdfs[0].density.tobytes()
            assert pdf.normalization.hex() == pdfs[0].normalization.hex()

    @pytest.mark.parametrize("grid", [[], 0.5, [[0.1, 0.2]], [0.0, math.nan], [math.inf]])
    def test_malformed_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="time grid"):
            perception_time_pdf(MODEL, AMPS, grid)

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
        ts = sample_perception_time(pdf, rng.random(20000))  # the doubles of 20000 rng.random()
        # P(t < duration/2) = sin^2(lam*duration/2) = 1/2 for the calibrated model
        assert abs(np.mean(ts < MODEL.duration / 2) - 0.5) < 0.015
        assert ts.min() >= 0.0 and ts.max() <= MODEL.duration


def _trapezoid_cdf(pdf):
    """The sampler's CDF: trapezoids of the clipped density, normalised."""
    f = np.clip(pdf.density, 0.0, None)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(pdf.times))])
    return cdf / cdf[-1]


def _lookup_densities() -> dict:
    """Densities for the CDF lookup: the perception density (zero at t = 0)
    at 201 and 3 points, one with a run of leading zeros and then a CDF step
    so small that its slope is infinite (np.interp gives a draw on a node the
    node's time, never inf * 0), one with an interior run of clipped
    negatives (repeated CDF nodes), and grids of 2, 3 and 4 points."""
    rng = np.random.default_rng(11)
    pdfs = {f"perception-{n}": perception_time_pdf(MODEL, AMPS, np.linspace(0.0, MODEL.duration, n))
            for n in (201, 3)}
    t = np.linspace(0.0, 2.0, 60)
    lead = rng.random(60)
    lead[:7] = 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e-310  # a subnormal CDF step: infinite slope
    interior = rng.random(60)
    interior[20:31] = -rng.random(11)
    pdfs["leading-zeros"] = dual.PerceptionTimePdf(t, lead, 1.0)
    pdfs["interior-zeros"] = dual.PerceptionTimePdf(t, interior, 1.0)
    for n in (2, 3, 4):
        pdfs[f"grid-{n}"] = dual.PerceptionTimePdf(np.sort(rng.random(n)), rng.random(n), 1.0)
    return pdfs


LOOKUP_DENSITIES = _lookup_densities()


@pytest.mark.parametrize("pdf", LOOKUP_DENSITIES.values(), ids=list(LOOKUP_DENSITIES))
def test_cdf_lookup_matches_np_interp_bits(pdf):
    cdf = _trapezoid_cdf(pdf)
    rng = np.random.default_rng(12)
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], cdf, np.nextafter(cdf, 0.0),
                        np.nextafter(cdf, 1.0), rng.random(10_000)])
    got = sample_perception_time(pdf, u)
    assert np.array_equal(got.view(np.uint64), np.interp(u, cdf, pdf.times).view(np.uint64))
    for v in (0.0, float(cdf[len(cdf) // 2]), 0.37, 1.0 - 2.0**-53):
        one, want = sample_perception_time(pdf, v), np.interp(v, cdf, pdf.times)
        assert type(one) is type(want) and one.tobytes() == want.tobytes()


def test_cdf_lookup_is_built_once_per_density():
    pdf = perception_time_pdf(MODEL, AMPS, np.linspace(0.0, MODEL.duration, 51))
    with patch.object(np, "cumsum", wraps=np.cumsum) as cumsum:
        for u in (0.5, np.array([0.1, 0.9]), 0.25):
            sample_perception_time(pdf, u)
    assert cumsum.call_count == 1


def test_cdf_lookup_rejects_what_np_interp_would_clamp():
    pdf = LOOKUP_DENSITIES["grid-4"]
    assert sample_perception_time(pdf, np.empty(0)).shape == (0,)
    for u in (-1e-300, 1.0 + 2.0**-52, math.nan, [0.5, 2.0]):
        with pytest.raises(ValueError, match=r"uniforms in \[0, 1\]"):
            sample_perception_time(pdf, u)
    flat = dual.PerceptionTimePdf(pdf.times, np.array([0.0, -1.0, 0.0, -2.0]), 1.0)
    with pytest.raises(InvariantError, match="no mass"):
        sample_perception_time(flat, 0.5)


def _swap_generator(layout):
    """Hermitian generator that rotates branch 1 into branch 2."""
    b1 = StateVector.basis(layout, {S_LABEL: 0, O_LABEL: 1}).amplitudes
    b2 = StateVector.basis(layout, {S_LABEL: 1, O_LABEL: 2}).amplitudes
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

    @pytest.mark.parametrize("subsystems", [
        ((S_LABEL, 2), (O_LABEL, 3)),
        ((S_LABEL, 3), (O_LABEL, 5)),
        ((S_LABEL, 3), (O_LABEL, 4), ("E0", 2)),
        (("E0", 2), (O_LABEL, 4), ("X", 3), (S_LABEL, 3)),
    ])
    def test_matches_the_branch_vector_form(self, subsystems):
        # P' read off U(t) at the branch rows against B^H U(t) B, B's columns
        # the full-size branch vectors |s_i>|O_i>, for a random generator.
        layout = CompositeLayout(subsystems)
        rng = np.random.default_rng(layout.total_dim)
        x, y = rng.normal(size=(2, layout.total_dim, layout.total_dim))
        m = x + 1j * y
        h = LinearOperator(layout, m + m.conj().T)
        b = np.array([StateVector.basis(layout, {S_LABEL: i - 1, O_LABEL: i}).amplitudes
                      for i in range(1, layout.dim(S_LABEL) + 1)]).T
        for t in (0.0, 0.37, 2.5):
            forbidden, p = jump_forbidden(h, t)
            np.testing.assert_array_equal(p, np.abs(b.conj().T @ h.unitary_at(t) @ b) ** 2)
            assert forbidden == (t == 0.0)

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

    def test_reverses_only_the_model_layout(self):
        # The reversal turns the model's S and O on any layout they lead: a
        # second observer after them rides along. With O2 between them, it refuses.
        layout = CompositeLayout(((S_LABEL, 2), (O_LABEL, 3), ("O2", 3)))
        post = StateVector.basis(layout, {S_LABEL: 1, O_LABEL: 2, "O2": 2})
        out = DualState(post, 1).record(1.0, 2).undo(MODEL)
        want = 1j * StateVector.basis(layout, {S_LABEL: 1, "O2": 2}).amplitudes
        np.testing.assert_allclose(out.phi_d.amplitudes, want, rtol=0, atol=1e-16)
        swapped = CompositeLayout(((S_LABEL, 2), ("O2", 3), (O_LABEL, 3)))
        state = DualState(StateVector.basis(swapped, {S_LABEL: 0, O_LABEL: 1}), 1).record(1.0, 1)
        with pytest.raises(LayoutError):
            state.undo(MODEL)

    @pytest.mark.parametrize("amplitudes", [
        (0.6j, -0.8), (math.sqrt(0.3) * np.exp(0.4j), math.sqrt(0.7) * np.exp(-1.1j))])
    def test_undo_after_dephasing_leaves_the_bath_record(self, amplitudes):
        # Once a bath holds a record of the pointer, reversing S-O returns O
        # to ready, but S keeps only the coherence the bath's two records
        # overlap in, the cosine product r(t): rho_S[0, 1] = a_0 a_1* r(t).
        # A re-measurement turns the state back to the dephased one.
        couplings = np.linspace(0.2, 1.2, 6)
        psi = attach_environment(run_premeasurement(StateVector(MODEL.s_layout(), amplitudes), MODEL), 6)
        h, a = build_dephasing_hamiltonian(couplings, psi.layout), np.asarray(amplitudes)
        for t in (0.0, 0.3, 1.0, 2.5):
            dephased = StateVector(psi.layout, np.exp(-1j * h * t) * psi.amplitudes)
            undone = DualState(dephased, 1, clock=MODEL.duration).record(MODEL.duration, 1).undo(MODEL)
            assert undone.phi_d.layout == psi.layout
            assert branch_weights(undone.phi_d)[0] == pytest.approx(1.0, rel=0, abs=1e-15)
            rho_s = partial_trace(undone.phi_d, {S_LABEL}).entries
            assert abs(rho_s[0, 1] - a[0] * a[1].conj() * offdiag_suppression(couplings, t)) <= 1e-12
            np.testing.assert_allclose(undone.measure(MODEL).phi_d.amplitudes, dephased.amplitudes,
                                       rtol=0, atol=1e-15)

    def test_rejects_non_postmeasurement_state(self):
        state = DualState(ready_density(), 1).record(0.0, 1)
        with pytest.raises(InvariantError):
            state.undo(MODEL)

    def test_redraw_is_independent_of_erased_record(self):
        h = MODEL.hamiltonian
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
        model = sc.model()
        w = branch_weights(run_premeasurement(StateVector(model.s_layout(), sc.amplitudes), model))
        records = run(sc)[1]
        j_old, j_new = records.steps[0][1].tolist(), records.final_j.tolist()
        for eid in range(sc.n_events):
            r = event_rng(seed, eid)
            assert (j_old[eid], j_new[eid]) == (draw_index(w, r.random()), draw_index(w, r.random()))


def collapse_records(amplitudes, n, seed):
    """The model of *amplitudes*, each event's first dual record (the index
    its textbook collapse projects onto) and its second uniform."""
    model = MeasurementModel.calibrated(s_dim=len(amplitudes), o_dim=len(amplitudes) + 1)
    psi = run_premeasurement(StateVector(model.s_layout(), amplitudes), model)
    u = event_uniforms(seed, n)
    return model, DualState(psi, n, clock=model.duration).perceive(u[:, 0]).final_j, u[:, 1]


def chain_baseline(model, collapsed, u):
    """``reduction_baseline`` as one DualState chain per collapsed index j:
    the branch |s_j>|O_j> with the record j, undone, measured again and
    perceived with the uniforms of the events that collapsed onto j."""
    fresh = np.full_like(collapsed, -1)
    for j in range(1, model.s_dim + 1):
        events = collapsed == j
        if events.any():
            branch = StateVector.basis(model.so_layout(), {S_LABEL: j - 1, O_LABEL: j})
            state = DualState(branch, np.count_nonzero(events),
                              clock=model.duration).record(model.duration, j)
            fresh[events] = state.undo(model).measure(model).perceive(u[events]).final_j
    return fresh


class TestReductionBaseline:
    """The collapse comparator on an ensemble's first records."""

    @given(
        s_dim=st.integers(2, 6),
        extra_o=st.integers(1, 3),
        parts=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
        seed=st.sampled_from([56, 57]),
        edge=st.sampled_from([None, 2.0**-53, 1.0 - 2.0**-53]),
        angle=st.sampled_from([None, math.pi / 2 + 1e-5, 1.0]),
    )
    @example(s_dim=6, extra_o=3, parts=[0.5, 0.0, -0.3, 0.2, 0.1, 0.4] * 2, seed=56, edge=None,
             angle=None)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_per_chain_form(self, s_dim, extra_o, parts, seed, edge, angle):
        # Element by element and in dtype, or in the error the first failing
        # chain raises (an off-calibration coupling near pi/2 passes the
        # undo's check, 1.0 does not). The first records include indices
        # that name no system state.
        amps = np.array(parts[:s_dim]) + 1j * np.array(parts[6:6 + s_dim])
        assume(np.linalg.norm(amps) > 0.1)
        amps /= np.linalg.norm(amps)
        calibrated = MeasurementModel.calibrated(s_dim=s_dim, o_dim=s_dim + extra_o)
        model = calibrated if angle is None else replace(calibrated, coupling=angle)
        psi = run_premeasurement(StateVector(model.s_layout(), amps), calibrated)
        u = event_uniforms(seed, 400)
        collapsed = DualState(psi, 400, clock=model.duration).perceive(u[:, 0]).final_j
        collapsed[:3] = [0, s_dim + 1, model.o_dim - 1]
        fresh = u[:, 1] if edge is None else np.full(400, edge)

        def outcome(comparator):
            try:
                return comparator(model, collapsed, fresh)
            except InvariantError as err:
                return str(err)
        got, want = outcome(reduction_baseline), outcome(chain_baseline)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_collapsed_state_is_an_eigenstate(self):
        # Undone and measured again, each collapsed branch is back on the
        # pointer eigenstate |s_j>|O_j>: the extreme nonzero uniforms of the
        # 53-bit kernel both draw j.
        model, collapsed, _ = collapse_records(AMPS, 64, 51)
        for edge in (2.0**-53, 1.0 - 2.0**-53):
            fresh = reduction_baseline(model, collapsed, np.full(64, edge))
            assert np.array_equal(fresh, collapsed)

    def test_remeasurement_repeats_the_outcome(self):
        for amplitudes in [AMPS,
                           (math.sqrt(0.3), 1j * math.sqrt(0.7)),
                           (math.sqrt(0.2), 1j * math.sqrt(0.3), -math.sqrt(0.5)),
                           (1.0, 0.0)]:
            model, collapsed, u = collapse_records(amplitudes, 3000, 52)
            assert np.array_equal(reduction_baseline(model, collapsed, u), collapsed)
            # Every branch with weight is collapsed onto by some event (and
            # [1, 0] leaves its second group empty).
            present = np.flatnonzero(np.abs(amplitudes)) + 1
            assert set(collapsed.tolist()) == set(present.tolist())

    def test_outcome_frequencies_are_born(self):
        model, collapsed, u = collapse_records(AMPS, 5000, 54)
        assert abs(np.mean(reduction_baseline(model, collapsed, u) == 1) - 0.3) < 0.03

    def test_takes_the_record_column_of_a_run(self):
        # A run stores its records as uint8 (o_dim <= 256), where -1 does not
        # fit: the comparator returns an intp column whatever the input's type.
        sc = Scenario(experiment="undo", amplitudes=np.array(AMPS), seed=58, n_events=300)
        collapsed = run(sc)[1].steps[0][1]
        assert collapsed.dtype == np.uint8
        u = event_uniforms(58, 300)[:, 1]
        fresh = reduction_baseline(sc.model(), collapsed, u)
        assert fresh.dtype == np.intp and np.array_equal(fresh, collapsed)
        no_index = reduction_baseline(MODEL, np.array([0, 1, 2], np.uint8), u[:3])
        assert no_index.dtype == np.intp and no_index.tolist()[0] == -1

    def test_record_that_is_no_system_index_is_not_remeasured(self):
        collapsed = np.array([0, 1, 2, 3, 2])
        fresh = reduction_baseline(MODEL, collapsed, event_uniforms(55, 5)[:, 1])
        assert fresh.tolist() == [-1, 1, 2, -1, 2]

    def test_mismatched_state_rejected(self):
        # Under a model that does not complete the transfer, the collapsed
        # branch is not one of its post-measurement states, and the undo
        # refuses it.
        model = MeasurementModel(s_dim=2, o_dim=3, coupling=1.0, duration=1.0)
        with pytest.raises(InvariantError, match="ready state"):
            reduction_baseline(model, np.array([1, 2]), event_uniforms(53, 2)[:, 1])


class TestObjectivity:
    def test_dynamics_identical_with_and_without_perception(self):
        h = MODEL.hamiltonian
        a = DualState(ready_density(), 1).evolve(h, MODEL.duration)
        b = DualState(ready_density(), 1).evolve(h, MODEL.duration).perceive(0.5)
        assert np.array_equal(a.phi_d.entries, b.phi_d.entries)

    def test_ensemble_state_equals_event_average(self):
        h = MODEL.hamiltonian
        eta = evolve_unitary(ready_density(), h, MODEL.duration)
        state = measured()
        assert np.max(np.abs(eta.entries - state.phi_d.entries)) < 1e-12
        assert np.allclose(branch_weights(eta), branch_weights(state.phi_d), atol=1e-12)
