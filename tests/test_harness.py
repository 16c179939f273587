"""Tests for scenario parsing, the experiment runner, emission, and the CLI."""

import contextlib
import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from itertools import repeat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dualmeas import __version__, cli, core, dual, harness, replace, restriction, scenario, writer
from dualmeas.cli import main
from dualmeas.core import (
    CompositeLayout,
    InvariantError,
    LinearOperator,
    StateVector,
    embed,
    evolve_unitary,
)
from dualmeas.dual import EVENT_BLOCK, DualState, draw_index, event_uniforms
from dualmeas.dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_weights,
    run_premeasurement,
)
from dualmeas.harness import EXPERIMENTS, RunSummary, run
from dualmeas.interference import discriminate, interference_operator
from dualmeas.restriction import premeasured_restrictions, restricted_state
from dualmeas.scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from dualmeas.writer import emit

MINIMAL = """
experiment: premeasure
amplitudes: [0.5477225575051661, 0.8366600265340756]
seed: 7
n_events: 200
"""


class TestParsing:
    def test_minimal_document(self):
        sc = parse_scenario(MINIMAL)
        assert sc.experiment == "premeasure"
        assert sc.seed == 7
        assert sc.n_events == 200
        assert sc.s_dim == 2 and sc.o_dim == 3
        assert sc.model().coupling == pytest.approx(math.pi / 2)

    def test_complex_amplitudes_as_pairs(self):
        sc = parse_scenario(
            "experiment: premeasure\nseed: 1\n"
            "amplitudes: [[0.6, 0.0], [0.0, 0.8]]\n"
        )
        assert sc.amplitudes[1] == pytest.approx(0.8j)

    def test_unknown_key_is_an_error_and_is_named(self):
        with pytest.raises(ScenarioError, match="colapse_rate"):
            parse_scenario(MINIMAL + "colapse_rate: 0.1\n")

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ScenarioError, match="n_atom"):
            parse_scenario(MINIMAL + "env: {n_atom: 4}\n")

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario("experiment: premeasure\namplitudes: [1.0]\ns_dim: 1\n")

    def test_unknown_experiment(self):
        with pytest.raises(ScenarioError):
            parse_scenario("experiment: teleport\namplitudes: [0.6, 0.8]\nseed: 1\n")

    def test_bad_amplitude_entry(self):
        with pytest.raises(ScenarioError, match=r"amplitudes\[1\]"):
            parse_scenario("experiment: premeasure\namplitudes: [0.6, notanumber]\nseed: 1\n")

    @pytest.mark.parametrize("entry", ["true", "[0.6, false]", "[notanumber, 0.0]"])
    def test_amplitude_entry_names_its_position(self, entry):
        with pytest.raises(ScenarioError, match=r"^amplitudes\[1\]: "):
            parse_scenario(f"experiment: premeasure\namplitudes: [0.6, {entry}]\nseed: 1\n")

    def test_amplitudes_in_exponent_form(self):
        # PyYAML reads 6e-1, without a decimal point, as a string; an
        # amplitude converts it as every other real key does.
        sc = parse_scenario("experiment: premeasure\namplitudes: [6e-1, [0, 8e-1]]\nseed: 1\n")
        want = parse_scenario("experiment: premeasure\namplitudes: [0.6, [0, 0.8]]\nseed: 1\n")
        np.testing.assert_array_equal(sc.amplitudes, want.amplitudes)

    def test_unnormalized_amplitudes_warn_and_normalize(self):
        with pytest.warns(UserWarning, match="normaliz"):
            sc = parse_scenario("experiment: premeasure\namplitudes: [3.0, 4.0]\nseed: 1\n")
        assert np.linalg.norm(sc.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert abs(sc.amplitudes[0]) == pytest.approx(0.6)

    @pytest.mark.parametrize("entries, want", [
        ("[1.0e-320, 3.0e-320]", np.array([1, 3]) / math.sqrt(10)),
        ("[[1.0e-320, -2.0e-320], 2.0e-320]", np.array([1 - 2j, 2]) / 3),
    ])
    def test_subnormal_amplitudes_normalize(self, entries, want):
        # Their squares underflow to 0, and 1 / 3e-320 overflows, so the
        # rescale must not go through the reciprocal of the largest part.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sc = parse_scenario(f"experiment: premeasure\namplitudes: {entries}\nseed: 1\n")
        assert [w.category for w in caught] == [UserWarning]
        assert "normaliz" in str(caught[0].message)
        assert np.max(np.abs(sc.amplitudes - want)) <= 1e-15

    def test_normalization_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="normaliz") as caught:
            Scenario(experiment="premeasure", amplitudes=[3.0, 4.0], seed=1)
        assert [w.filename for w in caught] == [__file__]

    def test_malformed_yaml(self):
        with pytest.raises(ScenarioError, match="YAML"):
            parse_scenario("experiment: [unclosed\n")

    def test_integral_float_counts_accepted(self):
        sc = parse_scenario(MINIMAL.replace("n_events: 200", "n_events: 1.0e+5") + "o_dim: 3.0\n")
        assert (sc.n_events, sc.o_dim) == (100000, 3)
        assert isinstance(sc.n_events, int)

    def test_lambda_override(self):
        sc = parse_scenario(MINIMAL + "lambda: 0.25\n")
        assert sc.model().coupling == 0.25

    def test_dimensions_default_from_the_amplitudes(self):
        # The same defaults whether the scenario comes from YAML or is built directly.
        amps = np.array([0.6, 0.0, 0.8])
        direct = Scenario(experiment="premeasure", amplitudes=amps, seed=1)
        parsed = parse_scenario("experiment: premeasure\namplitudes: [0.6, 0.0, 0.8]\nseed: 1\n")
        assert (direct.s_dim, direct.o_dim) == (parsed.s_dim, parsed.o_dim) == (3, 4)
        assert direct.canonical_dict() == parsed.canonical_dict()

    def test_perception_calibration_limit_applies_to_sampled_times_only(self):
        # Past lambda * delta_t = pi only a sampled perception time goes wrong;
        # undo ignores perception_mode.
        body = "perception_mode: sample\nlambda: 4.71238898038469\n"
        assert parse_scenario(MINIMAL.replace("premeasure", "undo") + body).experiment == "undo"
        with pytest.raises(ScenarioError, match="pi"):
            parse_scenario(MINIMAL + body)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(MINIMAL)
        assert load_scenario(p).seed == 7


def _dual(n):
    """Dual state of *n* events after one calibrated measurement, with no steps."""
    model = MeasurementModel.calibrated()
    psi = run_premeasurement(StateVector(model.s_layout(), (0.6, 0.8)), model)
    return DualState(psi, n, clock=model.duration)


class TestEventRecord:
    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(InvariantError):
            _dual(1).record(2.0, 1).record(1.0, 2)
        with pytest.raises(InvariantError):
            _dual(2).record(np.array([0.0, 2.0]), 1).record(np.array([3.0, 1.0]), 2)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rejects_rows_without_steps(self, tmp_path, fmt):
        # t_perceive and final_j read the first and last step of every row.
        summary = RunSummary(experiment="premeasure", seed=0, n_events=2, frequencies={})
        with pytest.raises(InvariantError):
            emit(summary, _dual(2), tmp_path, fmt=fmt)

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (3, 0)])
    def test_rejects_steps_that_are_not_one_value_per_event(self, shape):
        with pytest.raises(InvariantError):
            _dual(3).record(np.zeros(shape), 1)
        with pytest.raises(InvariantError):
            _dual(3).record(1.0, np.ones(shape, dtype=int))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_timestamps(self, t):
        # emit would write nan/inf where json.dump writes NaN/Infinity.
        with pytest.raises(InvariantError):
            _dual(2).record(np.array([1.0, t]), np.array([1, 2]))
        with pytest.raises(InvariantError):
            _dual(2).record(t, 1)

    def test_properties(self):
        rec = _dual(1).record(1.0, 1).record(2.0, 0).record(3.0, 2)
        assert rec.t_perceive == 1.0
        assert rec.final_j == 2


class TestRunner:
    def test_premeasure_checks_pass(self):
        summary, records = run(parse_scenario(MINIMAL))
        assert all(c["passed"] for c in summary.checks)
        assert records.n_events == 200
        assert summary.frequencies[0] == 0.0

    def test_run_is_deterministic(self):
        s1, r1 = run(parse_scenario(MINIMAL))
        s2, r2 = run(parse_scenario(MINIMAL))
        assert s1.to_dict() == s2.to_dict()
        assert len(r1.steps) == len(r2.steps)
        for step1, step2 in zip(r1.steps, r2.steps):
            assert all(np.array_equal(a, b) for a, b in zip(step1, step2))

    def test_seed_changes_outcomes(self):
        sc = parse_scenario(MINIMAL)
        s1, r1 = run(sc)
        s2, r2 = run(replace(sc, seed=8))
        assert s1.fingerprint != s2.fingerprint
        assert not np.array_equal(r1.final_j, r2.final_j)

    @pytest.mark.parametrize("experiment", ["undo", "two_observer", "reduction_compare",
                                            "perception_timing"])
    def test_other_experiments_pass_their_checks(self, experiment):
        sc = parse_scenario(MINIMAL.replace("premeasure", experiment))
        summary, records = run(sc)
        assert all(c["passed"] for c in summary.checks), summary.checks
        assert records.n_events == sc.n_events

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @given(
        s_dim=st.integers(2, 4),
        weights=st.lists(st.floats(1.0, 4.0), min_size=4, max_size=4),
        phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_every_runner_passes_its_checks(self, experiment, s_dim, weights, phases, seed):
        # Every |a_i|^2 is at least 1/13: the 4-sigma frequency check is a
        # normal approximation and needs each branch well populated at 500 events.
        amps = np.sqrt(weights[:s_dim]) * np.exp(1j * np.array(phases[:s_dim]))
        sc = Scenario(experiment=experiment, amplitudes=amps / np.linalg.norm(amps), seed=seed,
                      n_events=500, s_dim=s_dim, o_dim=s_dim + 1, env_atoms=3, n_times=51)
        summary, _ = run(sc)
        assert all(c["passed"] for c in summary.checks), summary.checks

    def test_decohere_checks_pass(self):
        sc = parse_scenario(
            MINIMAL.replace("premeasure", "decohere")
            + "env: {n_atoms: 3}\nt_max: 1.0\nn_times: 10\n"
        )
        summary, _ = run(sc)
        assert all(c["passed"] for c in summary.checks), summary.checks
        assert len(summary.env_couplings) == 3
        assert len(summary.offdiag_curve["times"]) == 10

    @pytest.mark.parametrize("amplitudes", ["[1, 0]", "[0, 1]", "[0, 0, 1]"])
    def test_decohere_without_coherence_has_nothing_to_compare(self, amplitudes):
        # With branch 1 or 2 empty the simulated factor is 1 while the cosine
        # product decays: there is no coherence for the check to compare.
        summary, _ = run(_decohere(amplitudes))
        assert summary.checks[0] == {"name": COSINE, "passed": True, "value": 0.0}
        assert all(c["passed"] for c in summary.checks), summary.checks

    @pytest.mark.parametrize("amplitudes, passed", [("[0.6, 0.8]", False), ("[1, 0]", True)])
    def test_planted_cosine_product_fails_only_with_coherence(self, monkeypatch, amplitudes,
                                                              passed):
        exact = harness.offdiag_suppression
        monkeypatch.setattr(harness, "offdiag_suppression", lambda env, t: 1.001 * exact(env, t))
        summary, _ = run(_decohere(amplitudes))
        assert summary.checks[0]["name"] == COSINE
        assert summary.checks[0]["passed"] is passed

    def test_planted_coupling_off_by_1e_6_fails_the_cosine_product(self, monkeypatch):
        # At spin_bath's size (8 atoms, t_max 1), one bath coupling off by
        # 1e-6 on the simulated side only moves the factor by about 1e-6.
        scenario = parse_scenario(MINIMAL.replace("premeasure", "decohere")
                                  + "env: {n_atoms: 8}\nt_max: 1.0\nn_times: 10\n")
        exact = harness.run_decoherence
        off = np.eye(8)[3] * 1e-6
        for planted in (False, True):
            if planted:
                monkeypatch.setattr(harness, "run_decoherence", lambda psi, env, times: exact(
                    psi, replace(env, couplings=env.couplings + off), times))
            check = run(scenario)[0].checks[0]
            assert check["name"] == COSINE
            assert check["passed"] is not planted, check

    @pytest.mark.parametrize("s_dim, n_atoms, n_times", [
        # At 9 atoms one S x O x E state would be 48 KiB and the states of
        # all 1000 times 47 MiB, where a time forms two rows of 9 phases.
        (2, 9, 1000),
        # At s_dim 12 one reduced state would be 156 x 156, 380 KiB, and
        # those of all 100 times 37 MiB; a time reads two entries of psi.
        (12, 2, 100),
    ])
    def test_decohere_memory_does_not_grow_with_the_time_grid(self, s_dim, n_atoms, n_times):
        amplitudes = ", ".join([repr(s_dim ** -0.5)] * s_dim)
        scenario = parse_scenario(f"experiment: decohere\namplitudes: [{amplitudes}]\nseed: 7\n"
                                  f"n_events: 200\nenv: {{n_atoms: {n_atoms}}}\n"
                                  f"n_times: {n_times}\n")
        run(replace(scenario, n_times=2))  # numpy's own first-use allocations, outside the trace
        tracemalloc.start()
        try:
            summary, _ = run(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c["passed"] for c in summary.checks), summary.checks
        assert peak < 8 * 2**20


COSINE = "simulated off-diagonal factor matches the cosine product"


def _decohere(amplitudes):
    return parse_scenario(f"experiment: decohere\namplitudes: {amplitudes}\nseed: 7\n"
                          "n_events: 200\nenv: {n_atoms: 3}\nn_times: 5\n")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_uniforms_of_zero_record_system_indices(monkeypatch, experiment):
    # After a calibrated window each ready weight is rounding residue, about
    # 4e-33; a uniform of exactly 0.0 may not draw it.
    monkeypatch.setattr(harness, "uniform_blocks", lambda seed, n: [(0, np.zeros((2, n)))])
    extra = {"decohere": "env: {n_atoms: 2}\nn_times: 5\n"}.get(experiment, "")
    summary, records = run(parse_scenario(MINIMAL.replace("premeasure", experiment) + extra))
    drawn = [j for _, j in records.steps if np.ndim(j)]
    assert drawn and all(np.all(j == 1) for j in drawn)


# Every experiment, and premeasure in sample mode, on small layouts.
SAMPLING = {experiment: MINIMAL.replace("premeasure", experiment) for experiment in EXPERIMENTS}
SAMPLING["decohere"] += "env: {n_atoms: 2}\nn_times: 5\n"
SAMPLING["sample"] = MINIMAL + "perception_mode: sample\n"
SMALL_BLOCK = 64


class TestBlockwiseSampling:
    """A run draws its records in one pass of the kernel, block by block."""

    @pytest.mark.parametrize("n", [SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                                   3 * SMALL_BLOCK + 1])
    @pytest.mark.parametrize("case", list(SAMPLING))
    def test_blocks_give_the_whole_draw(self, monkeypatch, tmp_path, case, n):
        scenario = replace(parse_scenario(SAMPLING[case]), n_events=n)
        with monkeypatch.context() as m:  # one block: the whole event_uniforms array
            m.setattr(harness, "uniform_blocks", lambda seed, k: [(0, event_uniforms(seed, k).T)])
            want = run(scenario)
        monkeypatch.setattr(dual, "EVENT_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(harness, "EVENT_BLOCK", SMALL_BLOCK)
        got = run(scenario)
        assert got[0].to_dict() == want[0].to_dict()
        (_, records), (_, whole) = got, want
        assert records.n_events == n and records.flags == whole.flags
        for step, ref in zip(records.steps, whole.steps, strict=True):
            for x, y in zip(step, ref):
                assert np.ndim(x) == np.ndim(y) and np.array_equal(x, y)
        for fmt in ("json", "csv"):
            paths = [emit(*result, tmp_path / side / fmt, fmt=fmt)
                     for side, result in (("got", got), ("want", want))]
            for a, b in zip(*paths):
                assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("case, o_dim, dtype", [
        ("undo", 3, np.uint8), ("undo", 256, np.uint8), ("undo", 257, np.uint16),
        ("sample", 3, np.uint8),
    ])
    def test_record_columns_are_narrow(self, case, o_dim, dtype):
        _, records = run(replace(parse_scenario(SAMPLING[case]), o_dim=o_dim))
        for t, j in records.steps:
            assert np.ndim(j) == 0 or j.dtype == dtype
            assert np.ndim(t) == 0 or t.dtype == np.float64
        assert any(np.ndim(t) for t, _ in records.steps) == (case == "sample")

    @pytest.mark.parametrize("case", ["premeasure", "perception_timing", "sample", "undo"])
    def test_run_memory_is_its_columns_plus_a_few_blocks(self, case):
        # At 16 blocks a whole-run array of the two uniforms alone would be
        # 32 blocks of float64; the bound leaves 24 for the kernel's buffers,
        # a block's draws and the perception density.
        scenario = replace(parse_scenario(SAMPLING[case]), n_events=16 * EVENT_BLOCK + 1)
        run(parse_scenario(SAMPLING[case]))  # numpy's own first-use allocations, outside the trace
        tracemalloc.start()
        try:
            _, records = run(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(x.nbytes for step in records.steps for x in step if np.ndim(x))
        assert peak < columns + 24 * EVENT_BLOCK * 8


TIMING = MINIMAL.replace("premeasure", "perception_timing") + "n_times: {}\n"


class TestPerceptionTimingCheck:
    """The "integrates to 1" check allows the grid's own Simpson error."""

    def test_coarse_grid_of_the_exact_density_passes(self):
        summary, _ = run(parse_scenario(TIMING.format(21)))
        check = summary.checks[0]
        assert check["passed"], check
        assert abs(check["value"] - 1.0) > 1e-6  # beyond the fixed bound

    @pytest.mark.parametrize("n_times", [3, 4, 5])
    def test_shortest_coarse_grids_of_the_exact_density_pass(self, n_times):
        # At 4 points the half grid's Simpson value equals the full one bit for
        # bit (the density is symmetric about the window's midpoint).
        summary, _ = run(parse_scenario(TIMING.format(n_times)))
        assert summary.checks[0]["passed"], summary.checks[0]

    @pytest.mark.parametrize("n_times", [21, 50, 51, 201])
    def test_scaled_density_fails(self, monkeypatch, n_times):
        # 50 points is the default grid: an even grid, where the estimate
        # still integrates the whole window.
        exact = harness.perception_time_pdf

        def scaled(*args):
            pdf = exact(*args)
            return replace(pdf, density=1.001 * pdf.density)

        monkeypatch.setattr(harness, "perception_time_pdf", scaled)
        summary, _ = run(parse_scenario(TIMING.format(n_times)))
        assert not summary.checks[0]["passed"], summary.checks[0]

    def test_two_point_grid_is_rejected(self):
        # Its trapezoid reads 0: the density vanishes at both ends of the window.
        with pytest.raises(ScenarioError, match="n_times must be >= 3"):
            parse_scenario(TIMING.format(2))


PERSISTS = "reduction baseline: outcome persists through undo"


class TestReductionBaselineCheck:
    @pytest.mark.parametrize("experiment", ["undo", "reduction_compare"])
    def test_planted_redraw_fails(self, monkeypatch, experiment):
        # A wrong comparator that forgets the collapse: it redraws each
        # event's index from the premeasured weights, as the dual model does.
        sc = parse_scenario(MINIMAL.replace("premeasure", experiment))

        def redraw(model, collapsed, u):
            return draw_index(branch_weights(run_premeasurement(StateVector(model.s_layout(), sc.amplitudes), model)), u)

        monkeypatch.setattr(harness, "reduction_baseline", redraw)
        summary, _ = run(sc)
        check = next(c for c in summary.checks if c["name"] == PERSISTS)
        assert not check["passed"]
        assert check["value"] == summary.correlations["baseline_old_new"] < 0.7  # 0.3**2 + 0.7**2


AGREE = "second observer's perceived index equals the first's in every event"
COINCIDE = "pure and matched mixed restrictions coincide"


def test_planted_marginal_record_fails_the_agreement_check(monkeypatch):
    # A second observer that draws its record from the premeasured marginal
    # (0.3, 0.7), not from the row of the first's record, agrees in about
    # 0.3**2 + 0.7**2 = 0.58 of the events, at the acceptance size of 1e4.
    sc = parse_scenario(MINIMAL.replace("premeasure", "two_observer")
                        .replace("n_events: 200", "n_events: 10000"))
    marginal = np.r_[0.0, np.abs(sc.amplitudes) ** 2]
    for planted in (False, True):
        if planted:
            monkeypatch.setattr(harness, "draw_conditioned", lambda rows, first, u: draw_index(marginal, u))
        summary, _ = run(sc)
        check = next(c for c in summary.checks if c["name"] == AGREE)
        assert check["passed"] is not planted
    assert abs(check["value"] - 0.58) < 4.0 * math.sqrt(0.58 * 0.42 / sc.n_events)


def test_planted_swapped_mixture_fails_the_restriction_check(monkeypatch):
    # The matched mixture with its two weights swapped, 0.7 and 0.3, lies
    # 0.4 in trace distance from the pure state's observer restriction.
    sc = parse_scenario(MINIMAL)
    exact = harness.premeasured_restrictions
    for planted in (False, True):
        if planted:
            monkeypatch.setattr(harness, "premeasured_restrictions", lambda psi, amps: exact(psi, amps[::-1]))
        summary, _ = run(sc)
        check = next(c for c in summary.checks if c["name"] == COINCIDE)
        assert check["passed"] is not planted
    assert check["value"] == pytest.approx(0.4, abs=1e-12)


FREQUENCIES = "empirical frequencies within 4 sigma of P_j"


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_planted_reversed_weights_fail_the_frequency_check(monkeypatch, experiment):
    # Records drawn from the reversed weights (0.7, 0.3), not (0.3, 0.7): at
    # the acceptance size of 1e4 events each frequency is 0.4, about 87 sigma,
    # off its P_j. The plant reverses the pointer weights every perception
    # draws from, in the dual state and in the runners' shared draw, so each
    # runner's checked column comes from them.
    sc = replace(parse_scenario(SAMPLING[experiment]), n_events=10000)
    draw = dual._draw_perceived
    for planted in (False, True):
        if planted:
            for module in (dual, harness):
                monkeypatch.setattr(module, "_draw_perceived", lambda w, u: draw(np.r_[w[:1], w[:0:-1]], u))
        summary, _ = run(sc)
        check = next(c for c in summary.checks if c["name"] == FREQUENCIES)
        assert check["passed"] is not planted
    assert abs(check["value"] - 0.4) < 4.0 * math.sqrt(0.21 / sc.n_events)


@pytest.mark.parametrize("case", ["premeasure", "sample", "two_observer", "decohere", "perception_timing",
                                  "undo", "reduction_compare"])
def test_pointer_weights_are_taken_once_per_run(monkeypatch, case):
    # Every block of a run draws its first records from the premeasured
    # state's pointer weights, one vector for the run, not one per block. The
    # undo chain also takes its reversal's ready check and its re-measured
    # state's weights once: a run of 3 blocks makes as many calls as one of 1.
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("dualmeas") and getattr(module, "branch_weights", None) is branch_weights:
            monkeypatch.setattr(module, "branch_weights", lambda *a, **k: calls.append(a) or branch_weights(*a, **k))
    for n_events in (EVENT_BLOCK, 2 * EVENT_BLOCK + 1):
        calls.clear()
        summary, _ = run(replace(parse_scenario(SAMPLING[case]), n_events=n_events))
        assert all(c["passed"] for c in summary.checks)
        assert len(calls) == (3 if case in ("undo", "reduction_compare") else 1), n_events


@pytest.mark.parametrize("case", ["undo", "reduction_compare"])
def test_collapse_chains_are_built_once_per_run(monkeypatch, case):
    # reduction_baseline runs once a block, but the chains' pointer weights
    # are the model's, built on its first call: a run of 3 blocks makes as
    # many rotations as one of 1 (the chains' build took 2 in every block).
    rotate, turns, blocks = MeasurementModel.rotate, [], []
    monkeypatch.setattr(MeasurementModel, "rotate", lambda self, x, t: turns.append(t) or rotate(self, x, t))
    monkeypatch.setattr(harness, "reduction_baseline", lambda *a: blocks.append(a) or dual.reduction_baseline(*a))
    counts = []
    for n_events in (EVENT_BLOCK, 2 * EVENT_BLOCK + 1):
        turns.clear(), blocks.clear()
        summary, _ = run(replace(parse_scenario(SAMPLING[case]), n_events=n_events))
        assert all(c["passed"] for c in summary.checks)
        assert len(blocks) == -(-n_events // EVENT_BLOCK)
        counts.append(len(turns))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("experiment, extra, calls", [
    ("premeasure", "", 0),
    ("premeasure", "perception_mode: sample\n", 1),
    ("undo", "", 0),
    ("reduction_compare", "", 0),
    ("perception_timing", "", 1),
    ("decohere", "env: {n_atoms: 2}\nn_times: 5\n", 0),
    ("two_observer", "", 0),
])
def test_each_generator_is_diagonalized_once_per_run(monkeypatch, experiment, extra, calls):
    # Premeasurement, undo and re-measurement are the closed-form rotation; a
    # run that samples perception times diagonalizes the S (x) O generator
    # (s_dim * o_dim = 6 wide) once.
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.shape) or eigh(a))
    summary, _ = run(parse_scenario(MINIMAL.replace("premeasure", experiment) + extra))
    assert all(c["passed"] for c in summary.checks)
    assert seen == [(6, 6)] * calls


@pytest.mark.parametrize("experiment", ["undo", "reduction_compare", "decohere"])
def test_undo_and_decohere_make_no_eigh_eigvalsh_or_dense_unitary(monkeypatch, experiment):
    # Reversal and re-measurement are the closed-form rotation, the recovery
    # the distance of two vectors; decohere reads two rows of the dephased
    # state, with no reduced state to validate. Complex amplitudes at s_dim 3.
    amps = "[0.4472135954999579, [0.0, 0.5477225575051661], -0.7071067811865476]"
    extra = "env: {n_atoms: 2}\nn_times: 5\n" if experiment == "decohere" else ""
    sc = parse_scenario(MINIMAL.replace("premeasure", experiment)
                        .replace("[0.5477225575051661, 0.8366600265340756]", amps) + extra)
    seen = []
    for name in ("eigh", "eigvalsh"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, f=f, name=name: seen.append(name) or f(a))
    monkeypatch.setattr(LinearOperator, "unitary_at", lambda self, t: seen.append("unitary_at"))
    summary, _ = run(sc)
    assert all(c["passed"] for c in summary.checks), summary.checks
    assert seen == []


def test_planted_reversal_error_fails_the_recovery_check(monkeypatch):
    # A reversal whose coupling is off by 1e-6 leaves the undone state 1e-6
    # from the input, at the acceptance size of 1e4 events.
    sc = parse_scenario(MINIMAL.replace("premeasure", "undo").replace("n_events: 200", "n_events: 10000"))
    value = {}
    for planted in (False, True):
        if planted:
            undo = DualState.undo
            monkeypatch.setattr(DualState, "undo", lambda self, model: undo(
                self, replace(model, coupling=model.coupling + 1e-6)))
        summary, _ = run(sc)
        check = next(c for c in summary.checks if c["name"] == "undo restores the initial dynamical state")
        assert check["passed"] is not planted
        value[planted] = check["value"]
    assert value[False] <= 1e-15 and value[True] == pytest.approx(1e-6, rel=1e-3)


def _acceptance(experiment):
    """*experiment* on the amplitudes (sqrt 0.3, sqrt 0.7) at the size of its
    acceptance criterion: 1e5 events for premeasure, 8 atoms and 50 times
    for decohere, 1e4 events for the others."""
    size = {"premeasure": dict(n_events=100000),
            "decohere": dict(n_events=100, env_atoms=8, n_times=50)}.get(experiment, {})
    return replace(parse_scenario(MINIMAL.replace("premeasure", experiment)),
                   **{"n_events": 10000, **size})


def _caught(monkeypatch, scenario, name, plant):
    """The check *name* of *scenario*'s run passes, and fails once
    ``plant(monkeypatch)`` plants its defect; returns the two values."""
    values = []
    for planted in (False, True):
        if planted:
            plant(monkeypatch)
        check = next(c for c in run(scenario)[0].checks if c["name"] == name)
        assert check["passed"] is not planted, check
        values.append(check["value"])
    return values


def _self_paired(monkeypatch):
    """A probe that pairs its first branch's row with itself: on a branch
    mixture it reads twice that branch's weight, not 0."""
    exact = harness.interference_operator

    def planted(layout):
        b = exact(layout)
        return replace(b, rows=(b.rows[0], b.rows[0]))
    monkeypatch.setattr(harness, "interference_operator", planted)


def test_planted_off_calibration_fails_the_branch_weight_check():
    # lambda = (pi/2)(1 + 1e-6) leaves sin^2 short of 1 by 2.5e-12: branch 2
    # falls 1.7e-12 below |a_2|^2 = 0.7, and the ready weight of 2.5e-12 still
    # lets the run complete.
    sc = _acceptance("premeasure")
    for planted in (False, True):
        summary, _ = run(replace(sc, coupling=math.pi / 2 * (1 + 1e-6)) if planted else sc)
        check = next(c for c in summary.checks if c["name"] == "branch weights equal |a_i|^2")
        assert check["passed"] is not planted
    assert check["value"] == pytest.approx(0.7 * math.sin(math.pi / 2 * 1e-6) ** 2, rel=1e-3)


def test_planted_off_calibration_fails_the_restriction_check():
    # lambda = (pi/2)(1 + 1e-6) leaves each ready entry at a_s cos(lambda delta):
    # the bound reads sum_s |a_s|^2 |cos| = 1.57e-6 (the exact trace distance
    # 1.2e-6), far above the check's 1e-12.
    sc = _acceptance("premeasure")
    for planted in (False, True):
        summary, _ = run(replace(sc, coupling=math.pi / 2 * (1 + 1e-6)) if planted else sc)
        check = next(c for c in summary.checks if c["name"] == COINCIDE)
        assert check["passed"] is not planted
    assert check["value"] == pytest.approx(math.sin(math.pi / 2 * 1e-6), rel=1e-6)


def test_planted_self_paired_probe_fails_the_pure_mixed_check(monkeypatch):
    values = _caught(monkeypatch, _acceptance("premeasure"),
                     "interference expectation distinguishes pure from mixed ensembles", _self_paired)
    assert values == [0.0, pytest.approx(0.6, abs=1e-12)]


def test_planted_self_paired_probe_fails_the_discriminator_check(monkeypatch):
    values = _caught(monkeypatch, _acceptance("reduction_compare"),
                     "interference discriminator: dual nonzero, baseline zero", _self_paired)
    assert values == [0.0, pytest.approx(0.6, abs=1e-12)]


def test_planted_reused_uniform_fails_the_uncorrelated_check(monkeypatch):
    # Re-measuring with the first uniform redraws the erased record itself.
    blocks = harness.uniform_blocks
    values = _caught(monkeypatch, _acceptance("undo"),
                     "dual model: erased and fresh outcomes uncorrelated",
                     lambda mp: mp.setattr(harness, "uniform_blocks", lambda seed, n: (
                         (lo, [u[0], u[0]]) for lo, u in blocks(seed, n))))
    assert values[1] == pytest.approx(1.0, abs=1e-12)


def test_planted_collapse_fails_the_coherence_between_measurements_check(monkeypatch):
    # psi collapsed onto its first branch before O2 measures: no coherence is left.
    exact = harness._RUNNERS["two_observer"]

    def collapsed(scenario, model, psi, weights):
        psi = StateVector.basis(psi.layout, {S_LABEL: 0, O_LABEL: 1})
        return exact(scenario, model, psi, branch_weights(psi))
    values = _caught(monkeypatch, _acceptance("two_observer"),
                     "interference expectation nonzero between the two measurements",
                     lambda mp: mp.setitem(harness._RUNNERS, "two_observer", collapsed))
    assert values == [pytest.approx(2.0 * math.sqrt(0.21), abs=1e-12), 0.0]


def test_off_calibration_coherence_between_measurements_passes():
    # lambda delta off pi/2 by 1.6e-5 leaves a ready weight of 2.4e-10, which
    # perceive accepts; the coherence 2|a_0 a_1| sin^2(lambda delta) is intact,
    # so the check passes against that closed form, not the calibrated 0.96.
    sc = parse_scenario("experiment: two_observer\namplitudes: [0.6, 0.8]\nlambda: 1.5708122\n"
                        "seed: 1\nn_events: 200\n")
    summary, _ = run(sc)
    check = next(c for c in summary.checks if c["name"] == "interference expectation nonzero "
                 "between the two measurements")
    assert check["passed"] and 0.96 - 1e-9 < check["value"] < 0.96 - 1e-10


def test_planted_discriminator_error_fails_the_damping_check(monkeypatch):
    # <B> on the undamped state off by 0.1%: at t = 0 the damped value
    # differs from it by 1e-3 * 2 sqrt(0.21).
    exact = harness.discriminate
    values = _caught(monkeypatch, _acceptance("decohere"),
                     "interference damped exactly by the off-diagonal factor",
                     lambda mp: mp.setattr(harness, "discriminate", lambda rho, b: 1.001 * exact(rho, b)))
    assert values[1] == pytest.approx(1e-3 * 2.0 * math.sqrt(0.21), rel=1e-6)


def test_premeasure_makes_no_eigh_and_only_observer_sized_eigvalsh(monkeypatch):
    # s_dim 20, n = 420: the closed-form state, no psi psi^dagger, no n x n
    # mixture; the observer restrictions and their distance come from the two
    # branch entries of each row, with no partial trace and no eigensolve.
    amps = "[" + ", ".join([repr(20 ** -0.5)] * 20) + "]"
    sc = parse_scenario(MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", amps))
    seen = []
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (core, "partial_trace"),
                         (restriction, "partial_trace")):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, name=name: seen.append(name) or f(*a))
    summary, _ = run(sc)
    assert all(c["passed"] for c in summary.checks)
    assert seen == []


def _dense_pure_vs_mixture(psi: StateVector, amps):
    """<B> on psi psi^dagger and on sum_i |a_i|^2 |b_i><b_i|, both n x n, their
    O restrictions by the trace over S, and the trace distance of those."""
    layout, dims = psi.layout, psi.layout.dims
    rows = interference_operator(layout).rows
    b = np.zeros((layout.total_dim,) * 2, dtype=complex)
    b[rows] = b[rows[::-1]] = 1.0
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    branches = (StateVector.basis(layout, {S_LABEL: i - 1, O_LABEL: i}).amplitudes
                for i in range(1, len(amps) + 1))
    mixed = sum(abs(a) ** 2 * np.outer(v, v.conj()) for a, v in zip(amps, branches))
    r_pure, r_mixed = (np.trace(m.reshape(dims + dims), axis1=0, axis2=2) for m in (rho, mixed))
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(r_pure - r_mixed)))
    return np.trace(rho @ b).real, np.trace(mixed @ b).real, r_pure, r_mixed, dist


@given(
    s_dim=st.integers(2, 5),
    extra_o=st.integers(1, 3),
    parts=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mixed_probe_matches_the_branch_vectors(s_dim, extra_o, parts):
    # b_mixed from the probe's rows has the bits of the sum over the
    # full-size branch vectors |s_i>|O_i>.
    amps = np.array(parts[:s_dim]) + 1j * np.array(parts[5:5 + s_dim])
    assume(np.linalg.norm(amps) > 0.1)
    amps /= np.linalg.norm(amps)
    model = MeasurementModel.calibrated(s_dim=s_dim, o_dim=s_dim + extra_o)
    psi = run_premeasurement(StateVector(model.s_layout(), amps), model)
    b = interference_operator(psi.layout)
    branches = (StateVector.basis(psi.layout, {S_LABEL: i - 1, O_LABEL: i}) for i in range(1, s_dim + 1))
    want = float(sum(abs(a) ** 2 * discriminate(v, b) for a, v in zip(amps, branches)))
    assert harness._pure_vs_mixture(psi, amps)[1].hex() == want.hex()


@given(
    s_dim=st.integers(2, 5),
    extra_o=st.integers(1, 3),
    weights=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 1.0)), min_size=5, max_size=5),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=5, max_size=5),
    delta_t=st.floats(0.1, 3.0),
    angle=st.one_of(st.none(), st.floats(-3.14, 3.14)),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_premeasure_matches_the_dense_densities(s_dim, extra_o, weights, phases, delta_t, angle):
    # angle None is the calibration coupling * delta_t = pi/2, the only one a
    # premeasure run accepts; any other |coupling| * delta_t < pi is compared
    # before the run's perception step.
    amps = np.sqrt(weights[:s_dim]) * np.exp(1j * np.array(phases[:s_dim]))
    assume(np.linalg.norm(amps) > 0)
    sc = Scenario(experiment="premeasure", amplitudes=amps / np.linalg.norm(amps), seed=1,
                  n_events=20, s_dim=s_dim, o_dim=s_dim + extra_o, delta_t=delta_t,
                  coupling=None if angle is None else angle / delta_t)
    psi = run_premeasurement(StateVector(sc.model().s_layout(), sc.amplitudes), sc.model())
    b_pure, b_mixed, r_pure, r_mixed, dist = _dense_pure_vs_mixture(psi, sc.amplitudes)
    got = harness._pure_vs_mixture(psi, sc.amplitudes)
    assert abs(got[0] - b_pure) <= 1e-12 and abs(got[1] - b_mixed) <= 1e-12
    np.testing.assert_allclose(restricted_state(psi).o_density.entries, r_pure, rtol=0, atol=1e-12)
    pure, mixed, bound = premeasured_restrictions(psi.amplitudes.reshape(s_dim, -1), sc.amplitudes)
    np.testing.assert_allclose(pure, r_pure, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mixed, r_mixed, rtol=0, atol=1e-12)
    assert bound >= dist - 1e-15  # an upper bound at any angle
    if angle is not None:
        return
    summary, _ = run(sc)
    assert all(c["passed"] for c in summary.checks), summary.checks
    assert abs(summary.b_values["pure"] - b_pure) <= 1e-12
    assert abs(summary.b_values["mixed"] - b_mixed) <= 1e-12
    for key, want in (("pure_ensemble", r_pure), ("mixed_ensemble", r_mixed)):
        emitted = np.array(summary.restricted_states[key]) @ [1, 1j]
        np.testing.assert_allclose(emitted, want, rtol=0, atol=1e-12)
    breuer = next(c for c in summary.checks if c["name"] == "pure and matched mixed restrictions coincide")
    assert dist - 1e-15 <= breuer["value"] <= dist + 1e-12


def _two_observer_reference(sc: Scenario):
    """The states of two_observer after each measurement, from dense three-party
    generators: lambda sum_i |s_i><s_i| (x) ladder_i on O, then on O2."""
    model, s_dim, o_dim = sc.model(), sc.s_dim, sc.o_dim
    layout = CompositeLayout(((S_LABEL, s_dim), (O_LABEL, o_dim), ("O2", o_dim)))
    psi = StateVector(layout, np.kron(sc.amplitudes, np.eye(o_dim**2, 1).ravel()))
    states = []
    for observer in (O_LABEL, "O2"):
        h = 0
        for i in range(s_dim):
            ladder = np.zeros((o_dim, o_dim))
            ladder[i + 1, 0] = ladder[0, i + 1] = 1.0
            s_proj = np.diag(np.eye(s_dim)[i])
            h = h + model.coupling * embed(layout, {S_LABEL: s_proj, observer: ladder})
        psi = evolve_unitary(psi, LinearOperator(layout, h), model.duration)
        states.append(psi)
    return states


@given(
    s_dim=st.integers(2, 4),
    extra_o=st.integers(1, 3),
    weights=st.lists(st.floats(0.1, 1.0), min_size=4, max_size=4),
    phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
    delta_t=st.floats(0.1, 3.0),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_two_observer_matches_three_party_generators(s_dim, extra_o, weights, phases, delta_t):
    amps = np.sqrt(weights[:s_dim]) * np.exp(1j * np.array(phases[:s_dim]))
    sc = Scenario(experiment="two_observer", amplitudes=amps / np.linalg.norm(amps), seed=1,
                  n_events=20, s_dim=s_dim, o_dim=s_dim + extra_o, delta_t=delta_t)
    psi_t1, psi_t2 = _two_observer_reference(sc)
    summary, records = run(sc)
    # The run keeps the S x O state O perceived at t1, beside which O2 is still ready.
    assert records.clock == sc.delta_t
    ready = np.eye(sc.o_dim, 1).ravel()
    np.testing.assert_allclose(np.kron(records.phi_d.amplitudes, ready), psi_t1.amplitudes,
                               rtol=0, atol=1e-12)
    x = psi_t2.amplitudes.reshape(psi_t2.layout.dims)
    joint = harness._joint_pointer_weights(sc.model(), records.phi_d.amplitudes.reshape(s_dim, -1))
    np.testing.assert_allclose(joint, (x * x.conj()).real.sum(axis=0), rtol=0, atol=1e-12)
    p = psi_t1.amplitudes.reshape(psi_t1.layout.dims)
    b_mid = 2.0 * abs(np.vdot(p[0, 1], p[1, 2]))
    assert abs(summary.b_values["between_measurements"] - b_mid) <= 1e-12


def _per_event_dump(records: DualState, fmt: str) -> str:
    """The events file from one dict per event through ``json.dump(indent=2)``,
    or one ``csv.writer`` row per event: the reference for emit's writer."""
    n, flags = records.n_events, list(records.flags)
    ts, js = ([np.broadcast_to(step[i], n).tolist() for step in records.steps] for i in (0, 1))
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["event_id", "t_perceive", "j", "flags"])
        writer.writerows(zip(range(n), map(repr, ts[0]), js[-1], repeat(";".join(flags))))
    else:
        payload = [
            {"event_id": eid, "history": [[t[eid], j[eid]] for t, j in zip(ts, js)],
             "flags": flags}
            for eid in range(n)
        ]
        json.dump(payload, buf, indent=2)
        buf.write("\n")
    return buf.getvalue()


# The records the block-edge property test draws, past the pointer basis
# and below 0 too: record() would reject them.
INDICES = [-1, 0, 2, 9, 10, 99, 100, 2**40, 10**18, 2**63 - 1, -2**63]
# Rows of three column steps and the flag "undo" in one block of the events
# writer, as its sizing rule charges them: a 192-byte template, event ids of
# four digits (ids below 10**4), three float columns and three of INDICES.
JSON_K3_BLOCK = writer._block_rows(10**4, [bytes(192)], [None] + [np.zeros(1), np.array(INDICES)] * 3)


class TestEmission:
    def test_byte_identical_across_reruns(self, tmp_path):
        sc = parse_scenario(MINIMAL)
        blobs = []
        for name in ("a", "b"):
            summary, records = run(sc)
            paths = emit(summary, records, tmp_path / name, fmt="json")
            blobs.append(tuple(open(p, "rb").read() for p in paths))
        assert blobs[0] == blobs[1]

    def test_csv_layout(self, tmp_path):
        summary, records = run(parse_scenario(MINIMAL))
        paths = emit(summary, records, tmp_path, fmt="csv")
        lines = open(paths[1]).read().splitlines()
        assert lines[0] == "event_id,t_perceive,j,flags"
        assert len(lines) == 201
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] in ("1", "2")

    @given(
        n=st.one_of(st.sampled_from([0, 1, EVENT_BLOCK - 1, EVENT_BLOCK, EVENT_BLOCK + 1,
                                     2 * EVENT_BLOCK + 1, JSON_K3_BLOCK + 1]),
                    st.integers(0, 40)),
        constant=st.lists(st.booleans(), min_size=3, max_size=3),
        floats=st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2, 1e16, 1e-05,
                                         -1e-07, 1.5e300])
                        | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        k=st.integers(1, 3),
        flags=st.sampled_from([(), ("undo",), ("a", "b"), ("50%", 'x,"y"')]),
        fmt=st.sampled_from(["json", "csv"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2 * EVENT_BLOCK + 1, constant=[False, True, False], floats=[0.5, 1e300], k=3,
             flags=("undo",), fmt="json", seed=0)
    @example(n=2 * EVENT_BLOCK + 1, constant=[False] * 3, floats=[0.1 + 0.2, 5e-324], k=1,
             flags=("a", "b"), fmt="csv", seed=0)
    @example(n=8, constant=[False] * 3, floats=[-0.0, 0.0], k=2, flags=(), fmt="json", seed=0)
    @example(n=JSON_K3_BLOCK + 1, constant=[False] * 3, floats=[1e16, 1e-05, -1e-07, 1.5e300],
             k=3, flags=("undo",), fmt="json", seed=0)
    @example(n=40, constant=[False] * 3, floats=[-1e-07, 1e16], k=1, flags=(), fmt="csv", seed=1)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_blockwise_writer_matches_per_event_dump(self, n, constant, floats, k, flags, fmt,
                                                     seed):
        # Explicit examples pin three blocks in each format, a column that
        # mixes 0.0 and -0.0, which compare equal but print differently, one
        # row past the first byte-bounded block of three column steps, and
        # floats that print with an exponent. Steps are built directly, as
        # record() would reject INDICES.
        rng = np.random.default_rng(seed)
        steps, floor = [], -math.inf  # every event's latest time so far
        for c in constant[:k]:
            if c:  # a scalar step: one value shared by every event
                t, j = max(rng.choice(floats), np.max(floor, initial=-math.inf)), rng.choice(INDICES)
            else:
                t, j = np.maximum(rng.choice(floats, n), floor), rng.choice(INDICES, n)
            steps.append((t, j))
            floor = t
        records = DualState(_dual(1).phi_d, n, flags=flags, steps=tuple(steps))
        summary = RunSummary(experiment="premeasure", seed=0, n_events=n, frequencies={})
        with tempfile.TemporaryDirectory() as tmp:
            _, events_path = emit(summary, records, tmp, fmt=fmt)
            assert Path(events_path).read_bytes() == _per_event_dump(records, fmt).encode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("block", [2500, 4000], ids=["1e4_at_edge", "1e4_inside"])
    @pytest.mark.parametrize("negative", [None, 0, 9999, 12000])
    def test_integer_columns_match_per_event_dump(self, monkeypatch, tmp_path, fmt, block,
                                                  negative):
        # One-digit records with no negative have no sign slot, so every block
        # of ids of one digit count is written without compaction: with blocks
        # of 2500 rows 10**4 is a block edge; with 4000 it falls inside a
        # block, which then compacts. One negative record puts a sign slot
        # into its block alone.
        monkeypatch.setattr(writer, "EVENT_BLOCK", block)
        n = 12001
        js = np.random.default_rng(block).integers(0, 10, n)
        if negative is not None:
            js[negative] = -1
        records = DualState(_dual(1).phi_d, n, flags=("undo",), steps=((0.5, js),))
        summary = RunSummary(experiment="premeasure", seed=0, n_events=n, frequencies={})
        _, events_path = emit(summary, records, tmp_path, fmt=fmt)
        assert Path(events_path).read_bytes() == _per_event_dump(records, fmt).encode()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("column", ["float", "int", "sign"])
    def test_cell_widths_change_between_blocks(self, monkeypatch, tmp_path, fmt, column):
        # Blocks of 100 rows: event ids gain their second digit inside the
        # first block and their third exactly at the first block edge, and
        # the template is laid anew for every block. A padded block is
        # written _EMIT_BYTES / 8 at a time, here less than a block (whose
        # widest rows still fit), so slice edges fall between padded cells.
        # A float column widens into the middle block, which holds a value
        # in exponent form, and narrows out of it; uniform floats pad every
        # block. An integer column has a sign slot in the first and last
        # blocks only, so it narrows as the ids widen (the row width stays)
        # and widens again; its middle block has no padded cell and is
        # written as it stands. With one negative record, in the middle
        # block's first slice, the sign slot pads every row of that block
        # alone.
        monkeypatch.setattr(writer, "EVENT_BLOCK", 100)
        monkeypatch.setattr(writer, "_EMIT_BYTES", 2**13 if fmt == "csv" else 2**15)
        n = 300
        rng = np.random.default_rng(3)
        js = rng.integers(0, 10, n)
        if column == "float":
            t = rng.random(n)
            t[150] = -1.2345678901234567e-300
            steps = ((t, js),)
        else:
            js[[50, 250] if column == "int" else 105] = -1
            steps = ((0.5, js),)
        seen, real = [], writer._cells  # (width, padded) per column per block, ids first

        def cells(values):
            out = real(values)
            seen.append((out.shape[1], not out.all()))
            return out

        monkeypatch.setattr(writer, "_cells", cells)
        records = DualState(_dual(1).phi_d, n, flags=("undo",), steps=steps)
        summary = RunSummary(experiment="premeasure", seed=0, n_events=n, frequencies={})
        _, events_path = emit(summary, records, tmp_path, fmt=fmt)
        assert Path(events_path).read_bytes() == _per_event_dump(records, fmt).encode()
        blocks = [seen[i:i + len(seen) // 3] for i in range(0, len(seen), len(seen) // 3)]
        assert [b[0][0] for b in blocks] == [2, 3, 3]
        first, middle, last = (b[1][0] for b in blocks)
        assert middle < min(first, last) if column == "int" else middle > max(first, last)
        assert [any(p for _, p in b) for b in blocks] == [True, column != "int", column != "sign"]

    def test_writer_holds_one_block_buffer_and_one_compaction(self, monkeypatch):
        # Rows of three integer records, as reduction_compare writes them, in
        # five blocks of 1000 (about 210 KB each): the first is compacted (ids
        # of 1 to 3 digits) and the ids gain a digit at the second, where the
        # template is laid again. The buffer holds one block, and a re-lay
        # drops the old buffer before it lays the new one. A padded block is
        # compacted a slice at a time through a spare of _EMIT_BYTES / 8
        # (a third of a block here) into a copy at most as large. So the peak
        # is about 1.7 blocks; a block-sized temporary (a copy of the rows, a
        # NUL mask, both buffers at a re-lay) would exceed the bound of 2. The
        # same rows with a sampled time column: the float kernel's
        # temporaries of a block must fit in the same bound.
        monkeypatch.setattr(writer, "EVENT_BLOCK", 1000)
        n = 4001
        rng = np.random.default_rng(5)
        ints = tuple((float(i + 1), rng.integers(0, 3, n)) for i in range(3))
        for steps in (ints, ((rng.random(n), ints[0][1]),) + ints[1:]):
            records = DualState(_dual(1).phi_d, n, flags=("undo",), steps=steps)
            summary = RunSummary(experiment="reduction_compare", seed=0, n_events=n, frequencies={})
            with tempfile.TemporaryDirectory() as tmp:
                few = DualState(records.phi_d, 10, flags=("undo",),
                                steps=tuple((t if np.ndim(t) == 0 else t[:10], j[:10]) for t, j in steps))
                emit(summary, few, tmp)  # numpy's own first-use allocations, outside the trace
                tracemalloc.start()
                try:
                    _, events_path = emit(summary, records, tmp)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                block_bytes = Path(events_path).stat().st_size * 1000 / n
            assert peak < 2 * block_bytes, peak / block_bytes

    def test_float_kernel_holds_a_few_words_a_row(self):
        # The float kernel computes through seven reused 64-bit words a lane
        # and drops each once read, so over a block of sampled times its
        # traced peak, output included, is about 75 bytes a row (about 250
        # when every step made a new array).
        x = np.random.default_rng(6).random(EVENT_BLOCK)
        writer._float_cells(x[:16])  # numpy's own first-use allocations, outside the trace
        tracemalloc.start()
        try:
            writer._float_cells(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90 * EVENT_BLOCK, peak / EVENT_BLOCK

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nul_in_a_flag_rejected_before_writing(self, tmp_path, fmt):
        # NUL pads the writer's cells, so it may not appear in a row.
        summary, records = run(parse_scenario(MINIMAL))
        records = replace(records, flags=("undo", "a\0b"))
        with pytest.raises(InvariantError, match="NUL"):
            emit(summary, records, tmp_path / "out", fmt=fmt)
        assert not (tmp_path / "out").exists()

    def test_unknown_format_rejected_before_writing(self, tmp_path):
        summary, records = run(parse_scenario(MINIMAL))
        with pytest.raises(ValueError, match="'xml'"):
            emit(summary, records, tmp_path / "out", fmt="xml")
        assert not (tmp_path / "out").exists()

    def test_summary_json_is_sorted_and_loadable(self, tmp_path):
        summary, records = run(parse_scenario(MINIMAL))
        paths = emit(summary, records, tmp_path, fmt="json")
        doc = json.loads(open(paths[0]).read())
        assert list(doc) == sorted(doc)
        assert doc["experiment"] == "premeasure"
        assert len(doc["fingerprint"]) == 16

    def test_restricted_states_keep_the_bytes_of_per_entry_floats(self, tmp_path):
        # One tolist() of the (real, imag) stack writes the summary.json bytes
        # that a float per entry wrote, negative zeros and complex entries too.
        m = np.array([[0.3, complex(-0.0, 1e-17), complex(0.0, -0.0)],
                      [complex(-0.0, -1e-17), complex(0.7, -2.5e-33), -0.0],
                      [complex(1.5e-17, 4.3e-17), complex(-0.0, 0.0), 1 / 3]])
        per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        summary, records = run(parse_scenario(MINIMAL))
        written = []
        for k, entries in enumerate((harness._complex_matrix_to_json(m), per_entry)):
            summary.restricted_states = {"pure_ensemble": entries}
            written.append(Path(emit(summary, records, tmp_path / str(k), fmt="json")[0]).read_bytes())
        assert written[0] == written[1]
        assert b"-0.0" in written[0]


# Floats at the edges of the events writer's float kernel: the values it
# leaves to float.__repr__ (zeros, subnormals, powers of two, exponent forms),
# the neighbours of every power of ten, where its guess of the decimal
# exponent can be off by one, and the ends of its domain 1e-4 <= |x| < 1e16.
FLOAT_EDGES = sorted({
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    *(2.0 ** e for e in (-20, -1, 0, 1, 52, 53, 60)),
    *(f(10.0 ** n) for n in range(-5, 18)
      for f in (lambda p: math.nextafter(p, 0.0), float, lambda p: math.nextafter(p, math.inf))),
    math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e16, 0.0), 1e16,
}, key=lambda x: (x, math.copysign(1.0, x)))
# j / 2**18 with j odd is an exact tie at 17 digits from 0.1 up.
DYADIC = st.integers(1, 2**18 - 1).map(lambda j: j / 2**18)


def _cell_texts(values) -> list:
    cells = writer._cells(np.array(values, dtype=float))
    assert cells.shape[0] == len(values) and cells.shape[1] <= writer._CELL_BYTES
    return [row[row != 0].tobytes().decode() for row in cells]


def _kernel_sweep() -> np.ndarray:
    """Seeded float sets for the float kernel, each value of random sign:
    random bit patterns over every exponent and over the kernel's domain,
    perception times in (0, 1], 15-digit decimals (which a 16-digit candidate
    can also reach), dyadic values exactly halfway between two 16-digit
    decimals, and both neighbours of each power of ten and of two in the
    domain, in both signs."""
    rng = np.random.default_rng(18)
    n = 100_000
    bits = np.frombuffer(rng.bytes(8 * n), np.uint64).view(np.float64)
    exps = rng.integers(1009, 1077, n // 10, dtype=np.uint64) << np.uint64(52)
    in_domain = np.frombuffer(rng.bytes(8 * len(exps)), np.uint64) >> np.uint64(12) | exps
    decimals, ties = [], []
    for d in range(-4, 16):
        decimals += [float(f"{i}e{d - 14}") for i in rng.integers(10**14, 10**15, 250)]
        j = rng.integers(math.ceil(10.0**d * 2**(16 - d)) // 2,
                         min(10.0**(d + 1) * 2**(16 - d), 2.0**53) // 2, 250)
        ties += list((2 * j + 1) * 2.0**(d - 16))
    x = np.concatenate([bits[np.isfinite(bits)], in_domain.view(np.float64),
                        1.0 - rng.random(n), decimals, ties])
    x[rng.random(len(x)) < 0.5] *= -1
    powers = [float(f"1e{k}") for k in range(-4, 16)] + [2.0**e for e in range(-13, 54)]
    near = [f(p) for p in powers for f in (lambda p: math.nextafter(p, 0.0),
                                            lambda p: math.nextafter(p, math.inf))]
    near = [p for p in near if 1e-4 <= p < 1e16]
    return np.concatenate([x, near, np.negative(near)])


class TestFloatCells:
    @given(st.lists(st.sampled_from(FLOAT_EDGES) | DYADIC
                    | st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_cells_are_float_repr(self, values, negate):
        values = [-x for x in values] if negate else values
        assert _cell_texts(values) == list(map(float.__repr__, values))

    def test_edges_and_ties_are_float_repr(self):
        values = FLOAT_EDGES + [j / 2**18 for j in range(1, 2**18, 97)]
        values += [-x for x in values]
        assert _cell_texts(values) == list(map(float.__repr__, values))

    def test_kernel_sweep_is_float_repr(self):
        x = _kernel_sweep()
        cells = writer._cells(x)
        lines = np.hstack([cells, np.full((len(x), 1), ord("\n"), np.uint8)])
        got = lines.tobytes().translate(None, b"\0").decode()
        want = "".join(f"{v!r}\n" for v in x.tolist())
        if got != want:
            pytest.fail(str([(w, g) for w, g in zip(want.splitlines(), got.splitlines())
                             if w != g][:5]))

    def test_kernel_decides_uniform_values(self, monkeypatch):
        # Perception times are uniform-like values in (0, 1): the kernel
        # leaves at most the few below 1e-4 to float.__repr__.
        left = []

        def fallback(x):
            left.extend(x.tolist())
            return repr_cells(x)

        repr_cells = writer._repr_cells
        monkeypatch.setattr(writer, "_repr_cells", fallback)
        u = np.random.default_rng(5).random(10_000)
        assert _cell_texts(u) == list(map(float.__repr__, u.tolist()))
        assert all(x < 1e-4 for x in left) and len(left) <= 5


# A valid scenario that sets every key but lambda (so the coupling follows
# delta_t), and the values the fuzz test puts in place of a key. No value in
# the pool is large enough to start a long run.
FUZZ_BASE = {
    "amplitudes": [0.6, 0.8], "seed": 7, "n_events": 200, "s_dim": 2, "o_dim": 3,
    "delta_t": 1.0, "env": {"n_atoms": 2, "coupling_range": [0.5, 1.5]},
    "t_max": 1.0, "n_times": 5, "perception_mode": "sample", "output": {"format": "csv"},
}
FUZZ_KEYS = ["experiment", "lambda", *FUZZ_BASE, "env.n_atoms", "env.coupling_range",
             "output.format"]
FUZZ_POOL = [0, -1, 0.0, 2.5, math.nan, math.inf, True, None, "a", [], {}, [1, 2]]
DROP = "<drop>"


@st.composite
def fuzz_docs(draw):
    """FUZZ_BASE for one experiment with one to three keys replaced by values
    from FUZZ_POOL or dropped."""
    doc = {"experiment": draw(st.sampled_from(EXPERIMENTS)), **copy.deepcopy(FUZZ_BASE)}
    edits = draw(st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_POOL + [DROP]),
                                 min_size=1, max_size=3))
    for key in sorted(edits):
        *parents, leaf = key.split(".")
        target = doc.get(parents[0]) if parents else doc
        if not isinstance(target, dict):
            continue  # the parent mapping was itself replaced or dropped
        if edits[key] is DROP:
            target.pop(leaf, None)
        else:
            target[leaf] = edits[key]
    return doc


# Scenario documents that exit 2 with a one-line diagnostic.
INVALID_BODIES = [
    MINIMAL + "colapse_rate: 0.1\n",
    MINIMAL.replace("seed: 7", "seed: -1"),
    MINIMAL.replace("seed: 7", "seed: 18446744073709551616"),
    MINIMAL.replace("seed: 7", "seed: abc"),
    MINIMAL.replace("n_events: 200", "n_events: abc"),
    MINIMAL + "delta_t: abc\n",
    MINIMAL + "o_dim: abc\n",
    MINIMAL + "env: {coupling_range: [a, b]}\n",
    MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: -1}\n",
    MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: 4097}\n",
    MINIMAL.replace("premeasure", "decohere") + "n_times: 0\n",
    MINIMAL.replace("premeasure", "perception_timing") + "n_times: 0\n",
    MINIMAL.replace("premeasure", "perception_timing") + "n_times: 2\n",
    "experiment: [unclosed\n",
    MINIMAL + "delta_t: .inf\n",
    MINIMAL.replace("premeasure", "decohere") + "t_max: .nan\n",
    MINIMAL + "lambda: -.inf\n",
    MINIMAL + "env: {coupling_range: [0.5, .inf]}\n",
    MINIMAL + "env: {coupling_range: [.nan, 1.0]}\n",
    MINIMAL.replace("[0.5477225575051661", "[.nan"),
    MINIMAL.replace("premeasure", "two_observer") + "o_dim: 2049\n",
    MINIMAL + "o_dim: 3000\n",
    MINIMAL + "delta_t: 0\n",
    MINIMAL.replace("n_events: 200", "n_events: 2.7"),
    MINIMAL.replace("n_events: 200", "n_events: true"),
    MINIMAL + "s_dim: 2.5\n",
    MINIMAL + "o_dim: 3.9\n",
    MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: 1.5}\n",
    MINIMAL.replace("premeasure", "decohere") + "n_times: 10.5\n",
    MINIMAL + "delta_t: 1.0e-320\n",
    MINIMAL + "1: 2\n",
    MINIMAL + "env: {1: 2}\n",
    MINIMAL + "env.n_atoms: 3\n",
    MINIMAL + "output: {path: null}\n",
    MINIMAL + "output: {path: 5}\n",
    MINIMAL + "output: {format: 1}\n",
    MINIMAL + "env: 0\n",
    MINIMAL + "env: false\n",
    MINIMAL + "output: []\n",
    MINIMAL + "output: ''\n",
    MINIMAL.replace("premeasure", "perception_timing") + "lambda: 4.71238898038469\n",
    MINIMAL.replace("premeasure", "perception_timing") + "lambda: 3.141592653589793\n",
    MINIMAL + "perception_mode: sample\ndelta_t: 2.0\nlambda: -3.9269908169872414\n",
    MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: 3}\nt_max: 1.0e+7\n",
    MINIMAL + "delta_t: yes\n",
    MINIMAL + "lambda: true\n",
    MINIMAL + "t_max: true\n",
    MINIMAL + "env: {coupling_range: [false, true]}\n",
    MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[true, false]"),
    MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[[0.6, true], 0.8]"),
    MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", f"[{10**400}, 1]"),
]
INVALID_IDS = [
    "unknown_key", "negative_seed", "seed_2_64", "seed_abc", "n_events_abc",
    "delta_t_abc", "o_dim_abc", "coupling_range_abc", "negative_atoms",
    "atoms_over_dense_cap", "decohere_no_times", "timing_no_times", "timing_two_times",
    "malformed_yaml",
    "delta_t_inf", "t_max_nan", "lambda_inf", "coupling_range_inf", "coupling_range_nan",
    "amplitude_nan", "two_observer_over_dense_cap", "o_dim_over_dense_cap",
    "delta_t_zero", "n_events_fraction", "n_events_bool", "s_dim_fraction",
    "o_dim_fraction", "n_atoms_fraction", "n_times_fraction", "delta_t_subnormal",
    "non_string_key", "non_string_env_key", "dotted_top_level_key", "output_path_null",
    "output_path_number", "output_format_number", "env_zero", "env_false",
    "output_empty_list", "output_empty_string", "timing_past_pi", "timing_at_pi",
    "sample_past_pi", "decohere_t_max_past_rounding_floor", "delta_t_yes",
    "lambda_true", "t_max_true", "coupling_range_bool", "amplitudes_bool",
    "amplitude_pair_bool", "amplitude_past_float_range",
]


class TestCli:
    def _write(self, tmp_path, body=MINIMAL):
        p = tmp_path / "scenario.yaml"
        p.write_text(body)
        return str(p)

    def test_success_exit_zero(self, tmp_path, capsys):
        code = main(["--scenario", self._write(tmp_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "summary.json" in out

    def test_two_observer_with_s_o_squared_past_the_cap_exits_zero(self, tmp_path, capsys):
        # s x o = 100 is within the cap of 4096, s x o x o = 5000 is not.
        body = MINIMAL.replace("premeasure", "two_observer") + "o_dim: 50\n"
        code = main(["--scenario", self._write(tmp_path, body), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_failed_check_exits_four_after_writing_the_outputs(self, tmp_path, capsys, monkeypatch):
        # The swapped mixture of test_planted_swapped_mixture_fails_the_restriction_check.
        exact = harness.premeasured_restrictions
        monkeypatch.setattr(harness, "premeasured_restrictions", lambda psi, amps: exact(psi, amps[::-1]))
        out = tmp_path / "out"
        assert main(["--scenario", self._write(tmp_path), "--out", str(out)]) == 4
        assert f"[FAIL] {COINCIDE} (value: " in capsys.readouterr().out
        assert (out / "summary.json").is_file() and (out / "events.json").is_file()

    def test_missing_scenario_flag_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["--scenario", self._write(tmp_path), "--frobnicate"])
        assert e.value.code == 1

    @pytest.mark.parametrize("body", INVALID_BODIES, ids=INVALID_IDS)
    def test_invalid_scenario_exit_two(self, tmp_path, capsys, body):
        p = tmp_path / "bad.yaml"
        p.write_text(body)
        assert main(["--scenario", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("dualmeas: scenario error: ") and err.count("\n") == 1

    def test_a_billion_atoms_exit_two_before_any_bath_is_formed(self, tmp_path, capsys):
        body = MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: 1000000000}\n"
        tracemalloc.start()
        try:
            code = main(["--scenario", self._write(tmp_path, body), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("dualmeas: scenario error: ") and err.count("\n") == 1
        assert "exceeds the cap 4096" in err and peak < 2**20

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_amplitude_norms_past_float_range(self, tmp_path, capsys, fmt):
        # The squares of 1e200 overflow and those of 1e-170 and of the
        # subnormal 1e-320 underflow: each vector is [1, 1] scaled, and runs
        # as [1, 1] does.
        outputs = []
        for k, amps in enumerate(["[1, 1]", "[1.0e+200, 1.0e+200]", "[1.0e-170, 1.0e-170]",
                                  "[1.0e-320, 1.0e-320]"]):
            body = MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", amps)
            out = tmp_path / f"out{k}"
            code = main(["--scenario", self._write(tmp_path, body), "--out", str(out),
                         "--format", fmt])
            assert code == 0
            # The normalization warning alone, as one line: no RuntimeWarning.
            err = capsys.readouterr().err
            assert re.fullmatch(r"dualmeas: warning: amplitudes norm \S+ != 1; normalizing\n", err)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outputs[0]) == ["events." + fmt, "summary.json"]
        assert all(out == outputs[0] for out in outputs[1:])

    def test_unnormalized_amplitudes_under_warnings_as_errors(self, tmp_path):
        # -W error turns the normalization warning into an exception; the CLI
        # still prints it as one line and runs.
        body = MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[1, 1]")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dualmeas", "--scenario",
             self._write(tmp_path, body), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "dualmeas: warning: amplitudes norm 1.41421 != 1; normalizing\n"
        assert "[FAIL]" not in proc.stdout and "summary.json" in proc.stdout

    def test_normalization_warning_precedes_a_scenario_error(self, tmp_path, capsys):
        body = (MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[1, 1]")
                + "perception_mode: sample\nlambda: 4.71238898038469\n")
        assert main(["--scenario", self._write(tmp_path, body)]) == 2
        warning, error = capsys.readouterr().err.splitlines()
        assert warning == "dualmeas: warning: amplitudes norm 1.41421 != 1; normalizing"
        assert error.startswith("dualmeas: scenario error: perception times need")

    def test_other_warnings_keep_the_interpreter_filters(self, tmp_path, monkeypatch):
        # Only the normalization warning becomes a line; under -W error any
        # other warning raised while loading still ends the run.
        def load(path):
            warnings.warn("a planted deprecation", DeprecationWarning)
            return parse_scenario(MINIMAL)

        monkeypatch.setattr(cli, "load_scenario", load)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeprecationWarning, match="planted"):
                main(["--scenario", self._write(tmp_path, MINIMAL), "--out", str(tmp_path)])

    def test_run_beyond_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        # What numpy raises for n_events: 10**12 (931 GiB of uint8 records),
        # without asking the system for that much.
        def refuse(seed, n_events):
            raise MemoryError(f"Unable to allocate 931. GiB for an array with shape "
                              f"({n_events},) and data type uint8")

        monkeypatch.setattr(harness, "uniform_blocks", refuse)
        body = MINIMAL.replace("n_events: 200", "n_events: 1000000000000")
        assert main(["--scenario", self._write(tmp_path, body),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert err.startswith("dualmeas: scenario error: out of memory: Unable to allocate")

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_incomplete_measurement_exits_three(self, tmp_path, capsys, experiment):
        # lambda * delta_t = 0.5 leaves ready weight cos^2(0.5) ~ 0.77 in
        # every experiment: none may record from the half-done measurement.
        body = (f"experiment: {experiment}\namplitudes: [0.6, 0.8]\nseed: 3\nn_events: 100\n"
                "lambda: 0.5\nenv: {n_atoms: 2}\nn_times: 5\n")
        assert main(["--scenario", self._write(tmp_path, body),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "measurement incomplete" in err and err.count("\n") == 1

    @given(doc=fuzz_docs())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_fuzzed_scenario_exits_cleanly(self, doc):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.yaml"
            path.write_text(yaml.safe_dump(doc))
            argv = ["--scenario", str(path), "--out", str(Path(tmp) / "out"), "--events", "20"]
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    def test_null_sections_are_empty(self, tmp_path):
        path = self._write(tmp_path, MINIMAL + "env: null\noutput: null\n")
        assert main(["--scenario", path, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
    def test_missing_file_exit_two(self, tmp_path, capsys, kind):
        # An unreadable file for lack of permission is the same OSError
        # branch, but cannot be made as root, so it is not a case here.
        path = tmp_path / "scenario.yaml"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-utf8":
            path.write_bytes(b"\xff\xfe" + MINIMAL.encode())
        assert main(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1, err

    def test_overrides_apply(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--scenario", self._write(tmp_path),
            "--seed", "99", "--events", "10", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["seed"] == 99
        assert doc["n_events"] == 10
        assert (out / "events.csv").exists()

    def test_check_mode_exit_zero(self, capsys):
        assert main(["--check"]) == 0
        assert "PASS" in capsys.readouterr().out


ROOT = Path(__file__).resolve().parents[1]


# A document skeleton marks each choice between pieces of the plain subset
# of YAML that scenario._plain_yaml reads and pieces next to it by an index
# into _SLOTS; yaml_docs fills every slot with a plain piece but at most one.
_SLOTS = []


def _slot(plain, near):
    _SLOTS.append((plain, near))
    return st.just(f"\0{len(_SLOTS) - 1}\0")


_SCALARS = _slot(
    ["0", "-0", "+7", "42", "0.5", "-0.0", "1.", "00.5", "1.0e+5", "1.5E-3", "abc", "y", "n",
     "fire_at_end", "a.b/c-d", "''", "'a # b'", "' a '", "'a\\b'", '"x y"', '""', "'on'", '"1"'],
    ["07", "08", "010", "0x1F", "1_000", ".5", "1.5e3", "6e-1", ".inf", "-.inf", ".nan", "~",
     "null", "NULL", "on", "Off", "yes", "NO", "true", "a b", "a#b", "a:b", '"a\\b"', "'it''s'",
     "&x 1", "*x", "!!str 1", "2001-12-14", "1:20", "-", "- 1", "?", "|", "4" * 4301])
# A flow mapping's key may be any scalar, a block mapping's only a word.
_KEYS = _slot(["a", "b", "seed", "env", "y", "a.b", "_x", "A-1"],
              ["on", "Yes", "null", "~", "b:1", "-k", "a b", "1", "'q'", "k" * 1025])
_FLOW_KEYS = _slot(["a", "b", "y", "a.b", "1", "-0.0", "'q'", '"on"', '""'],
                   ["on", "Yes", "null", "~", "b:1", "-k", "a b", "[1]", "{}", f"'{'q' * 1023}'"])
_COMMENTS = _slot(["", "", " # c", "  #: [x", " #"], ["#c", "\t# c"])


def _flow(inner):
    seps = _slot([", ", ",", " , "], [",,", ", ,", ",\t"])
    return st.one_of(
        st.builds(lambda items, sep, tail: "[" + sep.join(items) + tail + "]",
                  st.lists(inner, max_size=3), seps, _slot(["", " "], [",", ", "])),
        st.builds(lambda pairs, sep, colon: "{" + sep.join(k + colon + v for k, v in pairs) + "}",
                  st.lists(st.tuples(_FLOW_KEYS, inner), max_size=3), seps,
                  _slot([": ", " : ", ":  "], [":", ":\t"])))


_ENTRIES = st.builds(lambda key, colon, value, comment: key + colon + value + comment,
                     _KEYS, _slot([": ", ":   "], [":", " : ", ":\t"]),
                     st.recursive(_SCALARS, _flow, max_leaves=6), _COMMENTS)
# A section holds at least one entry: an empty one is null.
_SECTIONS = st.builds(
    lambda key, comment, indent, entry, lines: key + ":" + comment + "\n" + indent + entry
    + "".join("\n" + indent + pad + line for pad, line in lines),
    _KEYS, _COMMENTS, st.sampled_from([" ", "  ", "    "]), _ENTRIES,
    st.lists(st.tuples(_slot([""], [" ", "\t"]),
                       st.one_of(_ENTRIES, _ENTRIES, _slot(["# c", ""], ["- 1", "k:"]))),
             max_size=3))
_SKELETONS = st.builds(
    lambda first, lines, newline, end: newline.join([first, *lines]) + end,
    st.one_of(_ENTRIES, _SECTIONS),
    st.lists(st.one_of(_ENTRIES, _ENTRIES, _SECTIONS, _slot(
        ["", "# comment", "   # indented"],
        ["---", "...", "- 1", "  continued", "? k", "%YAML 1.1", "a: &x 1", "b: *x", "\ta: 1", "env:"])),
        max_size=5),
    _slot(["\n"], ["\r\n"]), st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def yaml_docs(draw):
    """A document in the plain subset and True, or, half the time, the same
    with one piece next to the subset and False. Each near piece of the
    skeleton's kinds of slot is as likely."""
    parts = re.split("\0([0-9]+)\0", draw(_SKELETONS))
    slots = range(1, len(parts), 2)
    kinds = sorted({int(parts[i]) for i in slots})
    kind, piece = draw(st.one_of(st.just((None, None)), st.sampled_from(
        [(k, piece) for k in kinds for piece in _SLOTS[k][1]])))
    near = None if kind is None else draw(st.sampled_from([i for i in slots if int(parts[i]) == kind]))
    for i in slots:
        parts[i] = piece if i == near else draw(st.sampled_from(_SLOTS[int(parts[i])][0]))
    return "".join(parts), near is None


# Outside the subset: PyYAML reads a block sequence.
BLOCK_STYLE = ("experiment: premeasure\namplitudes:\n  - 0.6\n  - 0.8\nseed: 3\n"
               "env:\n  # decohere alone reads the bath\n  n_atoms: 2\n")
MINIMAL_CASES = {
    **{e: MINIMAL.replace("premeasure", e) for e in EXPERIMENTS},
    "lambda": MINIMAL + "lambda: 0.25\n",
    "integral_floats": MINIMAL.replace("n_events: 200", "n_events: 1.0e+5") + "o_dim: 3.0\n",
    "complex": MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[[0.6, 0.0], [0.0, 0.8]]"),
    "exponent_form": MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[6e-1, [0, 8e-1]]"),
    "unnormalized": MINIMAL.replace("[0.5477225575051661, 0.8366600265340756]", "[3.0, 4.0]"),
    "null_sections": MINIMAL + "env: null\noutput: null\n",
    "sections": MINIMAL.replace("premeasure", "decohere")
    + "env:  # the bath\n  n_atoms: 3\n  coupling_range: [0.5, 1.5]\noutput: {path: 'o', format: csv}\n",
    "block_style": BLOCK_STYLE,
}


def _outcome(text):
    """The scenario *text* as Scenario fields and warnings, or, when it is
    invalid, the CLI's exit code and stderr for it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sc = parse_scenario(text)
            return (sc.canonical_dict(), sc.out_path, sc.out_format), [str(w.message) for w in caught]
        except ScenarioError:
            pass
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(text)
        with contextlib.redirect_stderr(err):
            code = main(["--scenario", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


def _without_reader(text):
    with mock.patch.object(scenario, "_plain_yaml", lambda text: None):
        return _outcome(text)


class TestPlainYaml:
    @given(yaml_docs())
    @settings(max_examples=1000, deadline=None, derandomize=True)
    def test_reader_agrees_with_pyyaml(self, doc):
        text, plain = doc
        got = scenario._plain_yaml(text)
        assert got is not None or not plain
        if got is not None:
            assert repr(got) == repr(yaml.safe_load(text))

    @pytest.mark.parametrize("text, plain", [
        ("on: 3\n", False),  # {True: 3}
        ("a: {b:1}\n", False),  # the key "b:1"
        ("a: 1.5e3\n", False),  # a string
        ("a: 07\n", False), ("a: 0x1F\n", False), ("a: 1_000\n", False), ("a: .5\n", False),
        ("a: ~\n", False), ("a: null\n", False), ("a: yes\n", False), ("env:\nseed: 1\n", False),
        ("a: ''\n", True), ("a: 'x # y'  # c\n", True), ("a: \"#\"\n", True), ("a: 'a\\b'\n", True),
        ('a: "a\\b"\n', False), ("a: 'it''s'\n", False), ("a: [1, 2,]\n", False),
        ("a: {b: 1,}\n", False), ("a: 1\nb: 2\na: 3\n", True), ("a:\t1\n", False),
        ("a: 1\r\nb: 2\r\n", False), ("---\na: 1\n", False), ("a: &x 1\nb: *x\n", False),
        ("a: 1.0e+5\nb: -0.0\nc: +1\nd: 1.\n", True), ("a: [[0.6, 0.0], [0.0, 0.8]]\n", True),
        ("a: {1: b, 1.0: c, 'on': d}\n", True), ("a: b c\n", False), ("a: b#c\n", False),
        ("a: [1]#c\n", False), ("a: 1\n  b: 2\n", False), ("env:\n  a: 1\n    b: 2\n", False),
        ("env:\n  a:\n    b: 2\n", False), ("env:\n\n  a: 1\n# c\n  b: 2 # d\n", True),
        ("a" * 1024 + ": 1\n", True), ("a" * 1025 + ": 1\n", False),
        ('x: {"' + "a" * 1022 + '": 1}\n', True), ('x: {"' + "a" * 1023 + '": 1}\n', False),
        ("x: " + "1" * 4301 + "\n", False), ("x: " + "[" * 5000 + "\n", False),
    ], ids=[
        "on", "b:1", "1.5e3", "07", "0x1F", "1_000", ".5", "tilde", "null", "yes", "empty_section",
        "empty_quoted", "quoted_hash_comment", "double_quoted_hash", "single_quoted_backslash",
        "double_quoted_escape", "single_quoted_escape", "trailing_comma", "trailing_comma_mapping",
        "duplicate_keys", "tab", "crlf", "document_start", "anchor", "numbers", "pairs",
        "scalar_flow_keys", "spaced_word", "word_hash", "flow_hash", "continuation",
        "uneven_indent", "third_level", "section_comments", "key_1024", "key_1025",
        "quoted_key_1024", "quoted_key_1025", "int_past_4300_digits", "deep_flow",
    ])
    def test_reader_takes_the_plain_subset_only(self, text, plain):
        got = scenario._plain_yaml(text)
        assert (got is not None) == plain
        if plain:
            assert repr(got) == repr(yaml.safe_load(text))

    def test_shipped_documents_take_the_reader(self):
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        bench_run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_run)
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        texts = [(ROOT / "demos" / "scenario.yaml").read_text(encoding="utf-8"),
                 re.search(r"```yaml\n(.*?)```", readme, re.S)[1],
                 *(bench_run.scenario_yaml(w, 1, ROOT / "out") for w in bench_run.WORKLOADS)]
        for text in texts:
            got = scenario._plain_yaml(text)
            assert got is not None and repr(got) == repr(yaml.safe_load(text)), text

    @pytest.mark.parametrize("text", [*MINIMAL_CASES.values(), *INVALID_BODIES],
                             ids=[*MINIMAL_CASES, *INVALID_IDS])
    def test_same_outcome_without_the_reader(self, text):
        assert _outcome(text) == _without_reader(text)

    @given(doc=fuzz_docs(), flow_style=st.sampled_from([False, None]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_fuzzed_documents_same_outcome_without_the_reader(self, doc, flow_style):
        text = yaml.safe_dump(doc, default_flow_style=flow_style)
        assert _outcome(text) == _without_reader(text)


# Runs every experiment at a small size through run + emit in a fresh
# interpreter, then prints the heavy modules the process has loaded beyond
# those of a bare `import numpy, yaml`. numpy.ma costs a cold run 13-20 ms;
# np.unique is one function that imports it.
_STARTUP_PROBE = """
import sys, tempfile
import numpy, yaml
bare = set(sys.modules)  # numpy 1.x loads numpy.random, and so hashlib, on import
import dualmeas, dualmeas.cli
from dualmeas.harness import EXPERIMENTS, emit, parse_scenario, run
extra = {"decohere": "env: {n_atoms: 2}\\nn_times: 5\\n", "perception_timing": "n_times: 101\\n"}
bodies = [f"experiment: {e}\\nn_events: 30\\n" + extra.get(e, "") for e in EXPERIMENTS]
bodies.append("experiment: premeasure\\nn_events: 30\\nperception_mode: sample\\n")
with tempfile.TemporaryDirectory() as tmp:
    for k, body in enumerate(bodies):
        sc = parse_scenario("amplitudes: [0.6, 0.8]\\nseed: 5\\n" + body)
        summary, records = run(sc)
        assert all(c["passed"] for c in summary.checks), body
        emit(summary, records, f"{tmp}/{k}", fmt="csv" if k % 2 else "json")
print(" ".join(m for m in set(sys.modules) - bare if m in ("scipy", "numpy.random", "numpy.ma")
               or m.startswith(("scipy.", "numpy.random.", "numpy.ma."))))
"""


class TestStartup:
    def test_runs_load_neither_scipy_nor_numpy_random(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_runs_do_not_load_openssl(self):
        # The fingerprint's SHA-256 is the interpreter's builtin one; hashlib
        # would load OpenSSL (_hashlib, _ssl), about 3.5 MiB of a run's peak.
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = _STARTUP_PROBE + 'print(*(m for m in ("hashlib", "_hashlib", "_ssl") if m in set(sys.modules) - bare))\n'
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == []

    def test_plain_documents_do_not_load_yaml(self):
        # The shipped example runs without PyYAML; a block-style document
        # imports it and runs too.
        probe = (
            "import sys, tempfile\nfrom dualmeas.cli import main\n"
            "yaml = lambda: sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', '_yaml'))\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            f"    print(main(['--scenario', {str(ROOT / 'demos' / 'scenario.yaml')!r}, '--out', tmp]), yaml())\n"
            "    with open(tmp + '/block.yaml', 'w') as fh:\n"
            f"        fh.write({BLOCK_STYLE!r})\n"
            "    print(main(['--scenario', tmp + '/block.yaml', '--out', tmp]), 'yaml' in yaml())\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert [line for line in proc.stdout.splitlines() if not line.startswith(("[PASS]", "wrote"))] \
            == ["0 []", "0 True"]

    def test_runs_do_not_load_dataclasses(self):
        # The records are plain classes: a run execs no generated methods.
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = _STARTUP_PROBE + 'print(*(m for m in set(sys.modules) - bare if m.startswith("dataclasses")))\n'
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == []


_FINGERPRINT_EXTRA = {"decohere": "env: {n_atoms: 2}\nn_times: 5\n", "perception_timing": "n_times: 101\n"}
FINGERPRINT_RUNS = [f"experiment: {e}\nn_events: 30\n" + _FINGERPRINT_EXTRA.get(e, "") for e in EXPERIMENTS]
FINGERPRINT_RUNS.append("experiment: premeasure\nn_events: 30\nperception_mode: sample\n")
FINGERPRINT_AMPS = {"real": "[0.6, 0.8]", "complex": "[[0.6, 0.0], [0.0, 0.8]]",
                    "s_dim_3": "[0.48, 0.6, 0.64]"}


class TestFingerprint:
    @pytest.mark.parametrize("amps", FINGERPRINT_AMPS.values(), ids=FINGERPRINT_AMPS.keys())
    @pytest.mark.parametrize("body", FINGERPRINT_RUNS, ids=[*EXPERIMENTS, "premeasure-sample"])
    def test_equals_hashlib_sha256_of_the_payload(self, body, amps):
        sc = parse_scenario(f"amplitudes: {amps}\nseed: 5\n" + body)
        payload = json.dumps(sc.canonical_dict(), sort_keys=True) + f"|dualmeas {__version__}"
        assert run(sc)[0].fingerprint == hashlib.sha256(payload.encode()).hexdigest()[:16]

    def test_hashlib_fallback_gives_the_same_fingerprint(self):
        # An interpreter built without the builtin SHA-256 modules: importing
        # either raises ImportError, so harness takes hashlib's sha256.
        probe = (
            'import sys\nsys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
            "import dualmeas.harness as h\n"
            'assert h.sha256 is sys.modules["hashlib"].sha256\n'
            f"print(h.run(h.parse_scenario({MINIMAL!r}))[0].fingerprint)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == run(parse_scenario(MINIMAL))[0].fingerprint
