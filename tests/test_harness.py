"""Tests for scenario parsing, the experiment runner, emission, and the CLI."""

import contextlib
import copy
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualmeas import harness
from dualmeas.cli import main
from dualmeas.core import (
    CompositeLayout,
    InvariantError,
    LinearOperator,
    StateVector,
    embed,
    evolve_unitary,
)
from dualmeas.dual import EVENT_BLOCK, DualState, draw_index
from dualmeas.dynamics import (
    O_LABEL,
    S_LABEL,
    MeasurementModel,
    branch_weights,
    run_premeasurement,
)
from dualmeas.harness import (
    EXPERIMENTS,
    RunSummary,
    Scenario,
    ScenarioError,
    emit,
    load_scenario,
    parse_scenario,
    run,
)

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

    def test_unnormalized_amplitudes_warn_and_normalize(self):
        with pytest.warns(UserWarning, match="normaliz"):
            sc = parse_scenario("experiment: premeasure\namplitudes: [3.0, 4.0]\nseed: 1\n")
        assert np.linalg.norm(sc.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert abs(sc.amplitudes[0]) == pytest.approx(0.6)

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

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(MINIMAL)
        assert load_scenario(p).seed == 7


def _dual(n):
    """Dual state of *n* events after one calibrated measurement, with no steps."""
    model = MeasurementModel.calibrated()
    psi = run_premeasurement(StateVector.from_amplitudes(model.s_layout(), (0.6, 0.8)), model)
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


COSINE = "simulated off-diagonal factor matches the cosine product"


def _decohere(amplitudes):
    return parse_scenario(f"experiment: decohere\namplitudes: {amplitudes}\nseed: 7\n"
                          "n_events: 200\nenv: {n_atoms: 3}\nn_times: 5\n")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_uniforms_of_zero_record_system_indices(monkeypatch, experiment):
    # After a calibrated window each ready weight is rounding residue, about
    # 4e-33; a uniform of exactly 0.0 may not draw it.
    monkeypatch.setattr(harness, "event_uniforms", lambda seed, n: np.zeros((n, 2)))
    extra = {"decohere": "env: {n_atoms: 2}\nn_times: 5\n"}.get(experiment, "")
    summary, records = run(parse_scenario(MINIMAL.replace("premeasure", experiment) + extra))
    drawn = [j for _, j in records.steps if np.ndim(j)]
    assert drawn and all(np.all(j == 1) for j in drawn)


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

    def test_two_point_grid_keeps_the_fixed_bound(self):
        summary, _ = run(parse_scenario(TIMING.format(2)))
        assert abs(summary.checks[0]["value"] - 1.0) > 1e-6
        assert not summary.checks[0]["passed"]


PERSISTS = "reduction baseline: outcome persists through undo"


class TestReductionBaselineCheck:
    @pytest.mark.parametrize("experiment", ["undo", "reduction_compare"])
    def test_planted_redraw_fails(self, monkeypatch, experiment):
        # A wrong comparator that forgets the collapse: it redraws each
        # event's index from the premeasured weights, as the dual model does.
        sc = parse_scenario(MINIMAL.replace("premeasure", experiment))

        def redraw(model, collapsed, u):
            return draw_index(branch_weights(run_premeasurement(sc.system_state(), model)), u)

        monkeypatch.setattr(harness, "reduction_baseline", redraw)
        summary, _ = run(sc)
        check = next(c for c in summary.checks if c["name"] == PERSISTS)
        assert not check["passed"]
        assert check["value"] == summary.correlations["baseline_old_new"] < 0.7  # 0.3**2 + 0.7**2


@pytest.mark.parametrize("experiment, extra, calls", [
    ("premeasure", "", 1),
    ("premeasure", "perception_mode: sample\n", 1),
    ("undo", "", 1),
    ("reduction_compare", "", 1),
    ("perception_timing", "", 1),
    ("decohere", "env: {n_atoms: 2}\nn_times: 5\n", 1),
    ("two_observer", "", 1),
])
def test_each_generator_is_diagonalized_once_per_run(monkeypatch, experiment, extra, calls):
    # Every run builds the one S (x) O generator, s_dim * o_dim = 6 wide.
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.shape) or eigh(a))
    summary, _ = run(parse_scenario(MINIMAL.replace("premeasure", experiment) + extra))
    assert all(c["passed"] for c in summary.checks)
    assert seen == [(6, 6)] * calls


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
    np.testing.assert_allclose(records.phi_d.amplitudes, psi_t2.amplitudes, rtol=0, atol=1e-12)
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


# Rows of three column steps and the flag "undo" that fill one block of the
# events writer: a 192-byte template and seven cells of at most 24 bytes.
JSON_K3_BLOCK = harness._EMIT_BYTES // (192 + 24 * 7)


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
        # floats that print with an exponent. Steps are built directly:
        # record() would reject the indices below 0 and past the pointer basis.
        rng = np.random.default_rng(seed)
        indices = [-1, 0, 2, 9, 10, 99, 100, 2**40, 10**18, 2**63 - 1, -2**63]
        steps, floor = [], -math.inf  # every event's latest time so far
        for c in constant[:k]:
            if c:  # a scalar step: one value shared by every event
                t, j = max(rng.choice(floats), np.max(floor, initial=-math.inf)), rng.choice(indices)
            else:
                t, j = np.maximum(rng.choice(floats, n), floor), rng.choice(indices, n)
            steps.append((t, j))
            floor = t
        records = DualState(_dual(1).phi_d, n, flags=flags, steps=tuple(steps))
        summary = RunSummary(experiment="premeasure", seed=0, n_events=n, frequencies={})
        with tempfile.TemporaryDirectory() as tmp:
            _, events_path = emit(summary, records, tmp, fmt=fmt)
            assert Path(events_path).read_bytes() == _per_event_dump(records, fmt).encode()

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

    def test_missing_scenario_flag_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["--scenario", self._write(tmp_path), "--frobnicate"])
        assert e.value.code == 1

    @pytest.mark.parametrize(
        "body",
        [
            MINIMAL + "colapse_rate: 0.1\n",
            MINIMAL.replace("seed: 7", "seed: -1"),
            MINIMAL.replace("seed: 7", "seed: 18446744073709551616"),
            MINIMAL.replace("seed: 7", "seed: abc"),
            MINIMAL.replace("n_events: 200", "n_events: abc"),
            MINIMAL + "delta_t: abc\n",
            MINIMAL + "o_dim: abc\n",
            MINIMAL + "env: {coupling_range: [a, b]}\n",
            MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: -1}\n",
            MINIMAL.replace("premeasure", "decohere") + "env: {n_atoms: 10}\n",
            MINIMAL.replace("premeasure", "decohere") + "n_times: 0\n",
            MINIMAL.replace("premeasure", "perception_timing") + "n_times: 0\n",
            "experiment: [unclosed\n",
            MINIMAL + "delta_t: .inf\n",
            MINIMAL.replace("premeasure", "decohere") + "t_max: .nan\n",
            MINIMAL + "lambda: -.inf\n",
            MINIMAL + "env: {coupling_range: [0.5, .inf]}\n",
            MINIMAL + "env: {coupling_range: [.nan, 1.0]}\n",
            MINIMAL.replace("[0.5477225575051661", "[.nan"),
            MINIMAL.replace("premeasure", "two_observer") + "o_dim: 50\n",
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
        ],
        ids=[
            "unknown_key", "negative_seed", "seed_2_64", "seed_abc", "n_events_abc",
            "delta_t_abc", "o_dim_abc", "coupling_range_abc", "negative_atoms",
            "atoms_over_dense_cap", "decohere_no_times", "timing_no_times", "malformed_yaml",
            "delta_t_inf", "t_max_nan", "lambda_inf", "coupling_range_inf", "coupling_range_nan",
            "amplitude_nan", "two_observer_over_dense_cap", "o_dim_over_dense_cap",
            "delta_t_zero", "n_events_fraction", "n_events_bool", "s_dim_fraction",
            "o_dim_fraction", "n_atoms_fraction", "n_times_fraction", "delta_t_subnormal",
            "non_string_key", "non_string_env_key", "dotted_top_level_key", "output_path_null",
            "output_path_number", "output_format_number", "env_zero", "env_false",
            "output_empty_list", "output_empty_string",
        ],
    )
    def test_invalid_scenario_exit_two(self, tmp_path, capsys, body):
        p = tmp_path / "bad.yaml"
        p.write_text(body)
        assert main(["--scenario", str(p), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("dualmeas: scenario error: ") and err.count("\n") == 1

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

    @given(
        experiment=st.sampled_from(EXPERIMENTS),
        edits=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_POOL + [DROP]),
                              min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_fuzzed_scenario_exits_cleanly(self, experiment, edits):
        doc = {"experiment": experiment, **copy.deepcopy(FUZZ_BASE)}
        for key in sorted(edits):
            *parents, leaf = key.split(".")
            target = doc.get(parents[0]) if parents else doc
            if not isinstance(target, dict):
                continue  # the parent mapping was itself replaced or dropped
            if edits[key] is DROP:
                target.pop(leaf, None)
            else:
                target[leaf] = edits[key]
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


# Runs every experiment at a small size through run + emit in a fresh
# interpreter, then prints the heavy modules the process has loaded. numpy.ma
# costs a cold run 13-20 ms; np.unique is one function that imports it.
_STARTUP_PROBE = """
import sys, tempfile
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
print(" ".join(m for m in sys.modules if m in ("scipy", "numpy.random", "numpy.ma")
               or m.startswith(("scipy.", "numpy.random.", "numpy.ma."))))
"""


class TestStartup:
    def test_runs_load_neither_scipy_nor_numpy_random(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE], capture_output=True,
                              text=True, env={"PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []
