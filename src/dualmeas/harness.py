"""Scenario configuration, batch experiment runner, and result emission.

Scenarios are YAML documents with strict key checking (an unknown key is an
error, never silently ignored). A run is fully determined by the scenario
plus its seed: per-event randomness comes from counter-based substreams, so
outputs are byte-identical across repeated runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .core import (
    MAX_TOTAL_DIM,
    CompositeLayout,
    DensityMatrix,
    InvariantError,
    StateVector,
    TOL_ALGEBRAIC,
    TOL_ROUNDTRIP,
    trace_distance,
)
from .dual import (
    EVENT_BLOCK,
    DualState,
    draw_index,
    event_rng,  # not called here; bench/test_bench.py reaches it as harness.event_rng
    event_uniforms,
    perception_time_pdf,
    philox_uniforms,
    reduction_baseline,
    sample_perception_time,
    simpson,
)
from .dynamics import (
    EMPTY_BRANCH_NORM,
    O2_LABEL,
    O_LABEL,
    S_LABEL,
    EnvironmentModel,
    MeasurementModel,
    attach_environment,
    branch_state,
    branch_weights,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)
from .interference import discriminate, interference_operator
from .restriction import breuer_distinguishable, restricted_state

EXPERIMENTS = (
    "premeasure",
    "undo",
    "two_observer",
    "decohere",
    "reduction_compare",
    "perception_timing",
)


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


@dataclass(frozen=True)
class Scenario:
    """Validated experiment configuration; the one place of every default."""

    experiment: str
    amplitudes: np.ndarray
    seed: int
    n_events: int = 1000
    s_dim: int | None = None  # defaults to len(amplitudes)
    o_dim: int | None = None  # defaults to s_dim + 1
    delta_t: float = 1.0
    coupling: float | None = None  # defaults to pi / (2 * delta_t)
    env_atoms: int = 0
    env_coupling_range: tuple[float, float] = (0.5, 1.5)
    t_max: float = 1.0
    n_times: int = 50
    perception_mode: str = "fire_at_end"  # or "sample"
    out_path: str = "out"
    out_format: str = "json"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.s_dim is None:
            object.__setattr__(self, "s_dim", amps.shape[0])
        if self.o_dim is None:
            object.__setattr__(self, "o_dim", self.s_dim + 1)
        if self.experiment not in EXPERIMENTS:
            raise ScenarioError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.n_events < 1:
            raise ScenarioError("n_events must be >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ScenarioError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.n_times < 2:
            raise ScenarioError("n_times must be >= 2")
        if self.env_atoms < 0:
            raise ScenarioError("env n_atoms must be >= 0")
        finite = {"delta_t": self.delta_t, "t_max": self.t_max,
                  "env coupling_range": self.env_coupling_range, "amplitudes": amps}
        for name, x in finite.items():
            if not np.all(np.isfinite(x)):
                raise ScenarioError(f"{name} must be finite")
        if self.delta_t <= 0:  # before model() divides by it
            raise ScenarioError("delta_t must be > 0")
        if amps.shape[0] != self.s_dim:
            raise ScenarioError(
                f"amplitudes length {amps.shape[0]} != s_dim {self.s_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if norm == 0:
            raise ScenarioError("amplitudes are all zero")
        if abs(norm - 1.0) > 1e-9:
            warnings.warn(f"amplitudes norm {norm:.6g} != 1; normalizing", stacklevel=2)
            amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        if self.out_format not in ("json", "csv"):
            raise ScenarioError(f"output format must be json or csv, got {self.out_format!r}")
        if self.perception_mode not in ("fire_at_end", "sample"):
            raise ScenarioError(
                f"perception_mode must be fire_at_end or sample, got {self.perception_mode!r}")
        lo, hi = self.env_coupling_range
        if not (0 <= lo <= hi):
            raise ScenarioError("env coupling_range must satisfy 0 <= low <= high")
        # Constructing the models validates dimension constraints up front. The
        # default coupling pi / (2 delta_t) overflows for a subnormal delta_t.
        coupling = self.model().coupling
        if not math.isfinite(coupling):
            raise ScenarioError(f"lambda must be finite, got {coupling!r}")
        # The layout the experiment builds: S x O, S x O x O2 for two_observer,
        # S x O x 2**n_atoms for decohere; the capped shift still exceeds the
        # cap when n_atoms does, without building a huge integer.
        extra = {"two_observer": self.o_dim,
                 "decohere": 1 << min(self.env_atoms, MAX_TOTAL_DIM.bit_length())}
        if self.s_dim * self.o_dim * extra.get(self.experiment, 1) > MAX_TOTAL_DIM:
            raise ScenarioError(f"{self.experiment} layout exceeds the dense cap {MAX_TOTAL_DIM}")

    def model(self) -> MeasurementModel:
        coupling = self.coupling if self.coupling is not None else math.pi / (2.0 * self.delta_t)
        return MeasurementModel(
            s_dim=self.s_dim, o_dim=self.o_dim, coupling=coupling, duration=self.delta_t
        )

    def system_state(self) -> StateVector:
        return StateVector(CompositeLayout(((S_LABEL, self.s_dim),)), self.amplitudes)

    def environment(self) -> EnvironmentModel:
        """Environment with couplings drawn from the configured range on substream
        1 << 62 of the scenario seed (recorded in the summary), disjoint from every event's."""
        lo, hi = self.env_coupling_range
        g = lo + (hi - lo) * philox_uniforms(self.seed, 1 << 62, self.env_atoms)
        return EnvironmentModel.default(self.env_atoms, self.o_dim, couplings=g)

    def canonical_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
            "seed": int(self.seed),
            "n_events": int(self.n_events),
            "s_dim": int(self.s_dim),
            "o_dim": int(self.o_dim),
            "delta_t": float(self.delta_t),
            "coupling": float(self.model().coupling),
            "env": {
                "n_atoms": int(self.env_atoms),
                "coupling_range": [float(x) for x in self.env_coupling_range],
            },
            "t_max": float(self.t_max),
            "n_times": int(self.n_times),
            "perception_mode": self.perception_mode,
        }


def _amplitudes(value, key):
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{key}: expected a nonempty list")
    out = []
    for pos, x in enumerate(value):
        parts = x if isinstance(x, list) and len(x) == 2 else [x]
        if not all(isinstance(v, (int, float)) for v in parts):
            raise ScenarioError(
                f"{key}[{pos}]: expected a real number or a [re, im] pair, got {x!r}")
        out.append(complex(*parts))
    return out


def _low_high(value, key):
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(f"{key}: expected [low, high]")
    return tuple(_convert(float, x, key) for x in value)


# YAML key ("env.n_atoms" for a key of the env mapping) -> (Scenario field,
# type or parser). None hands the value on for Scenario to check.
_KEYS = {
    "experiment": ("experiment", None),
    "amplitudes": ("amplitudes", _amplitudes),
    "seed": ("seed", None),
    "n_events": ("n_events", int),
    "s_dim": ("s_dim", int),
    "o_dim": ("o_dim", int),
    "delta_t": ("delta_t", float),
    "lambda": ("coupling", float),
    "env.n_atoms": ("env_atoms", int),
    "env.coupling_range": ("env_coupling_range", _low_high),
    "t_max": ("t_max", float),
    "n_times": ("n_times", int),
    "perception_mode": ("perception_mode", None),
    "output.path": ("out_path", str),
    "output.format": ("out_format", str),
}


def _convert(kind, value, key):
    if kind not in (int, float, str):
        return value if kind is None else kind(value, key)
    # int() would truncate 2.7 to 2 and read true as 1, str() would write null as "None".
    if (kind is int and (isinstance(value, bool)
                         or isinstance(value, float) and not value.is_integer())
            or kind is str and not isinstance(value, str)):
        raise ScenarioError(f"{key}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document (strict keys)."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError("malformed YAML: " + " ".join(str(e).split()))
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    flat = {}
    for key, value in doc.items():
        if key in ("env", "output"):
            value = {} if value is None else value
            if not isinstance(value, dict):
                raise ScenarioError(f"{key}: expected a mapping")
            flat.update((f"{key}.{k}", v) for k, v in value.items())
        else:  # a dotted or non-string top-level key is unknown, never env.n_atoms
            flat[key if isinstance(key, str) and "." not in key else repr(key)] = value
    unknown = sorted(set(flat) - set(_KEYS))
    if unknown:
        raise ScenarioError(f"unknown scenario key(s): {', '.join(unknown)}")
    for key in ("experiment", "amplitudes", "seed"):
        if key not in flat:
            raise ScenarioError(f"missing required key: {key}")
    kwargs = {_KEYS[k][0]: _convert(_KEYS[k][1], v, k) for k, v in flat.items()}
    try:
        return Scenario(**kwargs)
    except ScenarioError:
        raise
    except ValueError as e:  # InvariantError or LayoutError from the models
        raise ScenarioError(str(e)) from None


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read {path}: {e}") from None
    return parse_scenario(text)


@dataclass
class RunSummary:
    """Aggregate results plus the per-scenario physics checks."""

    experiment: str
    seed: int
    n_events: int
    frequencies: dict
    b_values: dict = field(default_factory=dict)
    restricted_states: dict = field(default_factory=dict)
    correlations: dict = field(default_factory=dict)
    offdiag_curve: dict | None = None
    perception_pdf: dict | None = None
    env_couplings: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    fingerprint: str = ""

    def to_dict(self) -> dict:
        return {**vars(self), "frequencies": {str(k): v for k, v in self.frequencies.items()}}


def _complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def _check(name: str, value, passed) -> dict:
    return {"name": name, "passed": bool(passed), "value": value}


def _freq_check(js, probs: np.ndarray, n: int):
    """Frequencies of the records *js* over the pointer basis of *probs*, and
    the check that flags (not hard-fails) any beyond 4 sigma of P_j."""
    counts = np.bincount(np.asarray(js, dtype=int), minlength=len(probs))
    freqs = {j: counts[j] / n for j in range(len(probs))}
    worst, ok = 0.0, True
    for j, p in enumerate(probs):
        dev = abs(freqs[j] - p)
        if p in (0.0, 1.0):
            ok = ok and dev == 0.0
        elif dev > 4.0 * math.sqrt(max(p * (1 - p), 0.0) / n):
            ok = False
        worst = max(worst, dev)
    return freqs, _check("empirical frequencies within 4 sigma of P_j", worst, ok)


def _correlation(a, b):
    """Pearson correlation; None when either margin is degenerate."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _pure_vs_mixture(psi: StateVector, amplitudes):
    """<B> on the premeasured pure state *psi* and on the mixture of its
    branches |s_i>|O_i> with the same weights |a_i|^2, and both densities."""
    b = interference_operator(psi.layout)
    rho = psi.to_density()
    branches = [branch_state(psi.layout, i) for i in range(1, len(amplitudes) + 1)]
    mixed = DensityMatrix.mixture(np.abs(amplitudes) ** 2, branches)
    return discriminate(rho, b), discriminate(mixed, b), rho, mixed


def run(scenario: Scenario):
    """Execute one scenario; returns ``(RunSummary, DualState)``.

    Deterministic given (scenario, seed): ``run`` builds the measurement model,
    premeasures the system once under its generator, and makes the one
    ``event_uniforms`` draw, row ``eid`` from the counter-based substream of
    event ``eid``. Each runner turns them into its summary fields and event
    records.
    """
    runner = {
        "premeasure": _run_premeasure,
        "undo": _run_undo,
        "two_observer": _run_two_observer,
        "decohere": _run_decohere,
        "reduction_compare": _run_reduction_compare,
        "perception_timing": _run_perception_timing,
    }[scenario.experiment]
    model = scenario.model()
    psi = run_premeasurement(scenario.system_state(), model)
    u = event_uniforms(scenario.seed, scenario.n_events)
    fields, records = runner(scenario, model, psi, u)
    payload = json.dumps(scenario.canonical_dict(), sort_keys=True) + f"|dualmeas {__version__}"
    summary = RunSummary(
        experiment=scenario.experiment,
        seed=scenario.seed,
        n_events=scenario.n_events,
        tolerances={"algebraic": TOL_ALGEBRAIC, "roundtrip": TOL_ROUNDTRIP},
        fingerprint=hashlib.sha256(payload.encode()).hexdigest()[:16],
        **fields,
    )
    return summary, records


def _run_premeasure(scenario: Scenario, model: MeasurementModel, psi: StateVector, u: np.ndarray):
    weights = branch_weights(psi)
    dev = float(np.max(np.abs(weights[1:1 + model.s_dim] - np.abs(scenario.amplitudes) ** 2)))
    b_pure, b_mixed, rho, rho_mixed = _pure_vs_mixture(psi, scenario.amplitudes)
    r_pure = restricted_state(rho, source_kind="pure_ensemble")
    r_mixed = restricted_state(rho_mixed, source_kind="mixed_ensemble")
    _, dist = breuer_distinguishable(r_pure, r_mixed)

    t_p = None
    if scenario.perception_mode == "sample":
        grid = np.linspace(0.0, scenario.delta_t, 201)
        t_p = sample_perception_time(perception_time_pdf(model, scenario.amplitudes, grid), u[:, 1])
    records = DualState(psi, scenario.n_events, clock=scenario.delta_t).perceive(u[:, 0], t=t_p)
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)
    return dict(
        frequencies=freqs,
        b_values={"pure": b_pure, "mixed": b_mixed},
        restricted_states={
            "pure_ensemble": _complex_matrix_to_json(r_pure.o_density.entries),
            "mixed_ensemble": _complex_matrix_to_json(r_mixed.o_density.entries),
        },
        checks=[
            _check("branch weights equal |a_i|^2", dev, dev <= TOL_ALGEBRAIC),
            _check("interference expectation distinguishes pure from mixed ensembles",
                   b_mixed, abs(b_mixed) <= TOL_ALGEBRAIC),
            _check("pure and matched mixed restrictions coincide", dist, dist <= 1e-12),
            freq_check,
        ],
    ), records


def _run_undo(scenario: Scenario, model: MeasurementModel, psi: StateVector, u: np.ndarray):
    rho0 = model.input_state(scenario.amplitudes).to_density()
    weights = branch_weights(psi)

    # Measure, reverse, re-measure. Perception never back-reacts, so the
    # dynamical chain is shared by all events; only the two draws differ.
    undone = DualState(psi, scenario.n_events, clock=scenario.delta_t).perceive(u[:, 0]).undo(model)
    recovery = trace_distance(undone.phi_d.to_density(), rho0)
    records = undone.evolve(model.hamiltonian, model.duration).perceive(u[:, 1])
    collapsed = records.steps[0][1]
    corr_dual = _correlation(collapsed, records.final_j)
    # Textbook collapse on the same draws: the share of events whose
    # re-measured outcome is the one they collapsed onto.
    persisted = reduction_baseline(model, collapsed, u[:, 1]) == collapsed
    persistence = np.count_nonzero(persisted) / scenario.n_events
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)

    # 0.02 is the reference bound at 1e4 events; smaller runs get the
    # matching sampling allowance.
    corr_bound = max(0.02, 4.0 / math.sqrt(scenario.n_events))
    return dict(
        frequencies=freqs,
        correlations={
            "dual_old_new": corr_dual,
            "baseline_old_new": persistence,
            "recovery_trace_distance": recovery,
        },
        checks=[
            _check("undo restores the initial dynamical state", recovery,
                   recovery <= TOL_ROUNDTRIP),
            _check("dual model: erased and fresh outcomes uncorrelated", corr_dual,
                   corr_dual is None or abs(corr_dual) < corr_bound),
            _check("reduction baseline: outcome persists through undo", persistence,
                   persistence == 1.0),
            freq_check,
        ],
    ), records


def _run_two_observer(scenario: Scenario, model: MeasurementModel, psi: StateVector, u: np.ndarray):
    # O2 measures S by O's generator: U (x) 1_O, U = exp(-iHt) on S (x) O2, and
    # from O2's ready state, psi_t2[x, a, y] = sum_s U[(x, y), (s, 0)] psi[s, a].
    s_dim, o_dim = model.s_dim, model.o_dim
    p = psi.amplitudes.reshape(s_dim, o_dim)
    cols = model.hamiltonian.unitary_at(model.duration)[:, ::o_dim]  # the columns (s, 0)
    layout = CompositeLayout(((S_LABEL, s_dim), (O_LABEL, o_dim), (O2_LABEL, o_dim)))
    psi_t2 = StateVector(layout, (cols @ p).reshape(s_dim, o_dim, o_dim).swapaxes(1, 2).ravel())

    # Coherence between branches 1 and 2 available to the second observer
    # between the two measurements: nonzero certifies no objective collapse at
    # t1. It is 2|rho_12| = |<B> + i<B'>|, B the interference probe and B' its
    # imaginary-part partner, so no relative phase of the branches hides it.
    b_mid = 2.0 * abs(np.vdot(p[0, 1], p[1, 2]))

    # Joint pointer distribution at t2: the adjacent (O, O2) axes read as one
    # observer axis of dimension o_dim**2. Each event draws the first
    # observer's record from the marginal, the second from the conditional row.
    t1, t2 = scenario.delta_t, 2.0 * scenario.delta_t
    first = DualState(psi_t2, scenario.n_events, clock=t2).perceive(u[:, 0], t=t1)
    joint_layout = CompositeLayout(((S_LABEL, s_dim), (O_LABEL, o_dim * o_dim)))
    joint = branch_weights(StateVector(joint_layout, psi_t2.amplitudes)).reshape(o_dim, o_dim)
    marginal = joint.sum(axis=1)
    joint[:, 0] = 0.0  # O2's ready weight is O's, which perceive found to be residue
    js1 = first.final_j
    js2 = np.empty_like(js1)
    for j1, row in enumerate(joint):  # not np.unique, which imports numpy.ma
        events = js1 == j1
        if events.any():
            js2[events] = draw_index(row / row.sum(), u[events, 1])
    records = first.record(t2, js2)
    agree = int(np.sum(js1 == js2))
    rate = agree / scenario.n_events

    freqs, freq_check = _freq_check(js1, marginal, scenario.n_events)
    a = scenario.amplitudes
    floor = 2.0 * abs(a[0] * a[1]) - 1e-10
    return dict(
        frequencies=freqs,
        b_values={"between_measurements": b_mid},
        correlations={"agreement_rate": rate},
        checks=[
            _check("second observer's perceived index equals the first's in every event", rate,
                   agree == scenario.n_events),
            _check("interference expectation nonzero between the two measurements", b_mid,
                   b_mid >= floor),
            freq_check,
        ],
    ), records


def _run_decohere(scenario: Scenario, model: MeasurementModel, psi: StateVector, u: np.ndarray):
    env = scenario.environment()
    psi_full = attach_environment(psi, env)

    b_so = interference_operator(psi.layout)
    b_pure = discriminate(psi.to_density(), b_so)

    times = np.linspace(0.0, scenario.t_max, scenario.n_times)
    # The cosine product is the decay of the coherence of branches 1 and 2;
    # with either branch empty there is none to compare (the simulated factor
    # is then 1).
    coherent = np.all(np.abs(scenario.amplitudes[:2]) >= EMPTY_BRANCH_NORM)
    simulated, formula, b_vals = [], [], []
    d_so = model.s_dim * model.o_dim
    worst_factor, worst_b = 0.0, 0.0
    for t in times:
        evolved, factor = run_decoherence(psi_full, env, float(t))
        expected = offdiag_suppression(env, float(t))
        # Reduced system-observer state, built without the full density matrix.
        m = evolved.amplitudes.reshape(d_so, -1)
        rho_so = DensityMatrix(psi.layout, m @ m.conj().T)
        b_t = discriminate(rho_so, b_so)
        simulated.append(complex(factor))
        formula.append(expected)
        b_vals.append(b_t)
        if coherent:
            worst_factor = max(worst_factor, abs(complex(factor) - expected))
        worst_b = max(worst_b, abs(b_t - b_pure * complex(factor).real))

    # Perception statistics are untouched by dephasing.
    weights = branch_weights(psi_full)
    records = DualState(psi_full, scenario.n_events, clock=scenario.delta_t).perceive(u[:, 0])
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)
    return dict(
        frequencies=freqs,
        b_values={"pure": b_pure},
        offdiag_curve={
            "times": [float(t) for t in times],
            "simulated": [[z.real, z.imag] for z in simulated],
            "formula": [float(x) for x in formula],
            "b_damped": [float(x) for x in b_vals],
        },
        env_couplings=[float(g) for g in env.couplings],
        checks=[
            _check("simulated off-diagonal factor matches the cosine product", worst_factor,
                   worst_factor <= 1e-10),
            _check("interference damped exactly by the off-diagonal factor", worst_b,
                   worst_b <= 1e-10),
            freq_check,
        ],
    ), records


def _run_reduction_compare(scenario: Scenario, model: MeasurementModel, psi: StateVector,
                           u: np.ndarray):
    """Matched dual and textbook-collapse ensembles, side by side."""
    fields, records = _run_undo(scenario, model, psi, u)
    b_dual, b_baseline, _, _ = _pure_vs_mixture(psi, scenario.amplitudes)
    fields["b_values"] = {"dual": b_dual, "reduction_baseline": b_baseline}
    fields["checks"].append(_check("interference discriminator: dual nonzero, baseline zero",
                                   b_baseline, abs(b_baseline) <= TOL_ALGEBRAIC))
    return fields, records


def _run_perception_timing(scenario: Scenario, model: MeasurementModel, psi: StateVector,
                           u: np.ndarray):
    grid = np.linspace(0.0, scenario.delta_t, scenario.n_times)
    pdf = perception_time_pdf(model, scenario.amplitudes, grid)
    integral = simpson(pdf.density, pdf.times)
    # The rule's change from every other point of the grid (and its last) is a
    # pessimistic estimate of its error; a coarse grid keeps that allowance.
    # A half grid of at most 3 points can match the full rule by symmetry
    # alone, so there the trapezoid's change counts too.
    coarse = np.r_[0:len(grid) - 1:2, len(grid) - 1]
    rules = [simpson(pdf.density[coarse], pdf.times[coarse])]
    if len(coarse) <= 3:
        rules.append(np.sum(np.diff(pdf.times) * (pdf.density[1:] + pdf.density[:-1]) / 2))
    bound = max(1e-6, *(abs(integral - r) for r in rules))
    weights = branch_weights(psi)

    t_p = sample_perception_time(pdf, u[:, 1])
    records = DualState(psi, scenario.n_events, clock=scenario.delta_t).perceive(u[:, 0], t=t_p)
    freqs, freq_check = _freq_check(records.final_j, weights, scenario.n_events)
    return dict(
        frequencies=freqs,
        perception_pdf={
            "times": [float(t) for t in pdf.times],
            "density": [float(x) for x in pdf.density],
            "normalization": pdf.normalization,
        },
        checks=[
            _check("perception-time density integrates to 1 over the window", integral,
                   abs(integral - 1.0) <= bound),
            freq_check,
        ],
    ), records


# Bytes per block of the events writer's matrix, so its temporaries stay
# about this size whatever the width of a row.
_EMIT_BYTES = 1 << 19


def _cells(column: np.ndarray) -> np.ndarray:
    """The values of *column* as the rows of a NUL-padded uint8 matrix: each
    float as ``float.__repr__`` (as json and csv write it), each integer as
    right-aligned decimal digits."""
    if column.dtype.kind == "f":
        text = np.array(list(map(float.__repr__, column.tolist())), dtype="S")
        return text.view(np.uint8).reshape(len(text), -1)
    neg = column < 0
    mag = column.astype(np.uint64)  # a negative's two's complement, negated next
    np.negative(mag, out=mag, where=neg)  # so |-2**63| = 2**63 fits
    width = len(str(int(mag.max())))
    cells = np.zeros((len(mag), 1 + width), np.uint8)
    cells[:, 0] = neg * ord("-")  # the padding after the sign is dropped with the rest
    ten = np.uint64(10)
    for k in range(width, 0, -1):
        live = (mag != 0) | (k == width)  # 0 is the one number with a leading 0
        mag, digit = np.divmod(mag, ten)
        cells[:, k] = live * (digit + ord("0"))
    return cells


def emit(summary: RunSummary, records: DualState, out_dir, fmt="json"):
    """Write summary.json plus per-event records; byte-identical across
    re-runs of the same (scenario, seed). The events file has the bytes of
    ``json.dump(indent=2)`` or ``csv.writer``. Every scalar step is formatted
    into a row template once; a block of rows is one uint8 matrix of that
    template, broadcast, and the NUL-padded cells of the column steps, and
    is written without its NULs. Blocks hold at most EVENT_BLOCK rows and
    about ``_EMIT_BYTES`` bytes."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown events format {fmt!r}; expected 'json' or 'csv'")
    if not records.steps:
        raise InvariantError("an event record needs at least one step")
    if any("\0" in flag for flag in records.flags):
        raise InvariantError("an event flag may not contain NUL, the writer's padding byte")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    n, flags = records.n_events, list(records.flags)
    if fmt == "csv":
        text = ";".join(flags)
        if any(c in text for c in ',"\r\n'):  # quoted as csv.QUOTE_MINIMAL does
            text = '"' + text.replace('"', '""') + '"'
        start, sep, end = "event_id,t_perceive,j,flags\n", "", ""
        head, parts = "", [",", records.t_perceive, ",", records.final_j, f",{text}\n"]
    else:
        start, sep, end = ("[\n", ",\n", "\n]\n") if n else ("[]\n", "", "")
        head, parts = '  {\n    "event_id": ', [',\n    "history": [']
        for i, (t, j) in enumerate(records.steps):
            parts += ["," * (i > 0) + "\n      [\n        ", t, ",\n        ", j, "\n      ]"]
        text = json.dumps(flags, indent=2).replace("\n", "\n    ")
        parts.append(f'\n    ],\n    "flags": {text}\n  }}')
    # A row is sep + head, the event id, then the parts: texts[i] precedes
    # columns[i] and texts[-1] ends the row. The file's first row has no sep.
    texts, columns = [(sep + head).encode(), b""], [None]  # None: the event id
    for part in parts:  # template text, a scalar step or a column
        if isinstance(part, str):
            texts[-1] += part.encode()
            continue
        part = np.asarray(part)
        if part.ndim:
            texts.append(b"")
            columns.append(part)
        else:
            cell = _cells(part.reshape(1))
            texts[-1] += cell[cell != 0].tobytes()
    texts = [np.frombuffer(t, np.uint8) for t in texts]
    # A cell is at most 24 bytes wide, the longest repr of a float64.
    block = min(EVENT_BLOCK, max(1, _EMIT_BYTES // (sum(map(len, texts)) + 24 * len(columns))))
    events_path = os.path.join(out_dir, f"events.{fmt}")
    with open(events_path, "wb") as fh:
        fh.write(start.encode())
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            pieces = [np.broadcast_to(texts[0], (hi - lo, len(texts[0])))]
            for column, text in zip(columns, texts[1:]):
                cells = _cells(np.arange(lo, hi) if column is None else column[lo:hi])
                pieces += [cells, np.broadcast_to(text, (hi - lo, len(text)))]
            rows = np.concatenate(pieces, axis=1)
            fh.write(rows[rows != 0][len(sep) * (lo == 0):])
        fh.write(end.encode())
    return [summary_path, events_path]
