"""Scenario configuration, batch experiment runner, and result emission.

Scenarios are YAML documents with strict key checking (an unknown key is an
error, never silently ignored). A run is fully determined by the scenario
plus its seed: per-event randomness comes from counter-based substreams, so
outputs are byte-identical across repeated runs.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
try:  # the fingerprint's builtin SHA-256, as in random.py; hashlib (OpenSSL) only as fallback
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

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
    _mulhilo,
    draw_index,
    event_rng,  # not called here; bench/test_bench.py reaches it as harness.event_rng
    perception_time_pdf,
    philox_uniforms,
    reduction_baseline,
    sample_perception_time,
    simpson,
    uniform_blocks,
)
from .dynamics import (
    EMPTY_BRANCH_NORM,
    O2_LABEL,
    O_LABEL,
    S_LABEL,
    EnvironmentModel,
    MeasurementModel,
    attach_environment,
    branch_weights,
    default_pointer_values,
    offdiag_suppression,
    run_decoherence,
    run_premeasurement,
)
from .interference import discriminate, interference_operator
from .restriction import breuer_distinguishable, restricted_state


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


# Bound of decohere's two checks: the simulated off-diagonal factor against
# the cosine product, and the damped interference against that factor.
DECOHERE_TOL = 1e-10


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
        # A perception-time grid of 2 points integrates the density to 0: it
        # vanishes at both ends of the window.
        min_times = 3 if self.experiment == "perception_timing" else 2
        if self.n_times < min_times:
            raise ScenarioError(f"n_times must be >= {min_times} for {self.experiment}")
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
            raise ScenarioError(f"amplitudes length {amps.shape[0]} != s_dim {self.s_dim}")
        with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
            norm = float(np.linalg.norm(amps))
        scale = 1.0
        if norm in (0.0, math.inf) and np.any(amps):  # the squares under- or overflowed
            scale = float(np.abs([amps.real, amps.imag]).max())
            # Part by part: numpy divides a complex array by a real scalar
            # through its reciprocal, which overflows for a subnormal scale.
            amps = amps.real / scale + 1j * (amps.imag / scale)
            norm = float(np.linalg.norm(amps))
        if norm == 0:
            raise ScenarioError("amplitudes are all zero")
        if abs(scale * norm - 1.0) > 1e-9:
            # Level 3: the caller of the dataclass __init__ that calls this.
            warnings.warn(f"amplitudes norm {scale * norm:.6g} != 1; normalizing", stacklevel=3)
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
        # P_0(t) = cos^2(lambda t) refills after pi / 2, and the density turns negative.
        sampled = self.experiment == "perception_timing" or (
            self.experiment == "premeasure" and self.perception_mode == "sample")
        if sampled and abs(coupling) * self.delta_t >= math.pi:
            raise ScenarioError("perception times need |lambda| * delta_t < pi, "
                                f"got {abs(coupling) * self.delta_t:.6g}")
        # The layout the experiment builds: S x O, S x O x O2 for two_observer,
        # S x O x 2**n_atoms for decohere; the capped shift still exceeds the
        # cap when n_atoms does, without building a huge integer.
        extra = {"two_observer": self.o_dim,
                 "decohere": 1 << min(self.env_atoms, MAX_TOTAL_DIM.bit_length())}
        if self.s_dim * self.o_dim * extra.get(self.experiment, 1) > MAX_TOTAL_DIM:
            raise ScenarioError(f"{self.experiment} layout exceeds the dense cap {MAX_TOTAL_DIM}")
        # The simulation rounds the phases (sum_k g_k q z_k) t and the closed
        # form (q_i - q_j) g_k t; their difference is of order
        # eps * t * sum_k g_k * max|q_i - q_j|, which past the checks' bound
        # fails the cosine-product check on rounding alone.
        if self.experiment == "decohere":
            floor = (np.finfo(float).eps * abs(self.t_max) * self.env_atoms * hi
                     * np.ptp(default_pointer_values(self.o_dim)))
            if floor > DECOHERE_TOL:
                raise ScenarioError(
                    f"decohere t_max {self.t_max:g} puts the phases' rounding floor "
                    f"eps * t_max * n_atoms * g_high * max|q_i - q_j| = {floor:.3g} past "
                    f"the checks' bound {DECOHERE_TOL:g}")

    def model(self) -> MeasurementModel:
        if self.coupling is None:
            return MeasurementModel.calibrated(self.s_dim, self.o_dim, self.delta_t)
        return MeasurementModel(self.s_dim, self.o_dim, self.coupling, self.delta_t)

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
        out.append(complex(*(_convert(float, part, f"{key}[{pos}]") for part in parts)))
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
    # int() would truncate 2.7 to 2, int() and float() would read true as 1,
    # str() would write null as "None".
    if (kind is not str and isinstance(value, bool)
            or kind is int and isinstance(value, float) and not value.is_integer()
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
    # A block at a time: np.bincount copies its input to intp.
    counts = sum(np.bincount(js[lo:lo + EVENT_BLOCK], minlength=len(probs))
                 for lo in range(0, n, EVENT_BLOCK))
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
    """Pearson correlation of two index columns; None when either margin is
    degenerate. The moments are exact integer sums, EVENT_BLOCK at a time:
    r = (n Sab - Sa Sb) / sqrt((n Saa - Sa^2)(n Sbb - Sb^2))."""
    n, sa, sb, saa, sbb, sab = len(a), 0, 0, 0, 0, 0
    for lo in range(0, n, EVENT_BLOCK):
        x = a[lo:lo + EVENT_BLOCK].astype(np.int64)
        y = b[lo:lo + EVENT_BLOCK].astype(np.int64)
        sa, sb = sa + int(x.sum()), sb + int(y.sum())
        saa, sbb, sab = saa + int(x @ x), sbb + int(y @ y), sab + int(x @ y)
    var_a, var_b = n * saa - sa * sa, n * sbb - sb * sb
    if var_a == 0 or var_b == 0:
        return None
    return (n * sab - sa * sb) / math.sqrt(var_a * var_b)


def _pure_vs_mixture(psi: StateVector, amplitudes):
    """<B> on the premeasured pure state *psi* and on the mixture of its
    branches b_i = |s_i>|O_i> with the same weights |a_i|^2, sum_i |a_i|^2
    <b_i|B|b_i>: b_i is 1 on one row, so 2 per pair of the probe's rows on it."""
    b, weights = interference_operator(psi.layout), np.abs(amplitudes) ** 2
    rows = np.array([[psi.layout.flat_index({S_LABEL: i, O_LABEL: i + 1})] for i in range(len(weights))])
    on_both = (b.rows[0] == rows) & (b.rows[1] == rows)  # one row per branch
    return discriminate(psi, b), float(sum(weights * (2.0 * on_both.sum(axis=1))))


def run(scenario: Scenario):
    """Execute one scenario; returns ``(RunSummary, DualState)``.

    Deterministic given (scenario, seed): ``run`` builds the measurement model
    and premeasures the system once under its generator. Each runner turns
    them into its summary fields and event records, drawing the records in
    the one sampling loop ``_sample``: event ``eid``'s two uniforms come from
    its counter-based substream, the row ``eid`` of ``event_uniforms``.
    """
    model = scenario.model()
    psi = run_premeasurement(StateVector(model.s_layout(), scenario.amplitudes), model)
    fields, records = _RUNNERS[scenario.experiment](scenario, model, psi)
    payload = json.dumps(scenario.canonical_dict(), sort_keys=True) + f"|dualmeas {__version__}"
    summary = RunSummary(
        experiment=scenario.experiment,
        seed=scenario.seed,
        n_events=scenario.n_events,
        tolerances={"algebraic": TOL_ALGEBRAIC, "roundtrip": TOL_ROUNDTRIP},
        fingerprint=sha256(payload.encode()).hexdigest()[:16],
        **fields,
    )
    return summary, records


def _sample(scenario: Scenario, events) -> DualState:
    """The run's one sampling loop: one pass of the Philox kernel over its
    events, EVENT_BLOCK at a time. ``events(u)`` turns a block's uniforms
    (``u[0][r]`` and ``u[1][r]``, the two draws of the block's event r) into
    that block's DualState. Each record column of the blocks goes into one
    whole column: a time as float64, an index in the narrowest unsigned type
    that holds the pointer basis (uint8 for o_dim <= 256). Returns the last
    block's state over all the events; every block's records passed its own
    checks, and its scalar steps are the same in every block."""
    n = scenario.n_events
    dtypes = (np.float64, np.min_scalar_type(scenario.o_dim - 1))  # of t and of j
    steps = None
    for lo, u in uniform_blocks(scenario.seed, n):
        state = events(u)
        if steps is None:
            steps = [tuple(np.empty(n, dtype) if np.ndim(x) else x for dtype, x in zip(dtypes, step))
                     for step in state.steps]
        for whole, step in zip(steps, state.steps):
            for column, x in zip(whole, step):
                if np.ndim(x):
                    column[lo:lo + len(x)] = x
    return replace(state, n_events=n, steps=tuple(steps))


def _perceive(scenario: Scenario, phi_d, pdf=None) -> DualState:
    """Each event's record drawn from the pointer weights of *phi_d* with its
    first uniform, perceived at the end of the window or, given a density
    *pdf*, at a time drawn from it with its second."""
    def events(u):
        t = None if pdf is None else sample_perception_time(pdf, u[1])
        return DualState(phi_d, len(u[0]), clock=scenario.delta_t).perceive(u[0], t=t)

    return _sample(scenario, events)


def _run_premeasure(scenario: Scenario, model: MeasurementModel, psi: StateVector):
    weights = branch_weights(psi)
    dev = float(np.max(np.abs(weights[1:1 + model.s_dim] - np.abs(scenario.amplitudes) ** 2)))
    b_pure, b_mixed = _pure_vs_mixture(psi, scenario.amplitudes)
    # The observer restrictions of psi and of the matched mixture, sum_i |a_i|^2 |O_i><O_i|.
    mixed = np.zeros(model.o_dim, dtype=complex)
    mixed[1:1 + model.s_dim] = np.abs(scenario.amplitudes) ** 2
    r_pure = restricted_state(psi, source_kind="pure_ensemble")
    r_mixed = restricted_state(DensityMatrix(model.so_layout().restrict((O_LABEL,)), np.diag(mixed)),
                               source_kind="mixed_ensemble")
    _, dist = breuer_distinguishable(r_pure, r_mixed)

    pdf = None
    if scenario.perception_mode == "sample":
        grid = np.linspace(0.0, scenario.delta_t, 201)
        pdf = perception_time_pdf(model, scenario.amplitudes, grid)
    records = _perceive(scenario, psi, pdf)
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


def _run_undo(scenario: Scenario, model: MeasurementModel, psi: StateVector):
    weights = branch_weights(psi)
    undone, persisted = None, 0

    def events(u):
        # Measure, reverse, re-measure. Perception never back-reacts, so the
        # dynamical chain is shared by all events; only the two draws differ.
        nonlocal undone, persisted
        undone = DualState(psi, len(u[0]), clock=scenario.delta_t).perceive(u[0]).undo(model)
        state = undone.measure(model).perceive(u[1])
        # Textbook collapse on the same draws: the events whose re-measured
        # outcome is the one they collapsed onto.
        collapsed = state.steps[0][1]
        persisted += np.count_nonzero(reduction_baseline(model, collapsed, u[1]) == collapsed)
        return state

    records = _sample(scenario, events)
    recovery = trace_distance(model.input_state(scenario.amplitudes), undone.phi_d)
    corr_dual = _correlation(records.steps[0][1], records.final_j)
    persistence = persisted / scenario.n_events
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


def _run_two_observer(scenario: Scenario, model: MeasurementModel, psi: StateVector):
    # O2 measures S by O's rotation on S (x) O2 from O2's ready state, a column
    # a of psi[s, a] at a time: psi_t2[x, a, y] = transfer(psi[:, a])[x, y].
    s_dim, o_dim = model.s_dim, model.o_dim
    p = psi.amplitudes.reshape(s_dim, o_dim)
    layout = CompositeLayout(((S_LABEL, s_dim), (O_LABEL, o_dim), (O2_LABEL, o_dim)))
    psi_t2 = StateVector(layout, model.transfer(p).swapaxes(1, 2).ravel())

    # Coherence between branches 1 and 2 available to the second observer
    # between the two measurements: nonzero certifies no objective collapse at
    # t1. It is 2|rho_12| = |<B> + i<B'>|, B the interference probe and B' its
    # imaginary-part partner, so no relative phase of the branches hides it.
    b_mid = 2.0 * abs(np.vdot(p[0, 1], p[1, 2]))

    # Joint pointer distribution at t2: the adjacent (O, O2) axes read as one
    # observer axis of dimension o_dim**2. Each event draws the first
    # observer's record from the marginal, the second from the conditional row.
    t1, t2 = scenario.delta_t, 2.0 * scenario.delta_t
    joint_layout = CompositeLayout(((S_LABEL, s_dim), (O_LABEL, o_dim * o_dim)))
    joint = branch_weights(StateVector(joint_layout, psi_t2.amplitudes)).reshape(o_dim, o_dim)
    marginal = joint.sum(axis=1)
    joint[:, 0] = 0.0  # O2's ready weight is O's, which perceive found to be residue

    def events(u):
        first = DualState(psi_t2, len(u[0]), clock=t2).perceive(u[0], t=t1)
        js1 = first.final_j
        js2 = np.empty_like(js1)
        for j1, row in enumerate(joint):  # not np.unique, which imports numpy.ma
            on = js1 == j1
            if on.any():
                js2[on] = draw_index(row / row.sum(), u[1][on])
        return first.record(t2, js2)

    records = _sample(scenario, events)
    (_, js1), (_, js2) = records.steps
    agree = np.count_nonzero(js1 == js2)
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


def _run_decohere(scenario: Scenario, model: MeasurementModel, psi: StateVector):
    env = scenario.environment()
    psi_full = attach_environment(psi, env)

    b_so = interference_operator(psi.layout)
    b_pure = discriminate(psi, b_so)

    times = np.linspace(0.0, scenario.t_max, scenario.n_times)
    formula = [offdiag_suppression(env, float(t)) for t in times]
    simulated, b_vals = [], []
    for coherence, overlap in run_decoherence(psi_full, env, times):
        simulated.append(overlap)
        b_vals.append(2.0 * coherence.real)  # discriminate(rho_SO, b_so): 2 Re rho_SO[r_2, r_1]
    # The cosine product is the decay of the coherence of branches 1 and 2;
    # with either branch empty there is none to compare (the simulated factor
    # is then 1).
    coherent = np.all(np.abs(scenario.amplitudes[:2]) >= EMPTY_BRANCH_NORM)
    worst_factor = max(abs(f - e) for f, e in zip(simulated, formula)) if coherent else 0.0
    worst_b = max(abs(b - b_pure * f.real) for b, f in zip(b_vals, simulated))

    # Perception statistics are untouched by dephasing.
    weights = branch_weights(psi_full)
    records = _perceive(scenario, psi_full)
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
                   worst_factor <= DECOHERE_TOL),
            _check("interference damped exactly by the off-diagonal factor", worst_b,
                   worst_b <= DECOHERE_TOL),
            freq_check,
        ],
    ), records


def _run_reduction_compare(scenario: Scenario, model: MeasurementModel, psi: StateVector):
    """Matched dual and textbook-collapse ensembles, side by side."""
    fields, records = _run_undo(scenario, model, psi)
    b_dual, b_baseline = _pure_vs_mixture(psi, scenario.amplitudes)
    fields["b_values"] = {"dual": b_dual, "reduction_baseline": b_baseline}
    fields["checks"].append(_check("interference discriminator: dual nonzero, baseline zero",
                                   b_baseline, abs(b_baseline) <= TOL_ALGEBRAIC))
    return fields, records


def _run_perception_timing(scenario: Scenario, model: MeasurementModel, psi: StateVector):
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

    records = _perceive(scenario, psi, pdf)
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


# Each experiment's runner: the one list of experiments, in the order a
# scenario error names them.
_RUNNERS = {
    "premeasure": _run_premeasure,
    "undo": _run_undo,
    "two_observer": _run_two_observer,
    "decohere": _run_decohere,
    "reduction_compare": _run_reduction_compare,
    "perception_timing": _run_perception_timing,
}
EXPERIMENTS = tuple(_RUNNERS)


# Bytes per block of the events writer's matrix, so its temporaries stay
# about this size whatever the width of a row.
_EMIT_BYTES = 1 << 19
# The widest cell, a float in the slots of _float_cells: the sign, "0." and
# three 0s, 17 digits each with a slot for the point, and a trailing 0. A
# float's repr (at most 24 bytes) and an integer (at most 20) are narrower.
_CELL_BYTES = 1 + 5 + 2 * 17 + 1
_POW5 = 5 ** np.arange(22, dtype=np.int64)
_PLACE = np.arange(17, dtype=np.int8)[:, None]  # a digit's place, one row per digit


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The bytes of ``float.__repr__`` of each float64 in *x*, as the rows of
    a NUL-padded matrix at most ``_CELL_BYTES`` wide: the shortest decimal
    that reads back as the same float and, of those, the nearest (Steele &
    White, Gay).

    The kernel decides it exactly for a normal float that is not a power of
    two (whose rounding interval is asymmetric) with 1e-4 <= |x| < 1e16,
    which repr writes without an exponent. With d = floor(log10 |x|) and
    k = 16 - d, x * 10**k = m * 5**k / 2**s for the 53-bit significand m,
    one 128-bit product. Its round-half-even D17 is the nearest 17-digit
    decimal and R the signed remainder, so x * 10**k = D17 + R / 2**s. A
    candidate N reads back iff |N - D17 - R / 2**s| is below half the float's
    spacing, 5**k / 2**(s + 1): |(N - D17) 2**s - R| <= floor(5**k / 2) in
    int64 (5**k is odd, so never a tie). The spacing is 1.1 to 23 units of
    D17, so D17 always reads back and the nearest 15-digit candidate is the
    only one of 15 digits or fewer that can; failing that the nearest
    16-digit one, then D17. Every other value (0, subnormals, powers of two,
    exact ties, exponent forms, a wrong guess of d) goes through
    ``float.__repr__``.

    Only the product and the candidates are 64-bit. The exponents are int16,
    d and the place of the last nonzero digit int8, and the digits come from
    uint32 chunks of 8 and uint16 groups of 4, written straight into their
    rows of the slot matrix, so each operation on a (17, n) slot plane is on
    uint8 or int8.
    """
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int16) & np.int16(0x7FF)
    frac = bits & np.uint64((1 << 52) - 1)
    ax = np.abs(x)
    fast = (frac != 0) & (ax >= 1e-4) & (ax < 1e16)  # normal from 1e-4 up
    d = np.floor(np.log10(np.where(fast, ax, 1.0))).astype(np.int8)
    k = np.int8(16) - d
    s = np.int16(1075) - biased - k
    # s >= 1 leaves a remainder; s <= 56 keeps 51 * 2**s in int64 (the
    # domain gives s <= 47).
    fast &= (s >= np.int16(1)) & (s <= np.int16(56))
    s = np.where(fast, s, np.int16(1))  # k is in [1, 20] in every lane, s now too
    pow5 = _POW5.take(k)
    hi, lo = _mulhilo(pow5.view(np.uint64), frac | np.uint64(1 << 52),
                      *np.empty((4, len(x)), np.uint64))
    su = s.astype(np.uint64)
    one = np.uint64(1)
    pow2 = one << su
    r = lo & (pow2 - one)
    half = pow2 >> one
    up = r > half
    d17 = ((hi << (np.uint64(64) - su)) | (lo >> su)).astype(np.int64) + up
    pow2 = pow2.view(np.int64)
    rem = r.astype(np.int64) - up * pow2
    # A wrong guess of d puts D17 outside 17 digits.
    fast &= (r != half) & (d17 >= np.int64(10**16)) & (d17 < np.int64(10**17))
    # A candidate D17 + e reads back iff |e 2**s - R| <= floor(5**k / 2).
    g = d17 + (rem > 0)  # D17, plus 1 if R breaks a .5 upwards
    e15 = (g + np.int64(49)) // np.int64(100) * np.int64(100) - d17
    e16 = (g + np.int64(4)) // np.int64(10) * np.int64(10) - d17
    bound = pow5 >> np.int64(1)
    ok15 = np.abs(e15 * pow2 - rem) <= bound
    ok16 = np.abs(e16 * pow2 - rem) <= bound
    # An exact .5 at 16 digits needs repr's own tie rule.
    tie16 = (e16 == np.int64(-5)) & (rem == np.int64(0))
    e16 *= ok16
    n = d17 + np.where(ok15, e15, e16)  # the fewest digits that read back
    fast &= ~tie16 & (n < np.int64(10**17))  # 10**17 needs a new d
    # Two chunks of 8 digits and the first digit, then four groups of 4.
    chunks = np.empty((2, len(x)), np.uint32)
    hi9 = n // np.int64(10**8)
    chunks[0] = hi9
    np.subtract(n, hi9 * np.int64(10**8), out=chunks[1], casting="unsafe")
    top = chunks[0] // np.uint32(10**8)
    chunks[0] -= top * np.uint32(10**8)
    q = chunks // np.uint32(10**4)
    groups = np.empty((2, 2, len(x)), np.uint16)
    groups[:, 0] = q
    np.subtract(chunks, q * np.uint32(10**4), out=groups[:, 1], casting="unsafe")
    cells = np.empty((_CELL_BYTES, len(x)), np.uint8)
    digits = cells[6:40:2]  # one row per digit, each beside the slot for a point
    digits[0] = top
    planes = cells[8:40].reshape(4, 4, 2, len(x))[:, :, 0]  # (group, digit, value)
    groups = groups.reshape(4, len(x))
    ten = np.uint16(10)
    for i in range(3, -1, -1):
        q = groups // ten
        np.subtract(groups, q * ten, out=planes[:, i], casting="unsafe")
        groups = q
    last = ((digits != 0) * _PLACE).max(axis=0)  # the place of the last nonzero digit
    zero, point = np.uint8(ord("0")), np.uint8(ord("."))
    digits += zero
    digits *= _PLACE <= np.maximum(d, last)
    cells[0] = (x < 0) * np.uint8(ord("-"))
    cells[1:3] = (d < 0) * np.array([[zero], [point]])
    cells[3:6] = (d <= np.arange(-2, -5, -1, dtype=np.int8)[:, None]) * zero
    points = cells[7:40:2]
    np.equal(_PLACE, d, out=points)
    points *= point
    cells[40] = (last <= d) * zero
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = _repr_cells(x[slow])
        cells[:, slow] = 0
        cells[:text.shape[1], slow] = text.T
    return cells[cells.any(axis=1)].T  # without the slots no value uses


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each value of *x*, NUL-padded: the kernel's fallback."""
    text = np.array(list(map(float.__repr__, x.tolist())), dtype="S")
    return text.view(np.uint8).reshape(len(text), -1)


def _cells(column: np.ndarray) -> np.ndarray:
    """The values of *column* as the rows of a NUL-padded uint8 matrix: each
    float as ``float.__repr__`` (as json and csv write it), each integer as
    right-aligned decimal digits, behind a sign slot only if one is negative."""
    if column.dtype.kind == "f":
        return _float_cells(np.asarray(column, np.float64))
    lo, hi = int(column.min()), int(column.max())  # the sign slot, widths and type follow
    top = max(-lo, hi)  # the largest magnitude
    dtype = np.min_scalar_type(top).type  # the narrowest unsigned type that holds it
    width = len(str(top))
    short = 1 if lo < 0 <= hi else len(str(min(abs(lo), abs(hi))))  # fewest digits of any value
    sign = int(lo < 0)
    mag = column.astype(dtype)  # a negative's two's complement, negated next
    cells = np.empty((sign + width, len(mag)), np.uint8)  # one plane per slot
    if sign:
        neg = column < 0
        np.negative(mag, out=mag, where=neg)  # so |-2**63| = 2**63 fits
        cells[0] = neg * np.uint8(ord("-"))  # the padding after the sign is dropped with the rest
    rest, ten = mag, dtype(10)
    for k in range(len(cells) - 1, sign, -1):
        q = rest // ten  # vectorised, where divmod is not
        np.subtract(rest, q * ten, out=cells[k], casting="unsafe")
        rest = q
    cells[sign] = rest
    cells[sign:] += np.uint8(ord("0"))
    for place in range(short, width):  # a value below 10**place has no digit there
        cells[-1 - place] *= mag >= dtype(10**place)
    return cells.T


def emit(summary: RunSummary, records: DualState, out_dir, fmt="json"):
    """Write summary.json plus per-event records; byte-identical across
    re-runs of the same (scenario, seed). The events file has the bytes of
    ``json.dump(indent=2)`` or ``csv.writer``. Every scalar step is formatted
    into a row template once. Blocks of at most EVENT_BLOCK rows and about
    ``_EMIT_BYTES`` bytes go through one row-major uint8 buffer of at most
    ``n_events`` rows: the template text is laid into it once, and again only
    when a column's cell width changes, and each block writes just the
    NUL-padded cells of its column steps into their windows. Only the cells
    are scanned for NUL, since flags may not hold one: a block without a
    padded cell is written as it stands, any other without its NULs."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown events format {fmt!r}; expected 'json' or 'csv'")
    if not records.steps:
        raise InvariantError("an event record needs at least one step")
    if any("\0" in flag for flag in records.flags):
        raise InvariantError("an event flag may not contain NUL, the writer's padding byte")
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")
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
        else:  # the text the float kernel's fallback writes, without paging in its code
            texts[-1] += repr(part.item()).encode()
    width = sum(map(len, texts)) + _CELL_BYTES * len(columns)
    block = min(EVENT_BLOCK, max(1, _EMIT_BYTES // width))
    rows = min(block, n)
    laid = None  # the cell widths the buffer's template text is laid around
    events_path = os.path.join(out_dir, f"events.{fmt}")
    with open(events_path, "wb") as fh:
        fh.write(start.encode())
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            cells = [_cells(np.arange(lo, hi) if column is None else column[lo:hi])
                     for column in columns]
            widths = [c.shape[1] for c in cells]
            if widths != laid:  # one row of the template, NULs in its cell windows
                laid, windows, row = widths, [], texts[0]
                for w, text in zip(widths, texts[1:]):
                    windows.append(slice(len(row), len(row) + w))
                    row += bytes(w) + text
                buf = bytearray(row) * rows
                grid = np.frombuffer(buf, np.uint8).reshape(rows, len(row))
            for window, c in zip(windows, cells):
                grid[:hi - lo, window] = c
            skip = len(sep) * (lo == 0)  # the file's first row has no sep
            if all(map(np.all, cells)):  # only a cell can hold a NUL
                fh.write(memoryview(buf)[skip:(hi - lo) * len(row)])
            else:  # rows past a short last block are dropped with the padding
                grid[hi - lo:] = 0
                fh.write(memoryview(buf.translate(None, delete=b"\0"))[skip:])
        fh.write(end.encode())
    return [summary_path, events_path]
