"""Scenario configuration: YAML documents and the validated ``Scenario``.

Scenarios are YAML documents with strict key checking (an unknown key is an
error, never silently ignored). ``Scenario`` holds every default and checks
every field when it is made, so a run starts only from a valid configuration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import yaml

from .core import MAX_TOTAL_DIM
from .dual import philox_uniforms
from .dynamics import EnvironmentModel, MeasurementModel, default_pointer_values


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
        from .harness import EXPERIMENTS  # the runners' table, which imports this module

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
