"""Scenario configuration: YAML documents and the validated ``Scenario``.

Scenarios are YAML documents with strict key checking (an unknown key is an
error, never silently ignored). ``Scenario`` holds every default and checks
every field when it is made, so a run starts only from a valid configuration.
A document in the plain subset of YAML that scenarios are written in is read
here; PyYAML is imported only for any other.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np

from .core import MAX_TOTAL_DIM, Record
from .dual import philox_uniforms
from .dynamics import MeasurementModel, default_pointer_values


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


# Bound of decohere's two checks: the simulated off-diagonal factor against
# the cosine product, and the damped interference against that factor.
DECOHERE_TOL = 1e-10


class Scenario(Record):
    """Validated experiment configuration; the one place of every default.
    *s_dim* defaults to len(amplitudes), *o_dim* to s_dim + 1, *coupling* to
    pi / (2 delta_t); *perception_mode* is "fire_at_end" or "sample"."""

    def __init__(self, experiment: str, amplitudes: np.ndarray, seed: int, n_events: int = 1000,
                 s_dim: int | None = None, o_dim: int | None = None, delta_t: float = 1.0,
                 coupling: float | None = None, env_atoms: int = 0,
                 env_coupling_range: tuple[float, float] = (0.5, 1.5), t_max: float = 1.0,
                 n_times: int = 50, perception_mode: str = "fire_at_end", out_path: str = "out",
                 out_format: str = "json"):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        s_dim = amps.shape[0] if s_dim is None else s_dim
        vars(self).update(
            experiment=experiment, seed=seed, n_events=n_events, s_dim=s_dim,
            o_dim=s_dim + 1 if o_dim is None else o_dim, delta_t=delta_t, coupling=coupling,
            env_atoms=env_atoms, env_coupling_range=env_coupling_range, t_max=t_max,
            n_times=n_times, perception_mode=perception_mode, out_path=out_path,
            out_format=out_format)
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
            warnings.warn(f"amplitudes norm {scale * norm:.6g} != 1; normalizing", stacklevel=2)
            amps = amps / norm
        amps.flags.writeable = False
        vars(self)["amplitudes"] = amps
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
        # The S x O layout every experiment builds.
        if self.s_dim * self.o_dim > MAX_TOTAL_DIM:
            raise ScenarioError(f"{self.experiment} layout exceeds the dense cap {MAX_TOTAL_DIM}")
        if self.experiment == "decohere":
            if self.env_atoms > MAX_TOTAL_DIM:  # the bath is a phase per atom and pointer
                raise ScenarioError(f"decohere n_atoms {self.env_atoms} exceeds the cap {MAX_TOTAL_DIM}")
            # The product and the closed form each multiply n_atoms factors that round
            # their own phases (q_i or q_i - q_j) g_k t: they differ by about eps * t *
            # n_atoms * g_high * max|q_i - q_j|, past the checks' bound a failure by rounding.
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

    def bath_couplings(self) -> np.ndarray:
        """One coupling per bath atom, drawn from the configured range on substream
        1 << 62 of the scenario seed (recorded in the summary), disjoint from every event's."""
        lo, hi = self.env_coupling_range
        return lo + (hi - lo) * philox_uniforms(self.seed, 1 << 62, self.env_atoms)

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


# The plain subset of YAML: a block mapping two levels deep, comments,
# one-line flow sequences and mappings, quoted strings without escapes,
# decimal ints, floats with a dot (and a signed exponent, if any) and bare
# words. A bare word is a key or a string unless YAML 1.1 reads it as a bool
# or null. Importing PyYAML costs a fresh process about 10 ms of CPU time
# and 0.9 MiB of peak RSS.
_WORD = r"[A-Za-z_][A-Za-z0-9_./-]*"
_ENTRY = re.compile(rf"( *)({_WORD}):( .*)?")
# A quoted string, a flow indicator, a value colon, a plain scalar, or a comment.
_TOKEN = re.compile(r""" *(?:('[^']*'|"[^"\\]*"|[\[\]{},]|:(?= )|[^ \[\]{},:#'"]+)| +#.*)""")
_SCALAR = re.compile(rf"([-+]?(?:0|[1-9][0-9]*))|([-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?)|{_WORD}")
_BOOL_NULL = {v for w in ("yes", "no", "true", "false", "on", "off", "null")
              for v in (w, w.title(), w.upper())}


def _key(token):
    # A flow collection is no key here; PyYAML drops a simple key longer
    # than 1024 characters, and then fails.
    if token in ("[", "{") or len(token) > 1024:
        raise ValueError(token)
    return _node([token])


def _node(tokens):
    """Pops one value off the reversed *tokens*; ValueError or IndexError if
    they hold none in the subset."""
    token = tokens.pop()
    if token in ("[", "{"):
        node, close = ([], "]") if token == "[" else ({}, "}")
        if tokens[-1] == close:
            tokens.pop()
            return node
        while True:  # items, each followed by "," or the closing bracket
            if token == "[":
                node.append(_node(tokens))
            else:
                key = _key(tokens.pop())
                if tokens.pop() != ":":
                    raise ValueError(key)
                node[key] = _node(tokens)
            separator = tokens.pop()
            if separator == close:
                return node
            if separator != ",":
                raise ValueError(separator)
    if token[0] in "'\"":
        return token[1:-1]
    m = _SCALAR.fullmatch(token)
    if m is None or token in _BOOL_NULL:
        raise ValueError(token)
    return int(token) if m[1] else float(token) if m[2] else token


def _plain_yaml(text: str):
    """What ``yaml.safe_load`` returns for *text* in the plain subset above;
    None for any other text."""
    if re.search(r"[^\n -~]", text):  # a tab, CR or non-ASCII character
        return None
    doc, section, indent = {}, None, None
    try:
        for line in text.split("\n"):
            line = line.rstrip(" ")
            if line.lstrip(" ")[:1] in ("", "#"):
                continue
            m = _ENTRY.fullmatch(line)
            if m is None:
                return None
            pad, key, rest = m[1], _key(m[2]), m[3] or ""
            tokens, pos = [], 0
            while pos < len(rest):
                t = _TOKEN.match(rest, pos)
                if t is None:
                    return None
                if t[1]:
                    tokens.append(t[1])
                pos = t.end()
            tokens.reverse()
            if pad:  # an entry of the open section, all at one indent
                if section is None or indent not in (None, pad) or not tokens:
                    return None
                indent, target = pad, section
            else:
                if section == {}:  # an empty section is null
                    return None
                section = indent = None
                target = doc
                if not tokens:
                    section = doc[key] = {}
                    continue
            target[key] = _node(tokens)
            if tokens:
                return None
    except (ValueError, IndexError, RecursionError):  # int() refuses past 4300 digits
        return None
    return doc if doc and section != {} else None


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario document (strict keys)."""
    doc = _plain_yaml(text)
    if doc is None:
        import yaml

        try:
            doc = yaml.safe_load(text)
        except (yaml.YAMLError, ValueError) as e:  # ValueError: an int past 4300 digits
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
