"""Per-layer spans recorded from outside the dualmeas package.

The traced benchmark sample wraps the public functions listed in TARGETS.
A module that did ``from .dual import event_rng`` holds its own reference, so
each wrapper replaces the original under every name in every loaded
``dualmeas`` module that refers to it; patching the defining module alone
would record nothing for those callers. Spans stay in memory until the run
ends. ``Tracer.restore`` puts every original back, and untraced samples never
install a wrapper.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer (package module) -> public functions whose calls are timed.
TARGETS = {
    "harness": ("parse_scenario", "run", "emit"),
    "dual": (
        "event_rng",
        "draw_index",
        "reduction_baseline",
        "sample_perception_time",
        "perception_time_pdf",
    ),
    "dynamics": ("build_dephasing_hamiltonian", "run_decoherence", "branch_weights"),
    "core": ("embed", "evolve_unitary", "projector", "expectation"),
    "restriction": ("restricted_state", "breuer_distinguishable"),
    "interference": ("interference_operator", "discriminate"),
}

# Spans whose returned array size is summed as computed bytes.
RESULT_BYTES = ("core.embed",)


def span_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dualmeas" or name.startswith("dualmeas."))]


def wrapped_targets() -> list[str]:
    """Names of target functions currently replaced by a wrapper anywhere in
    the package (empty on an untraced path)."""
    found = set()
    for module in _package_modules():
        for value in vars(module).values():
            if callable(value) and getattr(value, "_bench_span", None):
                found.add(value._bench_span)
    return sorted(found)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    A span is ``(name, start, end, parent)`` where ``parent`` is the index of
    the enclosing span in ``spans`` or -1 at the top level.
    """

    def __init__(self):
        self.spans: list = []
        self.result_bytes = {name: 0 for name in RESULT_BYTES}
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        result_bytes = self.result_bytes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if name in result_bytes:
                result_bytes[name] += int(result.nbytes)
            return result

        wrapper._bench_span = name
        return wrapper

    def install(self):
        import dualmeas  # noqa: F401  (loads every submodule)

        modules = _package_modules()
        for mod, fns in TARGETS.items():
            home = sys.modules[f"dualmeas.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        return self

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_stats(self) -> dict:
        """``{name: {"calls", "total_s", "self_s"}}`` for every target name.

        Self time is a span's duration minus the durations of its direct
        child spans, which nest inside it and do not overlap.
        """
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in span_names()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - inner
        return stats

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
