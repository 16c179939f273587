"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 scenario validation error or a run
too large for memory, 3 numerical invariant breach, 4 acceptance check failure
(of ``--check``, or of a scenario run's checks once its outputs are written).
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .core import InvariantError, LayoutError, replace
from .harness import run
from .scenario import ScenarioError, load_scenario
from .writer import emit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dualmeas", description="Dual-state quantum measurement simulator")
    p.add_argument("--scenario", help="path to a YAML scenario file")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--events", type=int, help="override the scenario event count")
    p.add_argument("--out", help="output directory (overrides the scenario)")
    p.add_argument("--format", choices=("json", "csv"), help="event record format")
    p.add_argument(
        "--check", action="store_true", help="run the acceptance property suite and exit"
    )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.check:
        from .checks import run_all

        return EXIT_OK if run_all(verbose=True) else EXIT_CHECK

    if not args.scenario:
        print("dualmeas: error: --scenario is required unless --check is given", file=sys.stderr)
        return EXIT_USAGE

    # The normalization warning (amplitudes the scenario rescales) is one
    # line, and the run goes on, under -W error too; every other warning
    # keeps the interpreter's filters.
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", message="amplitudes norm", category=UserWarning)
        try:
            scenario = load_scenario(args.scenario)
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.events is not None:
                overrides["n_events"] = args.events
            if args.out is not None:
                overrides["out_path"] = args.out
            if args.format is not None:
                overrides["out_format"] = args.format
            if overrides:
                scenario = replace(scenario, **overrides)
        except (ScenarioError, InvariantError) as e:
            error = e
    for w in caught:
        print(f"dualmeas: warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"dualmeas: scenario error: {error}", file=sys.stderr)
        return EXIT_SCENARIO

    try:
        summary, records = run(scenario)
    except (InvariantError, LayoutError) as e:
        print(f"dualmeas: numerical invariant breach: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:  # numpy's message names the size it could not allocate
        print(f"dualmeas: scenario error: out of memory: {e}", file=sys.stderr)
        return EXIT_SCENARIO

    try:
        paths = emit(summary, records, scenario.out_path, fmt=scenario.out_format)
    except OSError as e:
        print(f"dualmeas: cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE
    for chk in summary.checks:
        tag = "PASS" if chk["passed"] else "FAIL"
        print(f"[{tag}] {chk['name']} (value: {chk['value']})")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK if all(chk["passed"] for chk in summary.checks) else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
