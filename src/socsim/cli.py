"""Command-line entry point.

Subcommands: ``simulate`` (synthetic scenario), ``replay`` (trace files),
``sweep`` (parameter sweep) and ``metrics`` (offline partition
comparison). Exit codes: 0 success, 1 configuration error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import harness
from .harness import ReplaySource, SchemaError, Scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="socsim", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, required=True, help="scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out-dir", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    sim = sub.add_parser("simulate", help="run a synthetic scenario")
    add_common(sim)

    rep = sub.add_parser("replay", help="run a scenario on replayed trace files")
    add_common(rep)
    rep.add_argument("--trace", type=Path, default=None, help="override the trace file")
    rep.add_argument("--ground-truth", type=Path, default=None, help="override the truth file")

    sw = sub.add_parser("sweep", help="sweep one parameter over several values")
    add_common(sw)
    sw.add_argument("--parameter", choices=harness.SWEEPABLE, required=True)
    sw.add_argument(
        "--values", required=True, help="comma-separated list of parameter values"
    )

    met = sub.add_parser("metrics", help="compare two partition CSV files offline")
    met.add_argument("--truth", type=Path, required=True)
    met.add_argument("--predicted", type=Path, required=True)
    met.add_argument("--out", type=Path, default=None, help="per-frame metrics output file")
    met.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def _load_scenario(args) -> Scenario:
    scenario = harness.load_scenario(args.config)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    result = harness.run(scenario, args.out_dir, args.format)
    print(json.dumps(result.summary, sort_keys=True))
    return EXIT_OK


def _cmd_replay(args) -> int:
    scenario = _load_scenario(args)
    if args.trace is not None:
        truth = args.ground_truth
        if truth is None and isinstance(scenario.source, ReplaySource):
            truth = scenario.source.ground_truth
        scenario.source = ReplaySource(args.trace, truth)
    elif args.ground_truth is not None and isinstance(scenario.source, ReplaySource):
        scenario.source = ReplaySource(scenario.source.trace, args.ground_truth)
    if not isinstance(scenario.source, ReplaySource):
        raise SchemaError("replay needs a replay source (config source.type or --trace)")
    if not scenario.source.trace.exists():
        raise SchemaError(f"trace file not found: {scenario.source.trace}")
    result = harness.run(scenario, args.out_dir, args.format)
    print(json.dumps(result.summary, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    raw_values = args.values.split(",")
    if raw_values == [""]:
        raise SchemaError("sweep needs at least one value")
    values = [_json_number(text, item) for item, text in enumerate(raw_values, 1)]
    rows = harness.sweep(scenario, args.parameter, values, args.out_dir, fmt=args.format)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def _json_number(text: str, item: int) -> int | float:
    """``--values`` item ``item`` as a JSON number, left to the swept field's
    schema to check."""
    if not text:
        raise SchemaError(f"--values item {item} is empty")
    try:
        # NaN and Infinity are not JSON numbers
        value = json.loads(text, parse_constant=_not_a_number)
    except ValueError:
        value = None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"--values item {item} {text!r} is not a JSON number")
    return value


def _not_a_number(name: str):
    raise ValueError(name)


def _cmd_metrics(args) -> int:
    rows, summary = harness.compare_partition_files(args.truth, args.predicted)
    if args.out is not None:
        harness.write_metrics(args.out, rows, args.format)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "replay": _cmd_replay,
    "sweep": _cmd_sweep,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, ValueError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
