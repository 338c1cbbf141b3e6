"""Command-line front end.

Exit codes: 0 success, 1 bad input (unreadable or unwritable files,
parse or validation failures, unusable sweep brackets), 2 a run that
started but broke an engine contract or failed cross-validation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import ComparisonError, SweepError, compare_dpm, sweep_lux
from .engine import SimulationError, format_trace, run
from .oracle import OracleError, compare_with_engine, run_oracle
from .quantities import Duration, Illuminance
from .report import FORMATS, emit_report
from .scenario import ScenarioError, parse_quantity, parse_scenario


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _write_out(text: str, out: str | None) -> bool:
    if out is None:
        sys.stdout.write(text)
        return True
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    for w in scenario.warnings:
        print(f"warning: {w}", file=sys.stderr)
    report = run(scenario)
    if not _write_out(emit_report(report, args.format), args.out):
        return 1
    if args.trace is not None and not _write_out(format_trace(report), args.trace):
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    first = _load(args.scenario_a)
    second = _load(args.scenario_b)
    if first is None or second is None:
        return 1
    try:
        result = compare_dpm(run(first), run(second))
    except ComparisonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(result.text())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    try:
        result = sweep_lux(
            scenario,
            Illuminance(args.lo),
            Illuminance(args.hi),
            resolution=args.resolution,
        )
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(result.text())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    print(f"ok: {scenario.name}")
    for w in scenario.warnings:
        print(f"warning: {w}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    try:
        timestep = parse_quantity(args.timestep, Duration)
    except ScenarioError as exc:
        print(f"error: --timestep: {exc}", file=sys.stderr)
        return 1
    try:
        report = run(scenario)
        result = run_oracle(scenario, timestep)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    agr = compare_with_engine(report, result)
    print(f"timestep          {result.timestep_us} us ({result.ticks} ticks)")
    print(f"mode sequences    {'match' if agr.sequences_match else 'DIFFER'}")
    print(f"  engine  {' -> '.join(agr.engine_sequence)}")
    print(f"  oracle  {' -> '.join(agr.oracle_sequence)}")
    print(f"cycles completed  engine {report.cycles_completed}, oracle {result.cycles_completed}")
    print(f"final store       engine {report.e_store_final.nj!r} nJ,"
          f" oracle {result.final_e_store.nj!r} nJ")
    print(f"rel difference    {agr.e_store_rel_error:.3e}")
    print(f"component worst   {agr.components_rel_error:.3e}")
    print(f"agreement         {'ok' if agr.ok else 'FAILED'}")
    return 0 if agr.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmsim",
        description="Simulate staged power gating on an energy-harvesting sensor node.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a scenario and emit its report")
    p.add_argument("scenario")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--trace", default=None, help="also write the event trace to this file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="contrast hardware-gated and software-sleep runs")
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="find the illuminance with zero net energy per whole cycle")
    p.add_argument("scenario")
    p.add_argument("--lo", type=float, required=True, help="bracket low bound, lux")
    p.add_argument("--hi", type=float, required=True, help="bracket high bound, lux")
    p.add_argument("--resolution", type=float, default=0.1, help="bracket width to stop at, lux")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("oracle", help="cross-check the engine against the fixed-step integrator")
    p.add_argument("scenario")
    p.add_argument("--timestep", default="1ms")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SimulationError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
