#!/usr/bin/env python3
"""Find the illuminance at which a node becomes energy neutral.

Sweeps the bundled case-study scenario (or any scenario file) for the
light level where harvested energy per whole wake cycle equals the
cycle's drain, and contrasts the hardware-gated node with its
software-sleep twin when both bundled files are used. Each sweep solves
the breakeven from the cycle's energy budget and confirms it with two
simulations, or bisects when the budget does not hold (see
dpmsim.analysis.sweep_lux).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from dpmsim.analysis import SweepError, sweep_lux
from dpmsim.quantities import Illuminance
from dpmsim.scenario import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED = ("case_study.scenario", "case_study_software.scenario")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenarios", nargs="*", type=Path,
                        default=[SCENARIO_DIR / name for name in BUNDLED],
                        help="scenario files to sweep (default: both bundled variants)")
    parser.add_argument("--lo", type=float, default=1.0, help="bracket low bound, lux")
    parser.add_argument("--hi", type=float, default=200.0, help="bracket high bound, lux")
    parser.add_argument("--resolution", type=float, default=0.1,
                        help="width of the final bracket, lux")
    parser.add_argument("--csv", type=Path, default=None,
                        help="append probe points to this CSV file")
    args = parser.parse_args()

    rows = []
    for path in args.scenarios:
        scenario = parse_scenario(path.read_text())
        try:
            result = sweep_lux(
                scenario,
                Illuminance(args.lo),
                Illuminance(args.hi),
                resolution=args.resolution,
            )
        except SweepError as exc:
            print(f"error: {scenario.name}: {exc}", file=sys.stderr)
            return 1
        print(f"--- {scenario.name} ({scenario.dpm_variant.kind.value}) ---")
        print(result.text())
        rows.extend(
            (scenario.name, scenario.dpm_variant.kind.value, lux, net)
            for lux, net in result.probes
        )

    if args.csv is not None:
        with args.csv.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("scenario", "variant", "lux", "net_nJ_per_cycle"))
            writer.writerows(rows)
        print(f"probe points written to {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
