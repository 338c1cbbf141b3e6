"""The benchmark's workloads: one operation each, and its correctness check.

An operation calls the program only through the table of public layer
functions it is given, keyed by span name, so that the same operation can
run untimed, timed, traced or profiled. Checks run outside the timed
region and use the plain functions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import dpmsim
from dpmsim import Illuminance
from dpmsim.quantities import Duration

import inputs

# Span name -> the public function it times. analysis.sweep_lux calls the
# engine through dpmsim.analysis.run; the runner points that name at the
# "engine.run" entry so sweep probes are timed as engine calls too.
LAYER_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "scenario.parse": dpmsim.parse_scenario,
    "engine.run": dpmsim.run,
    "engine.format_trace": dpmsim.format_trace,
    "report.json": partial(dpmsim.emit_report, fmt="json"),
    "report.csv": partial(dpmsim.emit_report, fmt="csv"),
    "report.text": partial(dpmsim.emit_report, fmt="text"),
    "analysis.compare": dpmsim.compare_dpm,
    "analysis.sweep": dpmsim.sweep_lux,
    "oracle.run": dpmsim.run_oracle,
    "oracle.compare": dpmsim.compare_with_engine,
}

C04_IDLE_RATIO = 6.64
SWEEP_LO, SWEEP_HI = Illuminance(1.0), Illuminance(200.0)
ORACLE_STEP = Duration(1000)


@dataclass
class Checked:
    """What a check keeps of one operation's output."""

    trace: str
    json: str
    digest: str  # over every rendered output; equal digests mean a byte-identical replay
    problems: list[str]


def _checked(trace: str, reports: list[tuple[Any, str]], extra: str, problems: list[str]) -> Checked:
    for report, text in reports:
        try:
            net = json.loads(text)["energy"]["net_gain_nj"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"JSON report unreadable: {exc!r}")
            continue
        if net != report.net_gain.nj:
            problems.append(f"JSON net_gain_nj {net!r} != Report {report.net_gain.nj!r}")
    json_text = "".join(text for _, text in reports)
    digest = hashlib.sha256("\0".join((trace, json_text, extra)).encode()).hexdigest()
    return Checked(trace, json_text, digest, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[int], list]  # seed -> the operations' inputs
    first_text: Callable[[Any], str]  # the text parsed while measuring set-up
    op: Callable[[dict, Any], Any]
    check: Callable[[Any], Checked]


def _long_horizon_op(L: dict, text: str):
    report = L["engine.run"](L["scenario.parse"](text))
    return (
        report,
        L["engine.format_trace"](report),
        L["report.json"](report),
        L["report.csv"](report),
        L["report.text"](report),
    )


def _long_horizon_check(out) -> Checked:
    report, trace, json_text, csv_text, text = out
    return _checked(trace, [(report, json_text)], csv_text + text, [])


def _whatif_op(L: dict, pair: tuple[str, str]):
    hw = L["engine.run"](L["scenario.parse"](pair[0]))
    sw = L["engine.run"](L["scenario.parse"](pair[1]))
    cmp = L["analysis.compare"](hw, sw)
    sweep = L["analysis.sweep"](hw.scenario, SWEEP_LO, SWEEP_HI)
    return hw, sw, cmp, sweep, L["report.json"](hw), L["report.json"](sw)


def _whatif_check(out) -> Checked:
    hw, sw, cmp, sweep, hw_json, sw_json = out
    problems = []
    if abs(cmp.idle_ratio_sw_over_hw / C04_IDLE_RATIO - 1.0) > 0.01:
        problems.append(f"idle ratio {cmp.idle_ratio_sw_over_hw!r} misses {C04_IDLE_RATIO} by >1%")
    if not sweep.bracket_lo.lux <= sweep.breakeven.lux <= sweep.bracket_hi.lux:
        problems.append(
            f"breakeven {sweep.breakeven.lux!r} outside [{sweep.bracket_lo.lux!r}, {sweep.bracket_hi.lux!r}]"
        )
    trace = dpmsim.format_trace(hw) + dpmsim.format_trace(sw)
    return _checked(trace, [(hw, hw_json), (sw, sw_json)], cmp.text() + sweep.text(), problems)


def _crosscheck_op(L: dict, text: str):
    report = L["engine.run"](L["scenario.parse"](text))
    result = L["oracle.run"](report.scenario, ORACLE_STEP)
    return report, result, L["oracle.compare"](report, result)


def _crosscheck_check(out) -> Checked:
    report, result, agreement = out
    problems = [] if agreement.ok else [f"engine and oracle disagree: {agreement!r}"]
    json_text = dpmsim.emit_report(report, "json")
    return _checked(dpmsim.format_trace(report), [(report, json_text)], repr(result), problems)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_horizon",
            lambda seed: [inputs.long_horizon(seed)],
            lambda text: text,
            _long_horizon_op,
            _long_horizon_check,
        ),
        Workload(
            "whatif_batch",
            inputs.whatif_batch,
            lambda pair: pair[0],
            _whatif_op,
            _whatif_check,
        ),
        Workload(
            "crosscheck",
            lambda seed: [inputs.crosscheck(seed)],
            lambda text: text,
            _crosscheck_op,
            _crosscheck_check,
        ),
    )
}
