"""What-if analyses built on top of plain simulation runs.

compare_dpm answers "what did hardware gating buy over letting the MCU
sleep through the idle phase" for two runs of the same scenario, and
sweep_lux finds the illuminance at which a scenario becomes energy
neutral per whole wake cycle: solved from the cycle's energy budget and
confirmed by two engine probes, or bisected when the budget does not
hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

from .energy import cycle_energy, script_duration
from .engine import Report, idle_power, run
from .quantities import Current, Duration, Energy, Illuminance, Power, energy_of
from .scenario import Scenario, VariantKind, with_constant_light


class ComparisonError(ValueError):
    """The two runs are not a like-for-like variant pair."""


def _require_twin_scenarios(hw: Scenario, sw: Scenario) -> None:
    diffs: list[str] = []
    for f in fields(Scenario):
        a, b = getattr(hw, f.name), getattr(sw, f.name)
        if not f.compare or f.name in ("name", "description", "dpm_variant") or a == b:
            continue
        if is_dataclass(a):
            diffs += [f"{f.name}.{g.name}" for g in fields(a) if getattr(a, g.name) != getattr(b, g.name)]
        else:
            diffs.append(f.name)
    if diffs:
        raise ComparisonError(
            "scenarios must be identical apart from dpm_variant; differing fields: "
            + ", ".join(diffs)
        )


@dataclass(frozen=True)
class ComparisonReport:
    scenario_name: str
    idle_current_hw: Current
    idle_current_sw: Current
    idle_power_hw: Power
    idle_power_sw: Power
    idle_ratio_sw_over_hw: float
    idle_ratio_note: str
    cycle_energy_hw: Energy
    cycle_energy_sw: Energy
    cycle_energy_ratio_sw_over_hw: float
    idle_lifetime_hw: Duration
    idle_lifetime_sw: Duration
    idle_lifetime_gain: Duration

    def text(self) -> str:
        lines = [
            f"dpm comparison: {self.scenario_name}",
            "",
            "idle (between wake cycles)",
            f"  hardware-gated   {self.idle_current_hw.microamps:.3f} uA"
            f"  ({self.idle_power_hw.microwatts:.4f} uW)",
            f"  software-sleep   {self.idle_current_sw.microamps:.3f} uA"
            f"  ({self.idle_power_sw.microwatts:.4f} uW)",
            f"  ratio            {self.idle_ratio_sw_over_hw!r} ({self.idle_ratio_note})",
            "",
            "energy per wake cycle",
            f"  hardware-gated   {self.cycle_energy_hw.millijoules:.6f} mJ",
            f"  software-sleep   {self.cycle_energy_sw.millijoules:.6f} mJ",
            f"  ratio            {self.cycle_energy_ratio_sw_over_hw:.4f}x",
            "",
            "idle-only lifetime on a full store",
            f"  hardware-gated   {self.idle_lifetime_hw.us / 1e6:.0f} s",
            f"  software-sleep   {self.idle_lifetime_sw.us / 1e6:.0f} s",
            f"  gained           {self.idle_lifetime_gain.us / 1e6:.0f} s",
        ]
        return "\n".join(lines) + "\n"


def _mean_cycle_consumed(report: Report) -> Energy:
    """Mean consumption over the run's whole cycles (see engine.CycleRow)."""
    whole = [row.consumed_nj for row in report.cycles if row.whole]
    if not whole:
        s = report.scenario
        raise ComparisonError(
            f"run of {s.name!r} ({s.dpm_variant.kind.value}) completed no whole cycle to compare"
        )
    return Energy(sum(whole) / len(whole))


def compare_dpm(report_a: Report, report_b: Report) -> ComparisonReport:
    """Contrast a hardware-gated run with its software-sleep twin.

    Accepts the two reports in either order; the variant kinds identify
    which is which, and everything else about the scenarios must match.
    """
    kinds = {report_a.scenario.dpm_variant.kind, report_b.scenario.dpm_variant.kind}
    if kinds != {VariantKind.HARDWARE_GATED, VariantKind.SOFTWARE_SLEEP}:
        raise ComparisonError(
            "comparison needs one hardware_gated run and one software_sleep run"
        )
    if report_a.scenario.dpm_variant.kind is VariantKind.HARDWARE_GATED:
        hw, sw = report_a, report_b
    else:
        hw, sw = report_b, report_a
    _require_twin_scenarios(hw.scenario, sw.scenario)

    i_hw = hw.scenario.always_on.total_current
    i_sw = sw.scenario.dpm_variant.i_sleep
    # The idle ratio and both lifetimes divide by these drains.
    if i_hw.na == 0:
        raise ComparisonError("hardware-gated twin has no idle drain: every always_on current is 0 nA")
    if i_sw.na == 0:
        raise ComparisonError("software-sleep twin has no idle drain: dpm_variant.i_sleep is 0 nA")
    p_hw = idle_power(hw.scenario)
    p_sw = idle_power(sw.scenario)
    idle_ratio = i_sw.na / i_hw.na

    e_hw = _mean_cycle_consumed(hw)
    e_sw = _mean_cycle_consumed(sw)

    cap = hw.scenario.storage.e_capacity
    life_hw = Duration(round(cap.nj / p_hw.nw * 1e6))
    life_sw = Duration(round(cap.nj / p_sw.nw * 1e6))

    return ComparisonReport(
        scenario_name=hw.scenario.name,
        idle_current_hw=i_hw,
        idle_current_sw=i_sw,
        idle_power_hw=p_hw,
        idle_power_sw=p_sw,
        idle_ratio_sw_over_hw=idle_ratio,
        idle_ratio_note=f"~{idle_ratio:.1f}x",
        cycle_energy_hw=e_hw,
        cycle_energy_sw=e_sw,
        cycle_energy_ratio_sw_over_hw=e_sw.nj / e_hw.nj,
        idle_lifetime_hw=life_hw,
        idle_lifetime_sw=life_sw,
        idle_lifetime_gain=life_hw - life_sw,
    )


class SweepError(ValueError):
    """The sweep bracket does not straddle the target, or a probe cannot tell."""


@dataclass(frozen=True)
class SweepResult:
    """A breakeven and how the sweep found it.

    route is "closed_form" when the whole-cycle budget's prediction was
    confirmed by its two probes, and "bisection" otherwise; fallback then
    says why the prediction was not taken. whole_cycles gives, per probe,
    how many whole cycles that run completed.
    """

    breakeven: Illuminance
    bracket_lo: Illuminance
    bracket_hi: Illuminance
    probes: tuple[tuple[float, float], ...]
    whole_cycles: tuple[int, ...]
    route: str
    fallback: str = ""

    def text(self) -> str:
        lines = ["sweep target: net_zero_per_cycle"]
        for (lux, net), whole in zip(self.probes, self.whole_cycles):
            lines.append(f"  {lux:10.4f} lux -> net {net / 1e6:+.6f} mJ/cycle (whole cycles: {whole})")
        lines.append(f"route: {self.route}" + (f" (closed form not taken: {self.fallback})" if self.fallback else ""))
        lines.append(
            f"breakeven: {self.breakeven.lux:.4f} lux"
            f" (bracket [{self.bracket_lo.lux:.4f}, {self.bracket_hi.lux:.4f}])"
        )
        return "\n".join(lines) + "\n"


def _whole_cycle_budget(scenario: Scenario) -> tuple[Duration, Energy] | None:
    """Length and consumption of one whole cycle spent in Normal.

    The script runs once, and the always-on rail idles at the variant's
    drain (engine.idle_power) for the whole cycle. Under rearm_on_clear
    the next alarm is armed as the burst ends, so the cycle is the alarm
    period plus the burst. None when a burst outlasts a period that does
    not wait for it: no whole cycle then holds the script exactly once.
    """
    script = scenario.load_script
    burst = script_duration(script)
    sleep = scenario.rtc.alarm_period
    if not scenario.rtc.rearm_on_clear:
        sleep = sleep - burst
        if sleep.us < 0:
            return None
    cycle = sleep + burst
    return cycle, cycle_energy(script, scenario.always_on, sleep, energy_of(idle_power(scenario), cycle))


def _closed_form_lux(scenario: Scenario) -> float:
    """The illuminance at which a whole cycle spent in Normal nets zero.

    Over a whole cycle of length T the node harvests P_h(lux)*T against
    the budget's consumption E, and P_h is piecewise linear, so
    P_h(lux*) = E/T is one inverse interpolation: through the origin
    below the first calibration point, and along the last segment past
    the last one. inf when no light reaches that power, and nan when
    there is no budget (see _whole_cycle_budget).
    """
    budget = _whole_cycle_budget(scenario)
    if budget is None:
        return math.nan
    cycle, consumed = budget
    target_nw = consumed.nj / cycle.us * 1e6
    points = [(0.0, 0.0)] + [(lux.lux, p.nw) for lux, p in scenario.harvester.calibration]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if target_nw <= y1:
            return x0 if y1 == y0 else x0 + (x1 - x0) * (target_nw - y0) / (y1 - y0)
    (x0, y0), (x1, y1) = points[-2:]
    return math.inf if y1 == y0 else x1 + (x1 - x0) * (target_nw - y1) / (y1 - y0)


def _probe_net(scenario: Scenario, lux: float) -> tuple[float, int]:
    """The net of the probe's last whole cycle, and its count of whole cycles.

    Energy neutrality is a balance over whole periods, so the row that
    the end of the run cut short is never read; the last whole cycle is
    the one nearest to the steady state the node settles into.
    """
    report = run(with_constant_light(scenario, lux))
    whole = [row for row in report.cycles if row.whole]
    if not whole:
        raise SweepError(f"probe at {lux} lux completed no whole cycle; it ended in {report.final_mode}")
    last = whole[-1]
    # A node that died before its last cycle books no flow at all there;
    # its net of 0 nJ says nothing about breakeven.
    if last.harvested_nj == 0.0 and last.consumed_nj == 0.0:
        raise SweepError(
            f"probe at {lux} lux ended unpowered in {report.final_mode}: its last cycle booked no energy flow"
        )
    return last.net_nj, len(whole)


def sweep_lux(
    scenario: Scenario,
    lo: Illuminance,
    hi: Illuminance,
    resolution: float = 0.1,
) -> SweepResult:
    """Find the illuminance in [lo, hi] with zero net energy per whole cycle.

    Each probe is a full simulation under constant light, read on the net
    of its last whole cycle (see _probe_net). The whole-cycle budget
    predicts the breakeven lux* (see _closed_form_lux), and two probes at
    lux* -/+ resolution/2 confirm it when the first nets below zero and
    the second above. Otherwise the sweep falls back to bisecting
    [lo, hi] and records why: the prediction or a probe lies outside
    [lo, hi], a probe cannot tell, or the two nets do not straddle zero.

    The bisection's bracket must straddle zero, except that a bound
    already sitting at zero is returned as the answer directly. A probe
    with no whole cycle, or whose last whole cycle booked no energy flow
    at all (a node that ended unpowered), is refused.
    """
    # Comparisons are phrased so that a NaN fails them.
    if not 0.0 <= lo.lux < hi.lux < math.inf:
        raise SweepError(f"need 0 <= lo < hi, both finite; got lo={lo.lux}, hi={hi.lux}")
    if not 0.0 < resolution < math.inf:
        raise SweepError(f"resolution must be positive and finite, got {resolution}")

    lux = _closed_form_lux(scenario)
    a, b = lux - resolution / 2.0, lux + resolution / 2.0
    while b - a > resolution:  # rounding may set the probes an ulp too far apart
        b = math.nextafter(b, a)
    if not lo.lux <= a < b <= hi.lux:
        why = f"the budget's breakeven {lux!r} lux -/+ {resolution / 2.0!r} leaves [{lo.lux!r}, {hi.lux!r}]"
    else:
        try:
            net_a, whole_a = _probe_net(scenario, a)
            net_b, whole_b = _probe_net(scenario, b)
        except SweepError as exc:
            why = str(exc)
        else:
            if net_a < 0.0 < net_b:
                return SweepResult(
                    Illuminance(lux), Illuminance(a), Illuminance(b),
                    ((a, net_a), (b, net_b)), (whole_a, whole_b), "closed_form",
                )
            why = f"nets at {a!r} and {b!r} lux do not straddle zero ({net_a!r}, {net_b!r} nJ)"
    return _bisect(scenario, lo.lux, hi.lux, resolution, why)


def _bisect(scenario: Scenario, lo: float, hi: float, resolution: float, why: str) -> SweepResult:
    """sweep_lux's fallback; why says why the closed form was not taken."""
    probes: list[tuple[float, float]] = []
    whole: list[int] = []

    def probe(lux: float) -> float:
        net, count = _probe_net(scenario, lux)
        probes.append((lux, net))
        whole.append(count)
        return net

    def result(breakeven: float, a: float, b: float) -> SweepResult:
        return SweepResult(
            Illuminance(breakeven), Illuminance(a), Illuminance(b),
            tuple(probes), tuple(whole), "bisection", why,
        )

    net_lo = probe(lo)
    if net_lo == 0.0:
        return result(lo, lo, lo)
    net_hi = probe(hi)
    if net_hi == 0.0:
        return result(hi, hi, hi)
    if not (net_lo < 0.0 < net_hi):
        raise SweepError(
            f"bracket does not straddle breakeven: net({lo})={net_lo} nJ,"
            f" net({hi})={net_hi} nJ"
        )

    a, b = lo, hi
    while b - a > resolution:
        mid = (a + b) / 2.0
        net_mid = probe(mid)
        if net_mid == 0.0:
            return result(mid, mid, mid)
        if net_mid > 0.0:
            b = mid
        else:
            a = mid
    return result((a + b) / 2.0, a, b)
