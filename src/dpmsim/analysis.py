"""What-if analyses built on top of plain simulation runs.

compare_dpm answers "what did hardware gating buy over letting the MCU
sleep through the idle phase" for two runs of the same scenario, and
sweep_lux bisects for the illuminance at which a scenario becomes
energy neutral per wake cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

from .engine import Report, idle_power, run
from .quantities import Current, Duration, Energy, Illuminance, Power
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
    if not report.cycles:
        raise ComparisonError(
            f"run of {report.scenario.name!r} produced no accounting cycles to compare"
        )
    total = sum(row.consumed_nj for row in report.cycles)
    return Energy(total / len(report.cycles))


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
    breakeven: Illuminance
    bracket_lo: Illuminance
    bracket_hi: Illuminance
    probes: tuple[tuple[float, float], ...]

    def text(self) -> str:
        lines = ["sweep target: net_zero_per_cycle"]
        for lux, net in self.probes:
            lines.append(f"  {lux:10.4f} lux -> net {net / 1e6:+.6f} mJ/cycle")
        lines.append(
            f"breakeven: {self.breakeven.lux:.4f} lux"
            f" (bracket [{self.bracket_lo.lux:.4f}, {self.bracket_hi.lux:.4f}])"
        )
        return "\n".join(lines) + "\n"


def _probe_net(scenario: Scenario, lux: float) -> float:
    report = run(with_constant_light(scenario, lux))
    if not report.cycles:
        raise SweepError(f"probe at {lux} lux completed no accounting cycle")
    last = report.cycles[-1]
    # A node that died before its last cycle books no flow at all there;
    # its net of 0 nJ says nothing about breakeven.
    if last.harvested_nj == 0.0 and last.consumed_nj == 0.0:
        raise SweepError(
            f"probe at {lux} lux ended unpowered in {report.final_mode}: its last cycle booked no energy flow"
        )
    return last.net_nj


def sweep_lux(
    scenario: Scenario,
    lo: Illuminance,
    hi: Illuminance,
    resolution: float = 0.1,
) -> SweepResult:
    """Bisect [lo, hi] for the illuminance with zero net energy per cycle.

    The probe at each level is a full simulation under constant light;
    the figure read out is the net of the last accounting cycle. The
    bracket must straddle zero, except that a bound already sitting at
    zero is returned as the answer directly. A probe whose last cycle
    booked no energy flow at all, a node that ended unpowered, is refused.
    """
    # Comparisons are phrased so that a NaN fails them.
    if not 0.0 <= lo.lux < hi.lux < math.inf:
        raise SweepError(f"need 0 <= lo < hi, both finite; got lo={lo.lux}, hi={hi.lux}")
    if not 0.0 < resolution < math.inf:
        raise SweepError(f"resolution must be positive and finite, got {resolution}")

    probes: list[tuple[float, float]] = []
    net_lo = _probe_net(scenario, lo.lux)
    probes.append((lo.lux, net_lo))
    if net_lo == 0.0:
        return SweepResult(lo, lo, lo, tuple(probes))
    net_hi = _probe_net(scenario, hi.lux)
    probes.append((hi.lux, net_hi))
    if net_hi == 0.0:
        return SweepResult(hi, hi, hi, tuple(probes))
    if not (net_lo < 0.0 < net_hi):
        raise SweepError(
            f"bracket does not straddle breakeven: net({lo.lux})={net_lo} nJ,"
            f" net({hi.lux})={net_hi} nJ"
        )

    a, b = lo.lux, hi.lux
    while b - a > resolution:
        mid = (a + b) / 2.0
        net_mid = _probe_net(scenario, mid)
        probes.append((mid, net_mid))
        if net_mid == 0.0:
            return SweepResult(Illuminance(mid), Illuminance(mid), Illuminance(mid), tuple(probes))
        if net_mid > 0.0:
            b = mid
        else:
            a = mid
    mid = (a + b) / 2.0
    return SweepResult(Illuminance(mid), Illuminance(a), Illuminance(b), tuple(probes))
