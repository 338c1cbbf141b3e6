"""Deterministic discrete-event simulation engine.

Between events every power flow is constant, so stored energy is a
straight line and the engine integrates it in closed form; a threshold
crossing is solved as the first microsecond that line reaches its exit's
onset energy, and queued as an event instead of being hunted with fixed
time steps. Replaying a scenario therefore produces byte-identical
traces and reports.

run() is one event loop over plain locals: the clock, the stored energy,
the mode (a small int from pmic), the latch, the running step, the queue
generations, the ledger and the open cycle's sums. Each exit's onset
energy is looked up once per run. The checks of the engine's contracts
run inside the loop, on plain numbers: time never runs backwards, a
crossing lands on its onset, a step runs only under Stage2, the store
stays within [0, capacity], the event budget holds; at the end the mode
residency covers the run and the energy ledger balances. Each dispatch
appends one TraceRecord, a NamedTuple.

Event ordering is total: (time, kind priority, insertion sequence).
Kind priority follows the order of _KIND_LABEL below, so
simultaneous triggers resolve the same way on every run: an RTC alarm
and a touch press at the same microsecond both set the latch, and the
alarm's record comes first in the trace.

Each queued event carries its kind's generation from when it was pushed,
and one popped with another stamp is stale. Bumping a kind's generation
cancels its queued events: a re-armed alarm, an aborted step, a grace
window ended by a mode change, a crossing recomputed after a dispatch.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .energy import (
    ALWAYS_ON_COMPONENT,
    _integrate,
    _store_uv,
    always_on_power,
    harvest_power,
    harvest_voltage,
    power_of,
)
from .pmic import (
    DEEP_SLEEP,
    MODE_NAMES,
    OVERCHARGE,
    SHUTDOWN,
    WAKE_UP,
    Exit,
    PmicConfig,
    cold_start,
    stage2,
    step_mode,
)
from .quantities import Duration, Energy, Power, Voltage
from .scenario import Scenario, VariantKind

# Safety valve; a healthy run dispatches a handful of events per wake cycle.
_MAX_EVENTS = 10_000_000


class SimulationError(RuntimeError):
    """The engine reached a state that violates its own contracts."""


# Event kinds. The kind's value is its priority among events at the same
# microsecond and indexes _KIND_LABEL.
_KIND_LABEL = (
    "rtc_alarm", "touch_press", "load_step_complete", "threshold_cross",
    "shutdown_grace_expire", "light_change", "mcu_clear_latch", "sim_end",
)
(_RTC_ALARM, _TOUCH_PRESS, _LOAD_STEP_COMPLETE, _THRESHOLD_CROSS,
 _SHUTDOWN_GRACE_EXPIRE, _LIGHT_CHANGE, _MCU_CLEAR_LATCH, _SIM_END) = range(len(_KIND_LABEL))


# The two threshold events that no stored-voltage exit in the PMIC's
# table covers: cold start reads the harvester (pmic.cold_start), and
# depletion is the store reaching zero energy (its onset is 0 nJ), which
# the engine forces. Neither has a voltage, so their uv is never read.
_COLD_START = Exit("cold_start", 0, True, WAKE_UP)
_DEPLETED = Exit("depleted", 0, False, DEEP_SLEEP)


class TraceRecord(NamedTuple):
    time_us: int
    kind: str
    mode: str
    latch_set: bool
    v_store_uv: int
    e_store_nj: float
    note: str = ""

    def line(self) -> str:
        base = (
            f"{self.time_us} {self.kind} {self.mode} {int(self.latch_set)} "
            f"{self.v_store_uv} {self.e_store_nj!r}"
        )
        return f"{base} # {self.note}" if self.note else base


@dataclass(frozen=True)
class Anomaly:
    time_us: int
    code: str
    detail: str


@dataclass(frozen=True)
class CycleRow:
    """One accounting row. A whole row is one alarm period: an RTC alarm
    opened it and the next one closed it. The others are the row before
    the first alarm and the row the end of the run cut short."""

    index: int
    start_us: int
    consumed_nj: float
    harvested_nj: float
    net_nj: float
    end_soc: float
    whole: bool


@dataclass(frozen=True)
class Report:
    """Everything a finished run exposes to reporting and analysis."""

    scenario: Scenario
    duration_us: int
    e_harvested: Energy
    e_consumed: tuple[tuple[str, Energy], ...]
    e_overcharge_discarded: Energy
    e_store_initial: Energy
    e_store_final: Energy
    final_soc: float
    final_voltage: Voltage
    final_mode: str
    mode_residency: tuple[tuple[str, Duration], ...]
    cycles: tuple[CycleRow, ...]
    cycles_completed: int
    anomalies: tuple[Anomaly, ...]
    trace: tuple[TraceRecord, ...]

    @property
    def e_consumed_total(self) -> Energy:
        total = 0.0
        for _, e in self.e_consumed:
            total += e.nj
        return Energy(total)

    @property
    def net_gain(self) -> Energy:
        return Energy(self.e_harvested.nj - self.e_consumed_total.nj)


def idle_power(scenario: Scenario) -> Power:
    """Drain on the always-on rail while no load step runs.

    The software-sleep variant keeps the MCU in its sleep state instead
    of gating it, so its measured sleep current replaces the whole
    always-on budget.
    """
    if scenario.dpm_variant.kind is VariantKind.SOFTWARE_SLEEP:
        return power_of(scenario.always_on.rail_voltage, scenario.dpm_variant.i_sleep)
    return always_on_power(scenario.always_on)


class _Step(NamedTuple):
    name: str
    power_nw: float
    duration_us: int
    slot: int  # the step's entry in the run's consumption ledger


# -- threshold crossing prediction ------------------------------------


@functools.cache
def _onset_nj(segments: tuple[tuple[float, int, float, int], ...], capacity_nj: float, exit: Exit) -> float:
    """The stored energy at which the exit's guard switches.

    round(v(e)) is monotone in e, so a rising guard holds exactly when
    e >= onset and a falling one exactly when e <= onset. A threshold in
    (v_empty, v_full] reads differently on an empty and a full store, so
    the guard itself bisects the floats between the two.
    """
    lo, hi = 0.0, capacity_nj
    while lo < (mid := (lo + hi) / 2) < hi:
        onset_below = exit.holds(round(_store_uv(segments, mid, capacity_nj))) is exit.rising
        lo, hi = (lo, mid) if onset_below else (mid, hi)
    return hi if exit.rising else lo


def _aims(cfg: PmicConfig, segments: tuple[tuple[float, int, float, int], ...], capacity_nj: float) -> tuple:
    """Per mode, indexed by whether the store rises: the exit the crossing
    solver aims at and its onset energy.

    The aim is the mode's first exit in that direction; failing that, a
    draining store's depletion, for which the solver returns None unless
    the store falls.
    """
    aims = []
    for exits in cfg.exits:
        aim = [(_DEPLETED, 0.0), (_DEPLETED, 0.0)]
        for exit in reversed(exits):  # so that the first exit of a direction is kept
            aim[exit.rising] = (exit, _onset_nj(segments, capacity_nj, exit))
        aims.append(tuple(aim))
    return tuple(aims)


def find_threshold_crossing(now_us: int, e_nj: float, p_nw: float, onset_nj: float, rising: bool) -> int | None:
    """Earliest microsecond at which a guard with this onset becomes true.

    Returns None when the net power p_nw points away from the onset. The
    guard holds from its onset energy on, so the solve works on energies
    alone: it estimates the time to the onset and settles it on the
    stored energy the run's integration will reach,
    e_nj + p_nw * (t - now_us) / 1e6.
    """
    sign = 1.0 if rising else -1.0
    if sign * e_nj >= sign * onset_nj:
        return now_us
    if sign * p_nw <= 0.0:
        return None

    def reached(t: int) -> bool:
        return sign * (e_nj + p_nw * (t - now_us) / 1e6) >= sign * onset_nj

    # The estimate misses by up to half an ulp of e over p_net's per-us
    # step; e(t) is monotone, so widen a bracket around it, then bisect.
    hi = now_us + max(1, math.ceil((onset_nj - e_nj) / p_nw * 1e6))
    lo = hi - 1
    while not reached(hi):
        lo, hi = hi, 3 * hi - 2 * lo
    while reached(lo):
        lo, hi = 3 * lo - 2 * hi, lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return hi


# -- contract checks ----------------------------------------------------


def _check_landing(
    exit: Exit, v_uv: int, segments: tuple[tuple[float, int, float, int], ...], capacity_nj: float,
    e_nj: float, p_nw: float,
) -> None:
    """Freshness contract for a dispatched stored-voltage crossing.

    A live crossing lands on the first reading at which its guard holds,
    within 1 uV plus what the store moved in the last us (a store filling
    in under 1 us overshoots by the rest of that us).
    """
    off_uv = abs(v_uv - (exit.uv if exit.rising else exit.uv - 1))
    if off_uv > 1:
        moved_uv = abs(_store_uv(segments, e_nj, capacity_nj) - _store_uv(segments, e_nj - p_nw / 1e6, capacity_nj))
        if off_uv > 1 + moved_uv:
            raise SimulationError(f"threshold crossing dispatched {off_uv} uV off target")


def _check_invariants(step: _Step | None, stage2_on: bool, e_nj: float, capacity_nj: float) -> None:
    # Steps start and stop on Stage2 edges; one left running means an
    # edge was missed.
    if step is not None and not stage2_on:
        raise SimulationError(f"load step {step.name!r} running without Stage2 power")
    if not 0.0 <= e_nj <= capacity_nj:
        raise SimulationError(f"stored energy {e_nj} nJ outside [0, capacity]")


# -- top level ---------------------------------------------------------


def _settle_initial_mode(cfg: PmicConfig, v_uv: int, v_harvest_uv: int, p_harvest_nw: float) -> int:
    """Derive the mode the node is actually in at t=0.

    The run opens on a node that has been sitting under the first light
    sample with its opening store charge, so the supervisor is already
    past its transients: the mode machine is stepped from WakeUp to a
    fixed point (a charged store means the system booted long ago; cold
    start is only the from-empty path). A node still in WakeUp without
    light enough to cold start is dark and dead. Deriving this up front
    also keeps a wake trigger scheduled exactly at t=0 from outranking
    the t=0 light sample and landing unpowered.
    """
    mode = WAKE_UP
    while (stepped := step_mode(mode, 0, cfg, v_uv, v_harvest_uv, p_harvest_nw, 0)) != mode:
        mode = stepped
    if mode == WAKE_UP and not cold_start(cfg, v_harvest_uv, p_harvest_nw):
        mode = DEEP_SLEEP
    return mode


def run(scenario: Scenario) -> Report:
    """Simulate a scenario to completion and return its report."""
    cfg = scenario.pmic
    harvester = scenario.harvester
    segments = scenario.storage.ocv_segments
    capacity = scenario.storage.e_capacity.nj
    e_initial = scenario.storage.e_store.nj
    alarm_period = scenario.rtc.alarm_period.us
    rearm_on_clear = scenario.rtc.rearm_on_clear
    grace_us = cfg.grace_window.us
    end_us = scenario.duration.us
    idle_nw = idle_power(scenario).nw
    aims = _aims(cfg, segments, capacity)
    # Consumption ledger: the always-on rail first, then each step name.
    slots = {ALWAYS_ON_COMPONENT: 0}
    for step in scenario.load_script:
        slots.setdefault(step.name, len(slots))
    steps = tuple(_Step(step.name, step.power.nw, step.duration.us, slots[step.name]) for step in scenario.load_script)
    consumed = [0.0] * len(slots)

    queue: list[tuple] = []  # (time_us, kind, seq, gen, payload)
    seq = itertools.count(1)
    # Per event kind, the generation that queued events must carry to be live.
    gens = [0] * len(_KIND_LABEL)
    heappush, heappop = heapq.heappush, heapq.heappop

    def push(t_us: int, kind: int, payload=None) -> None:
        heappush(queue, (t_us, kind, next(seq), gens[kind], payload))

    now = 0
    e = e_initial
    lux = scenario.light_timeline[0][1]
    p_harvest = harvest_power(harvester, lux).nw
    v_harvest = harvest_voltage(harvester, lux).uv
    v_uv = round(_store_uv(segments, e, capacity))
    mode = _settle_initial_mode(cfg, v_uv, v_harvest, p_harvest)
    mode_since = 0  # also the start of Shutdown's grace window while in Shutdown
    residency = [0] * len(MODE_NAMES)
    latch = False
    active: _Step | None = None
    next_step = 0
    # A depleted store under light too weak to carry the always-on
    # rail would re-boot and brown out forever within one instant;
    # hold cold start off until the light actually changes.
    cold_start_held = False
    e_harvested = e_discarded = 0.0
    # What rounding each store update to the store's own ulp left out.
    e_rounding = 0.0
    cycles_completed = 0
    cycles: list[CycleRow] = []
    cycle_start = 0
    cycle_harvested = cycle_consumed = 0.0
    cycle_from_alarm = False  # whether an RTC alarm opened the open row
    anomalies: list[Anomaly] = []
    trace = [TraceRecord(0, "init", MODE_NAMES[mode], latch, v_uv, e, "settled_from_initial_conditions")]

    def start_next_step() -> None:
        nonlocal active, next_step, cycles_completed
        if next_step >= len(steps):
            # Work complete: firmware clears the latch to drop back to Stage1.
            cycles_completed += 1
            push(now, _MCU_CLEAR_LATCH)
            return
        active = steps[next_step]
        next_step += 1
        gens[_LOAD_STEP_COMPLETE] += 1
        push(now + active.duration_us, _LOAD_STEP_COMPLETE)

    # The first timeline entry is already in force before settling; only
    # actual changes become events.
    for t, lux in scenario.light_timeline[1:]:
        push(t.us, _LIGHT_CHANGE, lux)
    for t in scenario.touch.press_times:
        push(t.us, _TOUCH_PRESS)
    push(scenario.rtc.first_alarm.us, _RTC_ALARM)
    push(end_us, _SIM_END)

    events = 0
    live = True  # the last event was dispatched, so the state may have moved
    while True:
        if live:
            # Net rate into the store, then exactly one live crossing for it.
            if mode == DEEP_SLEEP:
                p_net = 0.0
            else:
                p_net = p_harvest - idle_nw if active is None else p_harvest - (idle_nw + active.power_nw)
                if mode == OVERCHARGE:
                    # Charging is held off: harvest feeds the load first
                    # and the surplus is rejected; the store only discharges.
                    p_net = min(0.0, p_net)
            gens[_THRESHOLD_CROSS] += 1
            if mode == DEEP_SLEEP:
                # Cold start is driven by the harvester, not the store; it
                # can only become true at a dispatch, so test it right here.
                if not cold_start_held and cold_start(cfg, v_harvest, p_harvest):
                    push(now, _THRESHOLD_CROSS, _COLD_START)
            elif p_net != 0.0:
                exit, onset = aims[mode][p_net > 0.0]
                t_cross = find_threshold_crossing(now, e, p_net, onset, exit.rising)
                # Past the next event, p_net may change first; recompute then.
                if t_cross is not None and not (queue and t_cross > queue[0][0]):
                    push(t_cross, _THRESHOLD_CROSS, exit)

        t_us, kind, _, gen, payload = heappop(queue)
        if t_us > end_us:
            raise SimulationError("event queue ran past the end of the run")
        if t_us < now:
            raise SimulationError(f"time must not run backwards ({now} -> {t_us})")
        dt_us = t_us - now
        if dt_us:
            # Integrate every constant flow over [now, t_us].
            if mode != DEEP_SLEEP:
                harvest_e = p_harvest * dt_us / 1e6
                e_harvested += harvest_e
                cycle_harvested += harvest_e
                idle_e = idle_nw * dt_us / 1e6
                consumed[0] += idle_e
                cycle_consumed += idle_e
                drain_nw = idle_nw
                if active is not None:
                    drain_nw += active.power_nw
                    step_e = active.power_nw * dt_us / 1e6
                    consumed[active.slot] += step_e
                    cycle_consumed += step_e
                if mode == OVERCHARGE:
                    e_discarded += max(0.0, p_harvest - drain_nw) * dt_us / 1e6
            e_old = e
            e, clipped_high, clipped_low = _integrate(e_old, capacity, p_net, dt_us)
            # TwoSum (Knuth, TAOCP 2, 4.2.2): the exact error of e_old + added
            # as _integrate rounds it. The store's ulp is ~1e-5 nJ at full
            # scale, so on runs of many tiny events this error outgrows the
            # flows' tolerance.
            added = p_net * dt_us / 1_000_000
            total = e_old + added
            added_part = total - e_old
            e_rounding += (e_old - (total - added_part)) + (added - added_part)
            if clipped_high > 0.0:
                # Physical ceiling; rejected exactly like an overcharge clamp.
                e_discarded += clipped_high
            if clipped_low > 0.0:
                # Only float dust can land here (the depletion crossing fires
                # at zero); undo the overstated drain so the ledger stays balanced.
                consumed[0] -= clipped_low
                cycle_consumed -= clipped_low
            now = t_us
        events += 1
        if events > _MAX_EVENTS:
            raise SimulationError("event budget exhausted; scenario is livelocked")
        live = gen == gens[kind]
        if not live:
            continue

        # -- dispatch: stored energy only moves between dispatches.
        v_uv = round(_store_uv(segments, e, capacity))
        notes: list[str] = []
        label = _KIND_LABEL[kind]
        exit = None
        if kind == _THRESHOLD_CROSS:
            exit = payload
            label = "threshold_cross:" + exit.label
            if exit is not _COLD_START and exit is not _DEPLETED:
                _check_landing(exit, v_uv, segments, capacity, e, p_net)

        powered = mode != DEEP_SLEEP
        stage2_before = stage2(mode, latch)

        if kind == _RTC_ALARM or kind == _SIM_END:
            # An alarm opens a new accounting cycle; the end closes the last.
            if now != cycle_start or cycle_harvested != 0.0 or cycle_consumed != 0.0:
                cycles.append(CycleRow(
                    index=len(cycles),
                    start_us=cycle_start,
                    consumed_nj=cycle_consumed,
                    harvested_nj=cycle_harvested,
                    net_nj=cycle_harvested - cycle_consumed,
                    end_soc=e / capacity,
                    whole=cycle_from_alarm and kind == _RTC_ALARM,
                ))
                cycle_start = now
                cycle_harvested = cycle_consumed = 0.0
            cycle_from_alarm = True

        if kind == _RTC_ALARM:
            if powered:
                latch = True
                notes.append("latch_set=rtc")
                if mode == SHUTDOWN:
                    notes.append("compute_rail_unpowered_until_recovery")
                elif mode == WAKE_UP:
                    notes.append("compute_rail_unpowered_until_charged")
            else:
                notes.append("ignored_unpowered")
            push(now + alarm_period, _RTC_ALARM)

        elif kind == _TOUCH_PRESS:
            if powered:
                latch = True
                notes.append("latch_set=touch")
            else:
                notes.append("ignored_unpowered")

        elif kind == _LOAD_STEP_COMPLETE:
            notes.append(f"step_done={active.name}")
            active = None
            start_next_step()

        elif kind == _LIGHT_CHANGE:
            p_harvest = harvest_power(harvester, payload).nw
            v_harvest = harvest_voltage(harvester, payload).uv
            cold_start_held = False
            notes.append(f"lux={payload.lux!r}")

        elif kind == _MCU_CLEAR_LATCH:
            if not stage2_before:
                # The compute domain lost power in the same microsecond the
                # clear was issued; the latch keeps its state.
                anomalies.append(Anomaly(now, "clear_skipped_unpowered", "latch clear arrived without Stage2 power"))
                notes.append("clear_skipped_unpowered")
            else:
                latch = False
                notes.append("latch_cleared")
                if rearm_on_clear:
                    gens[_RTC_ALARM] += 1
                    push(now + alarm_period, _RTC_ALARM)
                    notes.append("alarm_rearmed")

        # One mode-machine step per dispatch; cascades arrive as immediate
        # threshold-crossing events queued at the top of the loop. The
        # grace expiry itself is resolved here too.
        new_mode = mode
        if exit is _DEPLETED:
            if mode != DEEP_SLEEP:
                anomalies.append(Anomaly(now, "storage_depleted", f"store empty in {MODE_NAMES[mode]}; forced deep sleep"))
                new_mode = DEEP_SLEEP
                cold_start_held = True
                notes.append("forced_deep_sleep;cold_start_held_until_light_change")
        elif mode != DEEP_SLEEP or not cold_start_held:
            # While cold start is held, Deep sleep's step is an identity, and
            # taking it would re-boot into the brown-out the hold exists to break.
            new_mode = step_mode(mode, mode_since, cfg, v_uv, v_harvest, p_harvest, now)
            if new_mode != mode:
                notes.append(f"mode={MODE_NAMES[new_mode]}")
        if new_mode != mode:
            gens[_SHUTDOWN_GRACE_EXPIRE] += 1  # a grace window ends with its Shutdown
            residency[mode] += now - mode_since
            mode_since = now
            mode = new_mode
            if mode == SHUTDOWN:
                push(now + grace_us, _SHUTDOWN_GRACE_EXPIRE)

        # Power loss wipes the latch: the latch logic lives on the rail that
        # just went down.
        if mode == DEEP_SLEEP and latch:
            latch = False
            notes.append("latch_lost_power")

        stage2_after = stage2(mode, latch)
        if stage2_after and not stage2_before:
            next_step = 0
            start_next_step()
            notes.append("stage2_entered")
        elif stage2_before and not stage2_after:
            if active is not None:
                why = f"(mode {MODE_NAMES[mode]})" if latch else "(latch cleared)"
                anomalies.append(Anomaly(
                    now, "load_step_aborted", f"{active.name} lost power {why}; pro-rata energy already charged"
                ))
                active = None
                gens[_LOAD_STEP_COMPLETE] += 1
            notes.append("stage2_exited")

        _check_invariants(active, stage2_after, e, capacity)
        trace.append(TraceRecord(t_us, label, MODE_NAMES[mode], latch, v_uv, e, ";".join(notes)))
        if kind == _SIM_END:
            break

    residency[mode] += now - mode_since  # close the last residency interval
    if sum(residency) != now:
        raise SimulationError(f"mode residency {sum(residency)} us does not cover the run ({now} us)")
    # Both checks are phrased so that a NaN (an overflowed ledger) fails them.
    for name, slot in slots.items():
        if not consumed[slot] >= -1e-6:
            raise SimulationError(f"component {name!r} accrued negative energy ({consumed[slot]} nJ)")
    consumed_total = sum(consumed)
    # The store's rounding is booked exactly, so the tolerance only covers
    # the ledger sums' own rounding, which scales with the flows.
    balance = e_harvested - consumed_total - e_discarded - (e - e_initial) - e_rounding
    scale = max(1.0, abs(e_harvested), abs(consumed_total), abs(e - e_initial))
    if not abs(balance) <= 1e-6 * scale:
        raise SimulationError(f"energy ledger out of balance by {balance} nJ")

    return Report(
        scenario=scenario,
        duration_us=now,
        e_harvested=Energy(e_harvested),
        e_consumed=tuple((name, Energy(consumed[slot])) for name, slot in slots.items()),
        e_overcharge_discarded=Energy(e_discarded),
        e_store_initial=Energy(e_initial),
        e_store_final=Energy(e),
        final_soc=e / capacity,
        final_voltage=Voltage(round(_store_uv(segments, e, capacity))),
        final_mode=MODE_NAMES[mode],
        mode_residency=tuple((name, Duration(us)) for name, us in zip(MODE_NAMES, residency)),
        cycles=tuple(cycles),
        cycles_completed=cycles_completed,
        anomalies=tuple(anomalies),
        trace=tuple(trace),
    )


def format_trace(report: Report) -> str:
    """The run's event trace in its stable line-per-event form."""
    return "\n".join(rec.line() for rec in report.trace) + "\n"
