"""Deterministic discrete-event simulation engine.

Between events every power flow is constant, so stored energy is a
straight line and the engine integrates it in closed form; threshold
crossings are solved analytically and queued as events instead of being
hunted with fixed time steps. Replaying a scenario therefore produces
byte-identical traces and reports.

Event ordering is total: (time, kind priority, insertion sequence).
Kind priority follows the order of _KIND_LABEL below, so
simultaneous triggers resolve the same way on every run (an RTC alarm
processed before a touch press at the same microsecond leaves the touch
as the winning wake source, matching latest-trigger-wins).

Exactly one threshold-crossing event is outstanding at any moment; it
is recomputed from scratch after every dispatch because any dispatch
may change the net power. A generation counter invalidates superseded
crossings still sitting in the heap.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

from .energy import (
    _integrate,
    _soc_at_uv,
    _store_uv,
    always_on_power,
    harvest_power,
    harvest_voltage,
    power_of,
)
from .pmic import Mode, PmicMode, stage2, step_mode
from .quantities import Duration, Energy, Illuminance, Power, TimePoint, Voltage
from .scenario import Scenario, VariantKind
from .wake import LatchState, WakeSource, on_rtc_alarm, on_touch

ALWAYS_ON_COMPONENT = "always_on"

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


class CrossKind(enum.Enum):
    CHRDY_UP = "chrdy_up"
    CHRDY_DOWN = "chrdy_down"
    OVCH_UP = "ovch_up"
    OVCH_DOWN = "ovch_down"
    COLD_START = "cold_start"
    DEPLETED = "depleted"

    def __init__(self, value: str) -> None:
        self.label = f"threshold_cross:{value}"


# Enum member lookups go through the enum metaclass; the per-event paths
# compare against these module-level names instead.
_CHRDY_UP, _CHRDY_DOWN, _OVCH_UP, _OVCH_DOWN, _COLD_START, _DEPLETED = CrossKind
_DEEP_SLEEP, _WAKE_UP, _NORMAL, _OVERCHARGE, _SHUTDOWN = Mode
_NO_SOURCE = WakeSource.NONE


@dataclass(frozen=True)
class TraceRecord:
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
    index: int
    start_us: int
    consumed_nj: float
    harvested_nj: float
    net_nj: float
    end_soc: float


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


class _State:
    """Mutable state of one run, in plain numbers; engine-internal."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        storage = scenario.storage
        cfg = scenario.pmic
        self.now = 0
        self.mode = PmicMode.deep_sleep()
        self.mode_since = 0
        self.latch = LatchState.cleared()
        self.ocv_segments = storage.ocv_segments
        self.e_capacity_nj = storage.e_capacity.nj
        self.e_store_nj = storage.e_store.nj
        self.v_empty_uv = storage.v_empty.uv
        self.v_full_uv = storage.v_full.uv
        self.v_chrdy_uv = cfg.v_chrdy.uv
        self.v_ovch_uv = cfg.v_ovch.uv
        self.v_ovch_exit_uv = (cfg.v_ovch - cfg.v_ovch_hysteresis).uv
        self.p_harvest_nw = 0.0
        self.v_harvest_uv = 0
        self.idle_nw = idle_power(scenario).nw
        self.steps = tuple(_Step(step.name, step.power.nw, step.duration.us) for step in scenario.load_script)
        # The running step, if any, is always generation step_gen.
        self.active_step: _Step | None = None
        self.next_step_index = 0
        self.step_gen = 0
        self.threshold_gen = 0
        self.alarm_gen = 0
        # A depleted store under light too weak to carry the always-on
        # rail would re-boot and brown out forever within one instant;
        # hold cold start off until the light actually changes.
        self.cold_start_held = False
        # Heap entries: (time_us, kind, seq, gen, payload).
        self.queue: list[tuple] = []
        self.seq = 0
        self.events_dispatched = 0
        # Ledger.
        self.e_harvested_nj = 0.0
        self.consumed_nj: dict[str, float] = {ALWAYS_ON_COMPONENT: 0.0}
        for step in scenario.load_script:
            self.consumed_nj[step.name] = 0.0
        self.e_discarded_nj = 0.0
        self.time_in_mode = {mode: 0 for mode in Mode}
        self.cycles_completed = 0
        self.anomalies: list[Anomaly] = []
        self.trace: list[TraceRecord] = []
        # Per-cycle accumulation.
        self.cycles: list[CycleRow] = []
        self.cycle_start_us = 0
        self.cycle_harvested_nj = 0.0
        self.cycle_consumed_nj = 0.0

    def push(self, t_us: int, kind: int, gen: int = 0, payload=None) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (t_us, kind, self.seq, gen, payload))

    def v_store_float(self, e_nj: float) -> float:
        return _store_uv(self.ocv_segments, e_nj, self.e_capacity_nj)

    def v_store_uv(self) -> int:
        return round(_store_uv(self.ocv_segments, self.e_store_nj, self.e_capacity_nj))

    def set_mode(self, mode: PmicMode) -> None:
        """Enter a mode, closing the residency interval of the one it leaves."""
        self.time_in_mode[self.mode.mode] += self.now - self.mode_since
        self.mode_since = self.now
        self.mode = mode

    def net_nw(self) -> float:
        """Rate into the store in nW for the current state."""
        mode = self.mode.mode
        if mode is _DEEP_SLEEP:
            return 0.0
        drain = self.idle_nw
        if self.active_step is not None:
            drain += self.active_step.power_nw
        if mode is _OVERCHARGE:
            # Charging is held off: harvest feeds the load first and the
            # surplus is rejected; the store only discharges.
            return min(0.0, self.p_harvest_nw - drain)
        return self.p_harvest_nw - drain

    def record_anomaly(self, code: str, detail: str) -> None:
        self.anomalies.append(Anomaly(self.now, code, detail))


# -- integration -----------------------------------------------------


def _advance_to(state: _State, t_us: int) -> None:
    """Integrate all constant power flows from state.now to t_us."""
    if t_us < state.now:
        raise SimulationError(f"time must not run backwards ({state.now} -> {t_us})")
    dt_us = t_us - state.now
    if dt_us == 0:
        return
    to_store_nw = state.net_nw()
    if state.mode.mode is not _DEEP_SLEEP:
        harvest_nw = state.p_harvest_nw
        harvest_e = harvest_nw * dt_us / 1e6
        state.e_harvested_nj += harvest_e
        state.cycle_harvested_nj += harvest_e
        drain_nw = state.idle_nw
        idle_e = drain_nw * dt_us / 1e6
        state.consumed_nj[ALWAYS_ON_COMPONENT] += idle_e
        state.cycle_consumed_nj += idle_e
        step = state.active_step
        if step is not None:
            drain_nw += step.power_nw
            step_e = step.power_nw * dt_us / 1e6
            state.consumed_nj[step.name] += step_e
            state.cycle_consumed_nj += step_e
        if state.mode.mode is _OVERCHARGE:
            state.e_discarded_nj += max(0.0, harvest_nw - drain_nw) * dt_us / 1e6

    state.e_store_nj, clipped_high, clipped_low = _integrate(
        state.e_store_nj, state.e_capacity_nj, to_store_nw, dt_us
    )
    if clipped_high > 0.0:
        # Physical ceiling; rejected exactly like an overcharge clamp.
        state.e_discarded_nj += clipped_high
    if clipped_low > 0.0:
        # Only float dust can land here (the depletion crossing fires at
        # zero); undo the overstated drain so the ledger stays balanced.
        state.consumed_nj[ALWAYS_ON_COMPONENT] -= clipped_low
        state.cycle_consumed_nj -= clipped_low
    state.now = t_us


# -- threshold crossing prediction ------------------------------------


def _predicate(state: _State, e_nj: float, cross: CrossKind, target_uv: int) -> bool:
    """Would the guard for this crossing hold at stored energy e_nj?"""
    if cross is _DEPLETED:
        return e_nj <= 0.0
    v = round(state.v_store_float(e_nj))
    if cross is _CHRDY_UP or cross is _OVCH_UP:
        return v >= target_uv
    if cross is _CHRDY_DOWN:
        return v < target_uv
    if cross is _OVCH_DOWN:
        return v <= target_uv
    raise SimulationError(f"no predicate for {cross}")


def find_threshold_crossing(state: _State, cross: CrossKind, target_uv: int) -> int | None:
    """Earliest microsecond at which the crossing guard becomes true.

    Returns None when the net power points away from the target. The
    result aims at most half a microvolt past the threshold so the
    integer-grid comparison at dispatch lands on the right side; the
    dispatched event therefore always sees v_store within 1 uV of its
    target.
    """
    if cross is not _DEPLETED and not state.v_empty_uv <= target_uv <= state.v_full_uv:
        raise ValueError(
            f"crossing target {target_uv} uV is outside the storage voltage range"
        )
    p_nw = state.net_nw()
    e0 = state.e_store_nj
    now = state.now

    if _predicate(state, e0, cross, target_uv):
        return now

    if cross is _DEPLETED:
        if p_nw >= 0.0:
            return None
        e_aim = 0.0
    else:
        rising = cross is _CHRDY_UP or cross is _OVCH_UP
        if rising and p_nw <= 0.0:
            return None
        if not rising and p_nw >= 0.0:
            return None
        if cross is _CHRDY_DOWN:
            # The guard is a strict comparison on the 1 uV grid.
            v_aim = target_uv - 0.5 - 1e-6
        elif cross is _OVCH_DOWN:
            v_aim = target_uv - 1e-6
        else:
            v_aim = float(target_uv)
        v_aim = min(float(state.v_full_uv), max(float(state.v_empty_uv), v_aim))
        e_aim = _soc_at_uv(state.ocv_segments, v_aim) * state.e_capacity_nj

    t = now + math.ceil((e_aim - e0) / p_nw * 1e6)
    if t <= now:
        t = now + 1
    # Float dust can leave the aim point a hair short of the guard; walk
    # forward microsecond by microsecond (strictly bounded in practice).
    for _ in range(1000):
        e_t = e0 + p_nw * (t - now) / 1e6
        if _predicate(state, e_t, cross, target_uv):
            return t
        t += 1
    # Power so small the guard is still dust-distance away; dispatching
    # early is harmless because the dispatch re-solves from fresh state.
    return t


def _candidate_crossing(state: _State) -> tuple[CrossKind, int] | None:
    """The one crossing that can end the current mode, given p_net's sign."""
    p_nw = state.net_nw()
    mode = state.mode.mode
    if mode is _NORMAL:
        if p_nw > 0.0:
            return _OVCH_UP, state.v_ovch_uv
        if p_nw < 0.0:
            return _CHRDY_DOWN, state.v_chrdy_uv
        return None
    if mode is _WAKE_UP or mode is _SHUTDOWN:
        if p_nw > 0.0:
            return _CHRDY_UP, state.v_chrdy_uv
        if p_nw < 0.0:
            return _DEPLETED, 0
        return None
    if mode is _OVERCHARGE:
        if p_nw < 0.0:
            return _OVCH_DOWN, state.v_ovch_exit_uv
        return None
    if mode is _DEEP_SLEEP:
        return None
    raise SimulationError(f"unhandled mode {mode}")


def _reschedule_threshold(state: _State) -> None:
    """Keep exactly one live threshold-crossing event outstanding."""
    state.threshold_gen += 1
    if state.mode.mode is _DEEP_SLEEP:
        # Cold start is driven by the harvester, not the store; it can
        # only become true at a dispatch, so test it right here.
        cfg = state.scenario.pmic
        cold = (
            not state.cold_start_held
            and state.v_harvest_uv >= cfg.v_cold_start.uv
            and state.p_harvest_nw >= cfg.p_cold_start.nw
        )
        if cold:
            state.push(state.now, _THRESHOLD_CROSS, state.threshold_gen, (_COLD_START, 0))
        return
    candidate = _candidate_crossing(state)
    if candidate is None:
        return
    t = find_threshold_crossing(state, *candidate)
    if t is None:
        return
    if state.queue and t > state.queue[0][0]:
        # p_net cannot change before the next event; recompute then.
        return
    state.push(t, _THRESHOLD_CROSS, state.threshold_gen, candidate)


# -- dispatch ----------------------------------------------------------


def _start_next_step(state: _State) -> None:
    if state.next_step_index >= len(state.steps):
        # Work complete: firmware clears the latch to drop back to Stage1.
        state.cycles_completed += 1
        state.push(state.now, _MCU_CLEAR_LATCH)
        return
    step = state.steps[state.next_step_index]
    state.step_gen += 1
    state.active_step = step
    state.next_step_index += 1
    state.push(state.now + step.duration_us, _LOAD_STEP_COMPLETE, state.step_gen)


def _abort_step(state: _State, why: str) -> None:
    if state.active_step is None:
        return
    state.record_anomaly(
        "load_step_aborted",
        f"{state.active_step.name} lost power {why}; pro-rata energy already charged",
    )
    state.active_step = None
    state.step_gen += 1


def _flush_cycle(state: _State) -> None:
    if state.now == state.cycle_start_us and state.cycle_harvested_nj == 0.0 and state.cycle_consumed_nj == 0.0:
        return
    state.cycles.append(
        CycleRow(
            index=len(state.cycles),
            start_us=state.cycle_start_us,
            consumed_nj=state.cycle_consumed_nj,
            harvested_nj=state.cycle_harvested_nj,
            net_nj=state.cycle_harvested_nj - state.cycle_consumed_nj,
            end_soc=state.e_store_nj / state.e_capacity_nj,
        )
    )
    state.cycle_start_us = state.now
    state.cycle_harvested_nj = 0.0
    state.cycle_consumed_nj = 0.0


def _set_lux(state: _State, lux: Illuminance) -> None:
    state.p_harvest_nw = harvest_power(state.scenario.harvester, lux).nw
    state.v_harvest_uv = harvest_voltage(state.scenario.harvester, lux).uv


def _check_invariants(state: _State) -> None:
    latch = state.latch
    # Steps start and stop on Stage2 edges; one left running means an
    # edge was missed.
    if state.active_step is not None and not stage2(state.mode.mode, latch.set):
        raise SimulationError(f"load step {state.active_step.name!r} running without Stage2 power")
    e = state.e_store_nj
    if not 0.0 <= e <= state.e_capacity_nj:
        raise SimulationError(f"stored energy {e} nJ outside [0, capacity]")
    if not latch.set and latch.wake_source is not _NO_SOURCE:
        raise SimulationError("cleared latch carries a wake source")


def _dispatch(state: _State, t_us: int, kind: int, gen: int, payload) -> bool:
    """Apply one event. Returns False when the event is stale."""
    if kind == _THRESHOLD_CROSS:
        if gen != state.threshold_gen:
            return False
    elif kind == _LOAD_STEP_COMPLETE:
        if state.active_step is None or gen != state.step_gen:
            return False
    elif kind == _SHUTDOWN_GRACE_EXPIRE:
        if state.mode.mode is not _SHUTDOWN or state.mode.grace_deadline.us != t_us:
            return False
    elif kind == _RTC_ALARM:
        if gen != state.alarm_gen:
            return False

    # Stored energy only moves between dispatches.
    v_uv = state.v_store_uv()
    note_parts: list[str] = []
    label = _KIND_LABEL[kind]
    cross = None
    if kind == _THRESHOLD_CROSS:
        cross, target_uv = payload
        label = cross.label
        if cross is not _COLD_START and cross is not _DEPLETED and abs(v_uv - target_uv) > 1:
            # Freshness contract: a live crossing lands on its target.
            raise SimulationError(
                f"threshold crossing dispatched {abs(v_uv - target_uv)} uV off target"
            )

    mode = state.mode.mode
    powered = mode is not _DEEP_SLEEP
    stage2_before = stage2(mode, state.latch.set)

    if kind == _RTC_ALARM:
        _flush_cycle(state)
        rtc = state.scenario.rtc
        if powered:
            state.latch, next_alarm = on_rtc_alarm(state.latch, TimePoint(t_us), rtc)
            note_parts.append("latch_set=rtc")
            if mode is _SHUTDOWN:
                note_parts.append("compute_rail_unpowered_until_recovery")
            elif mode is _WAKE_UP:
                note_parts.append("compute_rail_unpowered_until_charged")
            state.push(next_alarm.us, _RTC_ALARM, state.alarm_gen)
        else:
            note_parts.append("ignored_unpowered")
            state.push(t_us + rtc.alarm_period.us, _RTC_ALARM, state.alarm_gen)

    elif kind == _TOUCH_PRESS:
        if powered:
            state.latch = on_touch(state.latch, TimePoint(t_us))
            note_parts.append("latch_set=touch")
        else:
            note_parts.append("ignored_unpowered")

    elif kind == _LOAD_STEP_COMPLETE:
        note_parts.append(f"step_done={state.active_step.name}")
        state.active_step = None
        _start_next_step(state)

    elif kind == _LIGHT_CHANGE:
        _set_lux(state, payload)
        state.cold_start_held = False
        note_parts.append(f"lux={payload.lux!r}")

    elif kind == _MCU_CLEAR_LATCH:
        if not stage2_before:
            # The compute domain lost power in the same microsecond the
            # clear was issued; the latch keeps its state.
            state.record_anomaly("clear_skipped_unpowered", "latch clear arrived without Stage2 power")
            note_parts.append("clear_skipped_unpowered")
        else:
            state.latch = LatchState.cleared(TimePoint(t_us))
            note_parts.append("latch_cleared")
            rtc = state.scenario.rtc
            if rtc.rearm_on_clear:
                state.alarm_gen += 1
                state.push(t_us + rtc.alarm_period.us, _RTC_ALARM, state.alarm_gen)
                note_parts.append("alarm_rearmed")

    elif kind == _SIM_END:
        _flush_cycle(state)

    # One mode-machine step per dispatch; cascades arrive as immediate
    # threshold-crossing events scheduled by the recompute below. The
    # grace expiry itself is resolved here too.
    if cross is _DEPLETED:
        if mode is not _DEEP_SLEEP:
            state.record_anomaly("storage_depleted", f"store empty in {mode.value}; forced deep sleep")
            state.set_mode(PmicMode.deep_sleep())
            state.cold_start_held = True
            note_parts.append("forced_deep_sleep;cold_start_held_until_light_change")
    elif mode is _DEEP_SLEEP and state.cold_start_held:
        # Deep sleep's only exit is cold start; while that is held off the
        # step is an identity, and taking it would re-boot into the same
        # brown-out the hold exists to break.
        pass
    else:
        new_mode = step_mode(
            state.mode, state.scenario.pmic, v_uv, state.v_harvest_uv, state.p_harvest_nw, state.now
        )
        if new_mode is not state.mode:
            note_parts.append(f"mode={new_mode.mode.value}")
            if new_mode.mode is _SHUTDOWN:
                state.push(new_mode.grace_deadline.us, _SHUTDOWN_GRACE_EXPIRE)
            state.set_mode(new_mode)

    # Power loss wipes the latch: the latch logic lives on the rail that
    # just went down.
    if state.mode.mode is _DEEP_SLEEP and state.latch.set:
        state.latch = LatchState.cleared(TimePoint(state.now))
        note_parts.append("latch_lost_power")

    stage2_after = stage2(state.mode.mode, state.latch.set)
    if stage2_after and not stage2_before:
        state.next_step_index = 0
        _start_next_step(state)
        note_parts.append("stage2_entered")
    elif stage2_before and not stage2_after:
        _abort_step(state, f"(mode {state.mode.mode.value})" if state.latch.set else "(latch cleared)")
        note_parts.append("stage2_exited")

    _reschedule_threshold(state)
    _check_invariants(state)

    state.trace.append(
        TraceRecord(t_us, label, state.mode.mode.value, state.latch.set, v_uv, state.e_store_nj, ";".join(note_parts))
    )
    return True


# -- top level ---------------------------------------------------------


def _settle_initial_mode(state: _State) -> None:
    """Derive the mode the node is actually in at t=0.

    The run opens on a node that has been sitting under the first light
    sample with its opening store charge, so the supervisor is already
    past its transients: a store at or above the charge-ready threshold
    means the system booted long ago (cold start is only the from-empty
    path), a lit harvester with an empty store means it is mid cold
    start, and otherwise it is dark and dead. Deriving this up front
    also keeps a wake trigger scheduled exactly at t=0 from outranking
    the t=0 light sample and landing unpowered.
    """
    cfg = state.scenario.pmic
    v_uv = state.v_store_uv()
    if v_uv >= state.v_ovch_uv:
        state.mode = PmicMode.overcharge()
    elif v_uv >= state.v_chrdy_uv:
        state.mode = PmicMode.normal()
    elif state.v_harvest_uv >= cfg.v_cold_start.uv and state.p_harvest_nw >= cfg.p_cold_start.nw:
        state.mode = PmicMode.wake_up()
    else:
        state.mode = PmicMode.deep_sleep()


def run(scenario: Scenario) -> Report:
    """Simulate a scenario to completion and return its report."""
    state = _State(scenario)
    _set_lux(state, scenario.light_timeline[0][1])
    _settle_initial_mode(state)
    state.trace.append(TraceRecord(0, "init", state.mode.mode.value, state.latch.set, state.v_store_uv(),
                                   state.e_store_nj, "settled_from_initial_conditions"))
    # The first timeline entry is already in force before settling; only
    # actual changes become events.
    for t, lux in scenario.light_timeline[1:]:
        state.push(t.us, _LIGHT_CHANGE, 0, lux)
    for t in scenario.touch.press_times:
        state.push(t.us, _TOUCH_PRESS)
    state.push(scenario.rtc.first_alarm.us, _RTC_ALARM, state.alarm_gen)
    end_us = scenario.duration.us
    state.push(end_us, _SIM_END)
    # The opening mode needs its exit crossing on the queue; dispatches
    # keep it current from here on.
    _reschedule_threshold(state)

    queue = state.queue
    pop = heapq.heappop
    while True:
        t_us, kind, _, gen, payload = pop(queue)
        if t_us > end_us:
            raise SimulationError("event queue ran past the end of the run")
        _advance_to(state, t_us)
        state.events_dispatched += 1
        if state.events_dispatched > _MAX_EVENTS:
            raise SimulationError("event budget exhausted; scenario is livelocked")
        _dispatch(state, t_us, kind, gen, payload)
        if kind == _SIM_END:
            break

    return _finalize(state)


def _finalize(state: _State) -> Report:
    scenario = state.scenario
    state.set_mode(state.mode)  # close the last residency interval
    residency_us = sum(state.time_in_mode.values())
    if residency_us != state.now:
        raise SimulationError(f"mode residency {residency_us} us does not cover the run ({state.now} us)")

    e_initial = scenario.storage.e_store.nj
    e_final = state.e_store_nj
    for name, nj in state.consumed_nj.items():
        if nj < -1e-6:
            raise SimulationError(f"component {name!r} accrued negative energy ({nj} nJ)")
    consumed_total = sum(state.consumed_nj.values())
    balance = state.e_harvested_nj - consumed_total - state.e_discarded_nj - (e_final - e_initial)
    scale = max(1.0, abs(state.e_harvested_nj), abs(consumed_total), abs(e_final - e_initial))
    if abs(balance) > 1e-6 * scale:
        raise SimulationError(f"energy ledger out of balance by {balance} nJ")

    consumed = tuple((name, Energy(nj)) for name, nj in state.consumed_nj.items())
    return Report(
        scenario=scenario,
        duration_us=state.now,
        e_harvested=Energy(state.e_harvested_nj),
        e_consumed=consumed,
        e_overcharge_discarded=Energy(state.e_discarded_nj),
        e_store_initial=Energy(e_initial),
        e_store_final=Energy(e_final),
        final_soc=e_final / state.e_capacity_nj,
        final_voltage=Voltage(state.v_store_uv()),
        final_mode=state.mode.mode.value,
        mode_residency=tuple((mode.value, Duration(us)) for mode, us in state.time_in_mode.items()),
        cycles=tuple(state.cycles),
        cycles_completed=state.cycles_completed,
        anomalies=tuple(state.anomalies),
        trace=tuple(state.trace),
    )


def format_trace(report: Report) -> str:
    """The run's event trace in its stable line-per-event form."""
    return "\n".join(rec.line() for rec in report.trace) + "\n"
