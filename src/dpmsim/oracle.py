"""Fixed-timestep reference integrator.

A deliberately plain cross-check for the event-driven engine: march the
whole scenario forward on a uniform grid (1 ms by default), re-deriving
every rule on raw floats and ints without the event queue, the analytic
crossing solver, or the shared interpolation helpers. Agreement between
the two routes is what the validation suite asserts; for that reason
this module must not import from the engine's numerical helpers, and
duplicating small pieces of arithmetic here is intentional.

One guard table, built at set-up, holds each mode's rising and falling
energy guard: the stored energy at which it fires and the mode it leads
to. Mode settling, the loop's due-check and its run-length cap all read
it. DeepSleep's cold start, Shutdown's grace deadline (kept among the
scheduled instants) and depletion of the store stay special cases.

Ticks are applied in runs. Between two slow-path instants the per-tick
increments are constant, so the loop applies the largest run of ticks in
which no check can fire and no increment can clamp (capped by the next
scheduled instant, the run length, and two ticks short of cap, 0 or the
guard the store moves towards) as one multiplied increment. The loop so
iterates per slow-path instant and per tick next to a guard, not per
tick; guards are still tested only at grid instants, and `ticks` still
counts grid steps. A multiplied increment does not accumulate the drift
a per-tick sum picks up over long runs, which on fine grids can put a
crossing many ticks late.

Grid restriction: every externally scheduled time in the scenario
(alarms, touches, light changes, step durations, the grace window, the
run length) must sit on the timestep grid, otherwise the two routes
would disagree for boring reasons.

Grid condition: one tick can overshoot a threshold by |p_drain| * dt,
which the store wins back at p_net. How a Shutdown ends is only
resolved when that overshoot time, |p_drain| * dt / p_net, is well
under the grace window: then Shutdown ends by a crossing, as in the
engine; otherwise the grid lets the grace run out first. Near the
idle breakeven (~733 uW drain against ~48 nW net) it is ~150 ms at a
10 us step, under the 600 ms window, and ~15 s at 1 ms, so the 1 ms
grid drops to deep_sleep where the engine recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quantities import Duration, Energy
from .scenario import Scenario, VariantKind

_DEEP_SLEEP, _WAKE_UP, _NORMAL, _OVERCHARGE, _SHUTDOWN = range(5)
_MODE_NAMES = ("deep_sleep", "wake_up", "normal", "overcharge", "shutdown")
_FAR = 1 << 62
_INF = float("inf")


class OracleError(ValueError):
    """The scenario cannot be integrated faithfully on this grid."""


@dataclass(frozen=True)
class OracleResult:
    timestep_us: int
    ticks: int
    final_e_store: Energy
    final_mode: str
    transitions: tuple[tuple[int, str], ...]
    e_harvested: Energy
    e_consumed: Energy
    e_consumed_by_component: tuple[tuple[str, Energy], ...]
    e_discarded: Energy
    cycles_completed: int

    @property
    def mode_sequence(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.transitions)


def _require_grid(us: int, dt: int, what: str) -> None:
    if us % dt != 0:
        raise OracleError(f"{what} ({us} us) is off the {dt} us integration grid")


class _Oracle:
    """One integration run: its set-up, its run state and its slow paths."""

    def __init__(self, scenario: Scenario, dt: int):
        if dt <= 0:
            raise OracleError("timestep must be positive")
        self.scenario = scenario
        self.dt = dt
        s = scenario

        _require_grid(s.duration.us, dt, "sim.duration")
        _require_grid(s.rtc.first_alarm.us, dt, "rtc.first_alarm")
        _require_grid(s.rtc.alarm_period.us, dt, "rtc.alarm_period")
        _require_grid(s.pmic.grace_window.us, dt, "pmic.grace_window")
        for t in s.touch.press_times:
            _require_grid(t.us, dt, "touch press")
        for t, _ in s.light_timeline:
            _require_grid(t.us, dt, "light change")
        for step in s.load_script:
            _require_grid(step.duration.us, dt, f"load step {step.name}")

        # Storage curve as parallel float arrays; energy is soc * capacity.
        self.cap = s.storage.e_capacity.nj
        self.curve_soc = [p[0] for p in s.storage.ocv_curve]
        self.curve_uv = [float(p[1].uv) for p in s.storage.ocv_curve]
        # Threshold comparisons happen on the supervisor's 1 uV reading
        # grid: a voltage within half a microvolt of a threshold already
        # reads as having reached it.
        self.e_chrdy = self._e_at_uv(float(s.pmic.v_chrdy.uv) - 0.5)
        self.e_ovch = self._e_at_uv(float(s.pmic.v_ovch.uv) - 0.5)
        self.e_ovch_exit = self._e_at_uv(
            float((s.pmic.v_ovch - s.pmic.v_ovch_hysteresis).uv) + 0.5)
        self.cold_v_uv = float(s.pmic.v_cold_start.uv)
        self.cold_p_nw = s.pmic.p_cold_start.nw
        self.grace_us = s.pmic.grace_window.us
        # Per mode: (rise_e, rise_to, fall_e, fall_to). The rising guard
        # fires once e >= rise_e, the falling one once e < fall_e.
        self.guards = (
            (_INF, _DEEP_SLEEP, -_INF, _DEEP_SLEEP),
            (self.e_chrdy, _NORMAL, -_INF, _WAKE_UP),
            (self.e_ovch, _OVERCHARGE, self.e_chrdy, _SHUTDOWN),
            (_INF, _OVERCHARGE, self.e_ovch_exit, _NORMAL),
            (self.e_chrdy, _NORMAL, -_INF, _SHUTDOWN),
        )

        self.calib_lux = [p[0].lux for p in s.harvester.calibration]
        self.calib_nw = [p[1].nw for p in s.harvester.calibration]
        self.v_oc_uv = float(s.harvester.v_open_circuit.uv)

        rail_uv = s.always_on.rail_voltage.uv
        if s.dpm_variant.kind is VariantKind.SOFTWARE_SLEEP:
            self.idle_nw = (rail_uv * s.dpm_variant.i_sleep.na) / 1e6
        else:
            self.idle_nw = (rail_uv * s.always_on.total_current.na) / 1e6

        self.step_durations = [step.duration.us for step in s.load_script]
        self.step_powers = [step.power.nw for step in s.load_script]
        self.step_names = [step.name for step in s.load_script]
        self.n_steps = len(s.load_script)

        self.touches = [t.us for t in s.touch.press_times]
        self.lights = [(t.us, lux.lux) for t, lux in s.light_timeline]
        self.period_us = s.rtc.alarm_period.us
        self.rearm = s.rtc.rearm_on_clear

        # Mutable run state.
        self.e = s.storage.e_store.nj
        self.mode = _DEEP_SLEEP
        self.deadline = _FAR
        self.latch = False
        self.active = False
        self.step_power = 0.0
        self.step_end = _FAR
        self.next_idx = 0
        self.clear_due = False
        self.next_alarm = s.rtc.first_alarm.us
        self.ti = 0
        self.li = 0
        self.h_nw = 0.0
        self.v_harv_uv = 0.0
        self.cycles = 0
        self.harvested = 0.0
        self.consumed = 0.0
        self.discarded = 0.0
        self.powered_ticks = 0
        self.cold_held = False
        self.step_consumed = [0.0] * self.n_steps
        self.cur_idx = -1
        self.step_started = 0
        self.transitions: list[tuple[int, str]] = []
        # Per-tick increments, refreshed whenever the power split changes.
        self.p_net_tick = self.h_tick = self.c_tick = self.disc_tick = 0.0
        self.next_event_t = 0

    # -- independent lookup arithmetic --------------------------------

    def _e_at_uv(self, uv: float) -> float:
        soc_pts, uv_pts = self.curve_soc, self.curve_uv
        if uv <= uv_pts[0]:
            return soc_pts[0] * self.cap
        for i in range(1, len(uv_pts)):
            if uv <= uv_pts[i]:
                lo_v, hi_v = uv_pts[i - 1], uv_pts[i]
                lo_s, hi_s = soc_pts[i - 1], soc_pts[i]
                if hi_v == lo_v:
                    return lo_s * self.cap
                frac = (uv - lo_v) / (hi_v - lo_v)
                return (lo_s + frac * (hi_s - lo_s)) * self.cap
        return soc_pts[-1] * self.cap

    def _harvest_nw(self, lux: float) -> float:
        xs, ys = self.calib_lux, self.calib_nw
        if lux <= 0.0:
            return 0.0
        prev_x, prev_y = 0.0, 0.0
        for x, y in zip(xs, ys):
            if lux <= x:
                if x == prev_x:
                    return y
                return prev_y + (lux - prev_x) / (x - prev_x) * (y - prev_y)
            prev_x, prev_y = x, y
        # Beyond calibration: extend the last segment's slope.
        if len(xs) >= 2:
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        else:
            slope = ys[-1] / xs[-1] if xs[-1] > 0.0 else 0.0
        return max(0.0, ys[-1] + (lux - xs[-1]) * slope)

    # -- slow paths ----------------------------------------------------

    def _set_mode(self, t: int, mode: int) -> None:
        self.mode = mode
        self.transitions.append((t, _MODE_NAMES[mode]))
        self.deadline = t + self.grace_us if mode == _SHUTDOWN else _FAR
        if mode == _DEEP_SLEEP:
            self.latch = False

    def _drain_nw(self) -> float:
        return self.idle_nw + (self.step_power if self.active else 0.0)

    def _settle(self, t: int) -> None:
        """Chase mode transitions to a fixed point at instant t."""
        for _ in range(8):
            m, e = self.mode, self.e
            if m == _DEEP_SLEEP:
                if (not self.cold_held
                        and self.v_harv_uv >= self.cold_v_uv
                        and self.h_nw >= self.cold_p_nw):
                    self._set_mode(t, _WAKE_UP)
                    continue
                return
            rise_e, rise_to, fall_e, fall_to = self.guards[m]
            if e >= rise_e:
                self._set_mode(t, rise_to)
            elif e < fall_e:
                self._set_mode(t, fall_to)
            elif t >= self.deadline:  # Shutdown's grace has run out
                self._set_mode(t, _DEEP_SLEEP)
            elif e <= 0.0 and self.h_nw < self._drain_nw():
                # Too dim to carry the rails yet bright enough for cold
                # start would otherwise re-boot in place forever.
                self.cold_held = True
                self._set_mode(t, _DEEP_SLEEP)
            else:
                return
        raise OracleError("mode settling did not converge")

    def _start_step(self, t: int) -> None:
        if self.next_idx < self.n_steps:
            self.cur_idx = self.next_idx
            self.step_started = t
            self.step_power = self.step_powers[self.next_idx]
            self.step_end = t + self.step_durations[self.next_idx]
            self.active = True
            self.next_idx += 1
        else:
            self.cycles += 1
            self.clear_due = True

    def _charge_step(self, t: int) -> None:
        self.step_consumed[self.cur_idx] += self.step_power * (t - self.step_started) / 1e6

    def _sync_stage2(self, t: int, was_stage2: bool) -> bool:
        now_stage2 = self.latch and self.mode in (_NORMAL, _OVERCHARGE)
        if now_stage2 and not was_stage2:
            self.next_idx = 0
            self._start_step(t)
        elif was_stage2 and not now_stage2 and self.active:
            self._charge_step(t)
            self.active = False
            self.step_end = _FAR
        return now_stage2

    def _resettle(self, t: int) -> None:
        was_stage2 = self.latch and self.mode in (_NORMAL, _OVERCHARGE)
        self._settle(t)
        self._sync_stage2(t, was_stage2)
        self._refresh_ticks()

    def _refresh_ticks(self) -> None:
        dt = self.dt
        if self.mode == _DEEP_SLEEP:
            self.p_net_tick = self.h_tick = self.c_tick = self.disc_tick = 0.0
        else:
            d = self._drain_nw()
            h = self.h_nw
            if self.mode == _OVERCHARGE:
                surplus = h - d
                to_store, disc = min(0.0, surplus), max(0.0, surplus)
            else:
                to_store, disc = h - d, 0.0
            self.p_net_tick = to_store * dt / 1e6
            self.h_tick = h * dt / 1e6
            self.c_tick = d * dt / 1e6
            self.disc_tick = disc * dt / 1e6
        # step_end and deadline sit at _FAR while no step or grace runs.
        pend = min(self.next_alarm, self.step_end, self.deadline)
        if self.ti < len(self.touches):
            pend = min(pend, self.touches[self.ti])
        if self.li < len(self.lights):
            pend = min(pend, self.lights[self.li][0])
        self.next_event_t = pend

    def _run_length(self, t: int, until: int) -> int:
        """The ticks from t, where no check fired, to apply as one run. None
        of them may fire a check or clamp an increment, so the run stops two
        ticks short of the guard e moves towards, and of cap and 0."""
        dt, p_net = self.dt, self.p_net_tick
        k = (min(self.next_event_t, until) - t + dt - 1) // dt
        rise_e, _, fall_e, _ = self.guards[self.mode]
        if p_net > 0.0:
            room = (min(rise_e, self.cap) - self.e) / p_net
        elif p_net < 0.0:
            room = (self.e - max(fall_e, 0.0)) / -p_net
        else:
            room = _INF
        if room - 2.0 < k:
            k = int(room) - 2
        return k if k > 1 else 1

    def _advance(self, t: int, k: int) -> int:
        """Apply k ticks from instant t and return the instant they end at.
        Only a single tick can reach cap or 0, so only it clamps."""
        end = t + k * self.dt
        if self.mode:
            self.powered_ticks += k
            self.e += k * self.p_net_tick
            self.harvested += k * self.h_tick
            self.consumed += k * self.c_tick
            self.discarded += k * self.disc_tick
            if k == 1:
                if self.e >= self.cap:
                    self.discarded += self.e - self.cap
                    self.e = self.cap
                elif self.e <= 0.0:
                    self.consumed += self.e  # undo the part the store could not supply
                    self.e = 0.0
                    if self.p_net_tick < 0.0:
                        self._resettle(end)
        return end

    def _take_lights(self, t: int) -> None:
        while self.li < len(self.lights) and self.lights[self.li][0] == t:
            lux = self.lights[self.li][1]
            self.li += 1
            self.cold_held = False
            self.h_nw = self._harvest_nw(lux)
            self.v_harv_uv = self.v_oc_uv if lux > 0.0 else 0.0

    def _slow(self, t: int) -> None:
        """Process everything due at instant t, in trigger-priority order."""
        stage2 = self.latch and self.mode in (_NORMAL, _OVERCHARGE)
        powered = self.mode != _DEEP_SLEEP

        if t == self.next_alarm:
            if powered:
                self.latch = True
            self.next_alarm = t + self.period_us
        while self.ti < len(self.touches) and self.touches[self.ti] == t:
            if powered:
                self.latch = True
            self.ti += 1
        while self.active and self.step_end == t:
            self._charge_step(t)
            self.active = False
            self.step_end = _FAR
            self._start_step(t)
        self._take_lights(t)
        self._settle(t)
        stage2 = self._sync_stage2(t, stage2)
        if self.clear_due:
            self.clear_due = False
            if stage2:
                self.latch = False
                if self.rearm:
                    self.next_alarm = t + self.period_us
                self._sync_stage2(t, stage2)
        self._refresh_ticks()

    # -- the run's two ends ----------------------------------------------

    def open(self) -> None:
        """Set the opening mode and per-tick increments at t = 0."""
        # The opening mode follows straight from the initial conditions,
        # mirroring the engine: a store that is already charged boots the
        # node regardless of light.
        self._take_lights(0)
        if self.e >= self.e_ovch:
            self.mode = _OVERCHARGE
        elif self.e >= self.e_chrdy:
            self.mode = _NORMAL
        elif self.v_harv_uv >= self.cold_v_uv and self.h_nw >= self.cold_p_nw:
            self.mode = _WAKE_UP
        else:
            self.mode = _DEEP_SLEEP
        self.transitions = [(0, _MODE_NAMES[self.mode])]
        self._refresh_ticks()

    def result(self, ticks: int, powered_ticks: int) -> OracleResult:
        """Close the run at its duration."""
        duration = self.scenario.duration.us
        # Triggers scheduled exactly at the end still fire before the report.
        self._slow(duration)
        if self.active:
            self._charge_step(duration)

        dt = self.dt
        components: dict[str, float] = {"always_on": self.idle_nw * powered_ticks * dt / 1e6}
        for name, nj in zip(self.step_names, self.step_consumed):
            components[name] = components.get(name, 0.0) + nj

        return OracleResult(
            timestep_us=dt,
            ticks=ticks,
            final_e_store=Energy(self.e),
            final_mode=_MODE_NAMES[self.mode],
            transitions=tuple(self.transitions),
            e_harvested=Energy(self.harvested),
            e_consumed=Energy(self.consumed),
            e_consumed_by_component=tuple(
                (name, Energy(nj)) for name, nj in components.items()),
            e_discarded=Energy(self.discarded),
            cycles_completed=self.cycles,
        )


def run_oracle(scenario: Scenario, timestep: Duration = Duration(1000)) -> OracleResult:
    o = _Oracle(scenario, timestep.us)
    o.open()
    duration = scenario.duration.us
    t = 0
    while t < duration:
        rise_e, _, fall_e, _ = o.guards[o.mode]
        if (t == o.next_event_t or o.e >= rise_e or o.e < fall_e
                or (o.e <= 0.0 and o.p_net_tick < 0.0)):
            o._slow(t)
            t = o._advance(t, 1)
        else:
            t = o._advance(t, o._run_length(t, duration))
    return o.result(t // o.dt, o.powered_ticks)


# -- comparison glue ---------------------------------------------------


def engine_mode_sequence(report) -> tuple[str, ...]:
    """Mode names in order of change, as the engine trace recorded them."""
    seq: list[str] = []
    for rec in report.trace:
        if not seq or rec.mode != seq[-1]:
            seq.append(rec.mode)
    return tuple(seq)


@dataclass(frozen=True)
class Agreement:
    sequences_match: bool
    engine_sequence: tuple[str, ...]
    oracle_sequence: tuple[str, ...]
    e_store_rel_error: float
    components_rel_error: float
    cycles_match: bool

    @property
    def ok(self) -> bool:
        return (self.sequences_match
                and self.cycles_match
                and self.e_store_rel_error <= 1e-3
                and self.components_rel_error <= 1e-3)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def compare_with_engine(report, result: OracleResult) -> Agreement:
    eng_seq = engine_mode_sequence(report)
    orc_seq = result.mode_sequence
    eng_comp = {name: e.nj for name, e in report.e_consumed}
    orc_comp = {name: e.nj for name, e in result.e_consumed_by_component}
    worst = 0.0
    for name in eng_comp.keys() | orc_comp.keys():
        worst = max(worst, _rel(eng_comp.get(name, 0.0), orc_comp.get(name, 0.0)))
    return Agreement(
        sequences_match=eng_seq == orc_seq,
        engine_sequence=eng_seq,
        oracle_sequence=orc_seq,
        e_store_rel_error=_rel(report.e_store_final.nj, result.final_e_store.nj),
        components_rel_error=worst,
        cycles_match=report.cycles_completed == result.cycles_completed,
    )
