"""The oracle's per-tick loop, kept as a reference for its run-length one.

`run_oracle_per_tick` steps the grid one tick at a time, testing every
guard at every instant and summing each increment once per tick. It
shares the oracle's set-up, slow paths and result, so a difference
between the two routes can only come from how the ticks between two
slow-path instants are applied. Summed increments drift on long runs
(see `tests/test_oracle_run_length.py`), so it referees the run-length loop on the
1 ms grid, not on finer ones.
"""

from __future__ import annotations

from dpmsim.oracle import (
    _MODE_NAMES,
    _NORMAL,
    _OVERCHARGE,
    _SHUTDOWN,
    _WAKE_UP,
    OracleResult,
    _Oracle,
)
from dpmsim.quantities import Duration
from dpmsim.scenario import Scenario


def run_oracle_per_tick(scenario: Scenario, timestep: Duration = Duration(1000)) -> OracleResult:
    o = _Oracle(scenario, timestep.us)
    o.open()

    dt = o.dt
    duration = o.scenario.duration.us
    t = 0
    e = o.e
    mode = o.mode
    cap = o.cap
    e_chrdy, e_ovch, e_exit = o.e_chrdy, o.e_ovch, o.e_ovch_exit
    deadline = o.deadline
    p_net, h_tick, c_tick, disc_tick = o.p_net_tick, o.h_tick, o.c_tick, o.disc_tick
    next_event = o.next_event_t
    harvested = consumed = discarded = 0.0
    ticks = 0
    powered_ticks = 0

    while t < duration:
        hit = False
        if t == next_event:
            hit = True
        elif e <= 0.0 and p_net < 0.0:
            hit = True
        elif mode == _NORMAL:
            hit = e >= e_ovch or e < e_chrdy
        elif mode == _WAKE_UP:
            hit = e >= e_chrdy
        elif mode == _OVERCHARGE:
            hit = e < e_exit
        elif mode == _SHUTDOWN:
            hit = e >= e_chrdy or t >= deadline
        if hit:
            o.e = e
            o.harvested = harvested
            o.consumed = consumed
            o.discarded = discarded
            o._slow(t)
            e, mode, deadline = o.e, o.mode, o.deadline
            p_net, h_tick, c_tick, disc_tick = o.p_net_tick, o.h_tick, o.c_tick, o.disc_tick
            next_event = o.next_event_t
            harvested, consumed, discarded = o.harvested, o.consumed, o.discarded

        if mode:
            powered_ticks += 1
            e += p_net
            harvested += h_tick
            consumed += c_tick
            discarded += disc_tick
            if e >= cap:
                discarded += e - cap
                e = cap
            elif e <= 0.0:
                consumed += e  # undo the part the store could not supply
                e = 0.0
                if p_net < 0.0:
                    o.e = e
                    o.harvested = harvested
                    o.consumed = consumed
                    o.discarded = discarded
                    o._resettle(t + dt)
                    mode, deadline = o.mode, o.deadline
                    p_net, h_tick, c_tick, disc_tick = (
                        o.p_net_tick, o.h_tick, o.c_tick, o.disc_tick)
                    next_event = o.next_event_t
        t += dt
        ticks += 1

    o.e = e
    o.harvested = harvested
    o.consumed = consumed
    o.discarded = discarded
    return o.result(ticks, powered_ticks)
