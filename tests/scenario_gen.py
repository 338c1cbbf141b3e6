"""Randomized scenario builder for cross-validation and property tests.

Every generated time sits on the 1 ms grid so the fixed-step reference
integrator can replay the scenario faithfully. Three scenario classes
keep the runs physically meaningful without steering the outcome:

* "steady"  - store mid-band with margin for the whole run's drift, so
  the mode never changes and the event machinery does all the work.
* "clamp"   - store near full under bright light, exercising the
  overcharge mode and the discard accounting.
* "decay"   - store a controlled number of wake cycles above the
  charge-ready threshold in the dark, so the run walks Normal ->
  Shutdown -> DeepSleep and stays there.

The one regime deliberately excluded is a store hovering exactly on a
threshold while the script drains faster than the harvest refills: both
integrators turn into relaxation oscillators whose cycle counts diverge
on any finite grid, so no finite tolerance makes that comparison
meaningful.
"""

from __future__ import annotations

import random
from dataclasses import replace

from dpmsim.energy import (
    AlwaysOnBudget,
    HarvesterModel,
    LoadStep,
    StorageElement,
    always_on_power,
    harvest_power,
)
from dpmsim.pmic import PmicConfig
from dpmsim.quantities import (
    Current,
    Duration,
    Energy,
    Illuminance,
    Power,
    TimePoint,
    Voltage,
)
from dpmsim.scenario import DpmVariant, Scenario, VariantKind
from dpmsim.wake import RtcConfig, TouchScript

CLASSES = ("steady", "clamp", "decay")


# The engine never inverts the OCV curve: it finds each guard's onset by
# bisecting the forward curve. The generator and the tests invert it to
# place a store on a threshold.


def soc_at_uv(segments: tuple[tuple[float, int, float, int], ...], uv: float) -> float:
    """Inverse of the OCV curve at a voltage that may be fractional.
    Saturates at soc 1 past the top."""
    # First matching segment wins; a flat segment maps to its left knee.
    for s0, v0, s1, v1 in segments:
        if uv <= v1:
            if v1 == v0:
                return s0
            return s0 + (s1 - s0) * (uv - v0) / (v1 - v0)
    return segments[-1][2]


def soc_at_voltage(storage: StorageElement, v: Voltage) -> float:
    """Inverse of the OCV curve; errors outside the curve's range."""
    if not storage.v_empty.uv <= v.uv <= storage.v_full.uv:
        raise ValueError(
            f"voltage {v.uv} uV outside OCV range [{storage.v_empty.uv}, {storage.v_full.uv}] uV"
        )
    return soc_at_uv(storage.ocv_segments, v.uv)


_STEP_NAMES = ("sense", "crunch", "radio", "log", "settle")


def _ms(rng: random.Random, lo_ms: int, hi_ms: int) -> Duration:
    return Duration(rng.randrange(lo_ms, hi_ms + 1) * 1000)


def _script(rng: random.Random) -> tuple[LoadStep, ...]:
    steps = []
    for i in range(rng.randint(1, 4)):
        dur = _ms(rng, 150, 1500)
        power_nw = rng.uniform(5e4, 6e5)
        steps.append(
            LoadStep(
                name=f"{_STEP_NAMES[i]}_{i}",
                duration=dur,
                energy=Energy(round(power_nw * dur.us / 1e6, 6)),
            )
        )
        # Steps once drew a supply rail here; the draw stays so that
        # every seed keeps its scenario.
        rng.choice(("lv", "hv"))
    return tuple(steps)


def _curve(rng: random.Random) -> tuple[tuple[float, Voltage], ...]:
    v0 = rng.randrange(2800, 3100)
    v1 = rng.randrange(3500, 3700)
    v2 = rng.randrange(4100, 4300)
    knee = round(rng.uniform(0.08, 0.15), 3)
    return (
        (0.0, Voltage.from_millivolts(v0)),
        (knee, Voltage.from_millivolts(v1)),
        (1.0, Voltage.from_millivolts(v2)),
    )


def _calibration(rng: random.Random) -> tuple[tuple[Illuminance, Power], ...]:
    lux1 = round(rng.uniform(150.0, 250.0), 2)
    p1 = round(rng.uniform(3e4, 6e4), 3)
    lux2 = round(rng.uniform(450.0, 600.0), 2)
    p2 = round(p1 * rng.uniform(2.2, 3.0), 3)
    return (
        (Illuminance(lux1), Power(p1)),
        (Illuminance(lux2), Power(p2)),
    )


def _bright_timeline(
    rng: random.Random, duration: Duration, dark_tail: bool
) -> tuple[tuple[TimePoint, Illuminance], ...]:
    entries = [(TimePoint.zero(), Illuminance(round(rng.uniform(80.0, 900.0), 2)))]
    times = sorted(
        rng.sample(range(1, duration.us // 1000), k=rng.randint(0, 3))
    )
    for t_ms in times:
        entries.append(
            (TimePoint(t_ms * 1000), Illuminance(round(rng.uniform(80.0, 900.0), 2)))
        )
    if dark_tail:
        tail = TimePoint(duration.us - duration.us // 4 // 1000 * 1000)
        if all(t.us < tail.us for t, _ in entries):
            entries.append((tail, Illuminance(0.0)))
    return tuple(entries)


def random_scenario(seed: int, klass: str | None = None) -> Scenario:
    rng = random.Random(seed)
    klass = klass or rng.choice(CLASSES)
    assert klass in CLASSES

    curve = _curve(rng)
    v_empty, v_knee = curve[0][1], curve[1][1]
    v_full = curve[2][1]
    v_chrdy = Voltage.from_millivolts(rng.randrange(v_knee.uv // 1000 - 240, v_knee.uv // 1000 - 120))
    v_ovch = Voltage.from_millivolts(rng.randrange(3900, v_full.uv // 1000 - 80))
    pmic = PmicConfig(
        v_cold_start=Voltage.from_millivolts(rng.randrange(200, 400)),
        p_cold_start=Power(float(rng.randrange(1500, 3000))),
        v_chrdy=v_chrdy,
        v_ovch=v_ovch,
        v_ovch_hysteresis=Voltage.from_millivolts(rng.randrange(30, 80)),
        grace_window=_ms(rng, 400, 900),
    )

    always_on = AlwaysOnBudget(
        i_pmic=Current(rng.randrange(100, 400)),
        i_rtc=Current(rng.randrange(20, 80)),
        i_touch=Current(rng.randrange(30, 90)),
        i_extra_leakage=Current(rng.randrange(50, 250)),
        rail_voltage=Voltage.from_volts(2.2),
    )
    if rng.random() < 0.4:
        variant = DpmVariant(
            VariantKind.SOFTWARE_SLEEP, i_sleep=Current(rng.randrange(2000, 5000))
        )
        idle_nw = (always_on.rail_voltage.uv * variant.i_sleep.na) / 1e6
    else:
        variant = DpmVariant(VariantKind.HARDWARE_GATED)
        idle_nw = always_on_power(always_on).nw

    script = _script(rng)
    script_e = sum(step.energy.nj for step in script)
    script_us = sum(step.duration.us for step in script)
    harvester = HarvesterModel(calibration=_calibration(rng))
    capacity_mah = round(rng.uniform(2.0, 15.0), 3)

    if klass == "decay":
        duration = _ms(rng, 1_200_000, 5_400_000)
        period = _ms(
            rng, max(30_000, script_us // 500), duration.us // 1000 // 14
        )
        cycle_drain = idle_nw * period.us / 1e6 + script_e
        rate_nw = idle_nw + script_e / (period.us / 1e6)
        margin = rng.uniform(0.55, 0.8) * rate_nw * duration.us / 1e6
        if margin < 8 * cycle_drain:
            margin = 8.5 * cycle_drain
        slope1 = harvester.calibration[0][1].nw / harvester.calibration[0][0].lux
        # The dim phase must neither allow cold start nor let the idle
        # drain go net-positive: a store recovering mid-Shutdown flaps
        # between modes faster than any fixed grid can track.
        dim_cap = min(0.6 * pmic.p_cold_start.nw, 0.8 * idle_nw) / slope1
        dim = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.0, dim_cap), 3)
        timeline: tuple[tuple[TimePoint, Illuminance], ...] = (
            (TimePoint.zero(), Illuminance(dim)),
        )
    else:
        duration = _ms(rng, 1_200_000, 7_200_000)
        period = _ms(rng, max(30_000, script_us // 500), 600_000)
        margin = 0.0
        timeline = _bright_timeline(rng, duration, dark_tail=(klass == "clamp" and rng.random() < 0.5))

    # Anchor the state of charge for the class, then rebuild the store.
    probe = StorageElement(capacity_mah, Voltage.from_volts(3.7), 0.5, curve)
    cap = probe.e_capacity.nj
    e_chrdy = soc_at_uv(probe.ocv_segments, v_chrdy.uv) * cap
    e_ovch = soc_at_uv(probe.ocv_segments, v_ovch.uv) * cap
    if klass == "steady":
        worst_down = (
            idle_nw * duration.us / 1e6
            + (duration.us // period.us + 2) * script_e
        )
        max_h = max(
            harvest_power(harvester, Illuminance(lux.lux)).nw for _, lux in timeline
        )
        worst_up = max_h * duration.us / 1e6
        lo = e_chrdy + 1.2 * worst_down + 1e5
        hi = e_ovch - 1.2 * worst_up - 1e5
        assert lo < hi, "steady band impossible; loosen generator bounds"
        soc = (lo + rng.random() * (hi - lo)) / cap
    elif klass == "clamp":
        soc = rng.uniform(max(0.97, e_ovch / cap + 0.005), 0.999)
    else:
        soc = (e_chrdy + margin) / cap
    storage = StorageElement(capacity_mah, Voltage.from_volts(3.7), round(soc, 9), curve)

    n_touch = rng.randint(0, 3)
    press_ms = sorted(rng.sample(range(1, duration.us // 1000), k=n_touch))
    touch = TouchScript(press_times=tuple(TimePoint(ms * 1000) for ms in press_ms))

    return Scenario(
        schema_version=1,
        name=f"gen-{klass}-{seed}",
        description=f"generated {klass} scenario, seed {seed}",
        pmic=pmic,
        storage=storage,
        always_on=always_on,
        rtc=RtcConfig(
            alarm_period=period,
            first_alarm=TimePoint(rng.randrange(0, period.us // 1000) * 1000),
            rearm_on_clear=rng.random() < 0.5,
        ),
        touch=touch,
        harvester=harvester,
        light_timeline=timeline,
        load_script=script,
        dpm_variant=variant,
        duration=duration,
    )


def with_initial_soc(s: Scenario, soc: float) -> Scenario:
    """The same scenario with its store starting at another state of charge."""
    return replace(s, storage=replace(s.storage, initial_soc=soc))
