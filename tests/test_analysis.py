"""Comparison and sweep analyses on top of full simulation runs."""

from __future__ import annotations

import bisect
import dataclasses
import math

import pytest

import dpmsim.analysis as analysis
from dpmsim.analysis import ComparisonError, SweepError, compare_dpm, sweep_lux
from dpmsim.energy import AlwaysOnBudget, harvest_power
from dpmsim.engine import format_trace, run
from dpmsim.quantities import Current, Duration, Illuminance, Power
from dpmsim.report import report_dict
from dpmsim.scenario import DpmVariant, VariantKind, with_constant_light
from scenario_gen import random_scenario, with_initial_soc


@pytest.fixture(scope="module")
def hw_report(case_study):
    return run(case_study)


@pytest.fixture(scope="module")
def sw_report(case_study_sw):
    return run(case_study_sw)


class TestCompareDpm:
    def test_case_study_pair(self, hw_report, sw_report):
        cmp = compare_dpm(hw_report, sw_report)
        assert cmp.scenario_name == "case-study-node"
        assert cmp.idle_current_hw.na == 452.0
        assert cmp.idle_current_sw.na == 3000.0
        assert cmp.idle_power_hw.nw == 994.4
        assert cmp.idle_power_sw.nw == 6600.0
        assert cmp.idle_ratio_sw_over_hw == 3000.0 / 452.0
        assert cmp.idle_ratio_sw_over_hw == pytest.approx(6.6371681415929205, rel=1e-15)
        assert cmp.idle_ratio_note == "~6.6x"

    def test_cycle_energy_means(self, hw_report, sw_report):
        cmp = compare_dpm(hw_report, sw_report)
        assert cmp.cycle_energy_hw.nj == pytest.approx(2_146_355.204, abs=1e-6)
        assert cmp.cycle_energy_sw.nj == pytest.approx(5_529_531.0, abs=1e-6)
        assert cmp.cycle_energy_ratio_sw_over_hw == pytest.approx(
            5_529_531.0 / 2_146_355.204, rel=1e-12
        )

    def test_idle_lifetime_on_full_store(self, hw_report, sw_report):
        # 133.2 J draining at the idle floor, rounded to the microsecond.
        cmp = compare_dpm(hw_report, sw_report)
        assert cmp.idle_lifetime_hw.us == 133_950_120_675_784
        assert cmp.idle_lifetime_sw.us == 20_181_818_181_818
        assert cmp.idle_lifetime_gain.us == 113_768_302_493_966

    def test_argument_order_does_not_matter(self, hw_report, sw_report):
        assert compare_dpm(hw_report, sw_report) == compare_dpm(sw_report, hw_report)

    def test_alternate_sleep_current(self, hw_report, case_study_sw):
        variant = DpmVariant(kind=VariantKind.SOFTWARE_SLEEP, i_sleep=Current(2570))
        other = dataclasses.replace(case_study_sw, dpm_variant=variant)
        cmp = compare_dpm(hw_report, run(other))
        assert cmp.idle_ratio_sw_over_hw == pytest.approx(5.685840707964601, rel=1e-15)
        assert cmp.idle_ratio_note == "~5.7x"

    def test_sleep_at_the_always_on_total_changes_no_ledger(self, hw_report, case_study):
        # Metamorphic check: a software-sleep twin whose idle draw equals the
        # always-on total is the hardware-gated run under another name.
        variant = DpmVariant(kind=VariantKind.SOFTWARE_SLEEP, i_sleep=case_study.always_on.total_current)
        twin = run(dataclasses.replace(case_study, dpm_variant=variant))
        assert format_trace(twin) == format_trace(hw_report)
        hw_doc, twin_doc = report_dict(hw_report), report_dict(twin)
        for key in ("energy", "final", "cycles", "mode_residency_us"):
            assert twin_doc[key] == hw_doc[key], key
        assert compare_dpm(hw_report, twin).idle_ratio_sw_over_hw == 1.0

    def test_rejects_same_variant_kind(self, hw_report):
        with pytest.raises(ComparisonError, match="one hardware_gated run"):
            compare_dpm(hw_report, hw_report)

    def test_rejects_non_twin_scenarios(self, hw_report, case_study_sw):
        shifted = run(with_initial_soc(case_study_sw, 0.6))
        with pytest.raises(ComparisonError, match="storage.initial_soc"):
            compare_dpm(hw_report, shifted)
        # List fields are named whole, not by entry.
        relit = run(with_constant_light(case_study_sw, 100.0))
        with pytest.raises(ComparisonError, match="differing fields: light_timeline$"):
            compare_dpm(hw_report, relit)

    def test_rejects_a_hardware_twin_without_idle_drain(self, case_study, case_study_sw):
        # Both twins share always_on; only the hardware run idles on it.
        silent = AlwaysOnBudget(i_pmic=Current(0), i_rtc=Current(0), i_touch=Current(0), i_extra_leakage=Current(0))
        hw = run(dataclasses.replace(case_study, always_on=silent))
        sw = run(dataclasses.replace(case_study_sw, always_on=silent))
        with pytest.raises(ComparisonError, match="always_on"):
            compare_dpm(hw, sw)

    def test_rejects_a_software_twin_without_idle_drain(self, hw_report, case_study_sw):
        variant = DpmVariant(kind=VariantKind.SOFTWARE_SLEEP, i_sleep=Current(0))
        sw = run(dataclasses.replace(case_study_sw, dpm_variant=variant))
        with pytest.raises(ComparisonError, match=r"dpm_variant\.i_sleep"):
            compare_dpm(hw_report, sw)

    def test_cycle_energy_reads_whole_cycles_only(self, case_study, case_study_sw, hw_report, sw_report):
        # Half a period more adds a partial row to each ledger; it is not averaged in.
        hw, sw = (
            run(dataclasses.replace(s, duration=s.duration + Duration.from_minutes(5)))
            for s in (case_study, case_study_sw)
        )
        assert [row.whole for row in hw.cycles] == [row.whole for row in sw.cycles] == [True, False]
        longer, plain = compare_dpm(hw, sw), compare_dpm(hw_report, sw_report)
        assert (longer.cycle_energy_hw, longer.cycle_energy_sw) == (plain.cycle_energy_hw, plain.cycle_energy_sw)

    def test_rejects_a_run_without_a_whole_cycle(self, case_study, case_study_sw):
        hw, sw = (run(dataclasses.replace(s, duration=Duration.from_minutes(5))) for s in (case_study, case_study_sw))
        with pytest.raises(ComparisonError) as err:
            compare_dpm(sw, hw)
        assert str(err.value) == "run of 'case-study-node' (hardware_gated) completed no whole cycle to compare"

    def test_text_rendering(self, hw_report, sw_report):
        text = compare_dpm(hw_report, sw_report).text()
        assert "dpm comparison: case-study-node" in text
        assert "ratio            6.6371681415929205 (~6.6x)" in text
        assert "hardware-gated   2.146355 mJ" in text
        assert text.endswith("\n")


def _closed_form_applies(report, times: list[int], i: int, cycle_us: int) -> bool:
    """Whether whole row i (times: each trace record's time) is one plain
    alarm cycle spent in Normal: as long as the budget's cycle, its burst
    started by its own alarm and run to the latch clear, with no touch, no
    anomaly and no other mode on the way."""
    rows = report.cycles
    row = rows[i]
    end = rows[i + 1].start_us if i + 1 < len(rows) else report.duration_us
    if not row.whole or end - row.start_us != cycle_us:
        return False
    # The record before the opening alarm (at least the run's init record)
    # gives the mode the cycle opened in.
    first = bisect.bisect_left(times, row.start_us, lo=1)
    window = report.trace[first - 1:bisect.bisect_left(times, end)]
    opening = window[1]
    return (
        all(rec.mode == "normal" for rec in window)
        and opening.kind == "rtc_alarm" and "stage2_entered" in opening.note
        and not any(rec.kind == "touch_press" for rec in window)
        and any("latch_cleared" in rec.note for rec in window)
        and not any(row.start_us <= a.time_us <= end for a in report.anomalies)
    )


def _extended(s, report):
    """s run up to one microsecond before the alarm after its last one: a
    longer run by less than an alarm period, with no further alarm."""
    last = report.cycles[-1]
    last_alarm = report.duration_us if last.whole else last.start_us
    return dataclasses.replace(s, duration=Duration(last_alarm + s.rtc.alarm_period.us - 1))


def _figure(s, lux):
    try:
        return analysis._probe_net(s, lux)
    except SweepError as exc:
        return str(exc)


class TestSweepLux:
    def test_case_study_breakeven(self, case_study):
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        assert res.breakeven.lux == 16.485063010752686
        assert res.bracket_lo.lux == 16.435063010752685
        assert res.bracket_hi.lux == 16.535063010752683
        assert res.bracket_hi.lux - res.bracket_lo.lux <= 0.1
        assert len(res.probes) == 2
        assert res.route == "closed_form" and res.fallback == ""
        assert res.whole_cycles == (1, 1)

    def test_breakeven_matches_closed_form(self, case_study):
        # At breakeven the cycle drain equals the harvest over one full
        # cycle; inverting the first calibration segment gives the lux.
        p_breakeven_nw = 2_146_355.204 / 603.535
        analytic = p_breakeven_nw * 200.0 / 43_145.799332267394
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        assert analytic == pytest.approx(16.48506301075269, rel=1e-12)
        assert abs(res.breakeven.lux - analytic) <= 0.1
        assert res.breakeven.lux == pytest.approx(analytic, rel=1e-12)

    def test_probes_sort_around_breakeven(self, case_study):
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        for lux, net in res.probes:
            if net < 0.0:
                assert lux < res.breakeven.lux
            elif net > 0.0:
                assert lux > res.breakeven.lux

    def test_software_variant_needs_more_light(self, case_study, case_study_sw):
        hw = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        sw = sweep_lux(case_study_sw, Illuminance(1.0), Illuminance(200.0))
        assert sw.breakeven.lux == 42.46951612903226
        assert sw.breakeven.lux > hw.breakeven.lux

    @pytest.mark.parametrize(
        "scale, segment",
        [(1.0, "below the first point"), (1 / 20, "between two points"), (1 / 40, "past the last point")],
    )
    def test_closed_form_inverts_each_calibration_segment(self, case_study, scale, segment):
        harvester = dataclasses.replace(
            case_study.harvester,
            calibration=tuple((lux, Power(p.nw * scale)) for lux, p in case_study.harvester.calibration),
        )
        s = dataclasses.replace(case_study, harvester=harvester)
        lux = analysis._closed_form_lux(s)
        points = [0.0] + [point.lux for point, _ in harvester.calibration] + [math.inf]
        where = ("below the first point", "between two points", "between two points", "past the last point")
        assert where[next(i for i in range(4) if points[i] <= lux < points[i + 1])] == segment
        assert harvest_power(harvester, Illuminance(lux)).nw == pytest.approx(2_146_355.204 / 603.535, rel=1e-12)
        res = sweep_lux(s, Illuminance(1.0), Illuminance(2000.0))
        assert res.route == "closed_form" and res.breakeven.lux == lux

    def test_no_light_reaches_a_flat_curve(self, case_study):
        flat = dataclasses.replace(
            case_study.harvester, calibration=((Illuminance(200.0), Power(1000.0)), (Illuminance(500.0), Power(1000.0)))
        )
        assert analysis._closed_form_lux(dataclasses.replace(case_study, harvester=flat)) == math.inf

    def test_no_budget_when_the_burst_outlasts_a_fixed_period(self, case_study):
        # Alarms every 2 s that do not wait for the 3.535 s burst: no whole
        # cycle runs the script exactly once.
        rtc = dataclasses.replace(case_study.rtc, alarm_period=Duration(2_000_000), rearm_on_clear=False)
        s = dataclasses.replace(case_study, rtc=rtc)
        assert analysis._whole_cycle_budget(s) is None
        assert math.isnan(analysis._closed_form_lux(s))
        with_time = dataclasses.replace(s, rtc=dataclasses.replace(rtc, alarm_period=Duration(3_535_000)))
        assert analysis._whole_cycle_budget(with_time)[0] == Duration(3_535_000)

    @pytest.mark.parametrize(
        "name, answer, bisection_bracket",
        [
            ("case_study", 16.485063010752686, (16.44970703125, 16.546875)),
            ("case_study_sw", 42.46951612903226, (42.3935546875, 42.49072265625)),
        ],
    )
    def test_closed_form_lies_in_the_bisection_bracket(self, request, monkeypatch, name, answer, bisection_bracket):
        # One whole row per run, so the bisection reads what it always read.
        scenario = request.getfixturevalue(name)
        assert analysis._closed_form_lux(scenario) == answer
        monkeypatch.setattr(analysis, "_closed_form_lux", lambda s: math.inf)
        bisected = sweep_lux(scenario, Illuminance(1.0), Illuminance(200.0))
        assert bisected.route == "bisection"
        assert len(bisected.probes) == 13
        assert (bisected.bracket_lo.lux, bisected.bracket_hi.lux) == bisection_bracket
        assert bisected.bracket_lo.lux < answer < bisected.bracket_hi.lux

    @pytest.mark.parametrize(
        "seed, answer, probes, whole",
        [
            (6, 158.1761459460144, ((158.1261459460144, -654.0145906056277), (158.22614594601438, 654.0145906051621)), 65),
            (29, 35.389899782634274, ((35.33989978263428, -2036.1209180760197), (35.43989978263427, 2036.1209180767182)), 25),
        ],
    )
    def test_generated_nodes_that_die_in_the_dark(self, seed, answer, probes, whole):
        # Both die at 1 lux, where the bisection would open; the closed form
        # answers without probing there.
        res = sweep_lux(random_scenario(seed), Illuminance(1.0), Illuminance(200.0))
        assert res.route == "closed_form"
        assert res.breakeven.lux == answer
        assert res.probes == probes
        assert res.whole_cycles == (whole, whole)

    def test_falls_back_when_the_probes_do_not_straddle(self):
        # A touch burst lands in the last whole cycle of both probes.
        res = sweep_lux(random_scenario(18), Illuminance(1.0), Illuminance(200.0))
        assert res.route == "bisection"
        assert res.fallback.startswith("nets at 45.05998952291691 and 45.1599895229169 lux do not straddle zero")
        assert res.breakeven.lux == 45.357177734375
        assert len(res.probes) == 13 and set(res.whole_cycles) == {7}

    def test_falls_back_when_the_prediction_leaves_the_bracket(self, case_study):
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(16.5))
        assert res.route == "bisection"
        assert res.fallback == "the budget's breakeven 16.485063010752686 lux -/+ 0.05 leaves [1.0, 16.5]"
        assert res.bracket_lo.lux < 16.485063010752686 < res.bracket_hi.lux

    def test_falls_back_when_a_probe_has_no_whole_cycle(self, case_study, monkeypatch):
        probe = analysis._probe_net

        def no_whole_cycle_near_breakeven(s, lux):
            if lux in (16.435063010752685, 16.535063010752683):
                raise SweepError(f"probe at {lux} lux completed no whole cycle; it ended in normal")
            return probe(s, lux)

        monkeypatch.setattr(analysis, "_probe_net", no_whole_cycle_near_breakeven)
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        assert res.route == "bisection"
        assert res.fallback == "probe at 16.435063010752685 lux completed no whole cycle; it ended in normal"
        assert res.breakeven.lux == 16.498291015625

    def test_a_run_shorter_than_a_cycle_is_refused(self, case_study):
        short = dataclasses.replace(case_study, duration=Duration.from_minutes(5))
        with pytest.raises(SweepError, match=r"probe at 1.0 lux completed no whole cycle; it ended in normal"):
            sweep_lux(short, Illuminance(1.0), Illuminance(200.0))

    def test_rejects_bad_bracket(self, case_study):
        with pytest.raises(SweepError, match="0 <= lo < hi"):
            sweep_lux(case_study, Illuminance(5.0), Illuminance(5.0))
        with pytest.raises(SweepError, match="does not straddle"):
            sweep_lux(case_study, Illuminance(100.0), Illuminance(200.0))
        with pytest.raises(SweepError, match="resolution"):
            sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0), resolution=0.0)

    @pytest.mark.parametrize(
        "lo, hi, resolution, message",
        [
            (1.0, 200.0, float("nan"), "resolution"),
            (1.0, 200.0, float("inf"), "resolution"),
            (1.0, float("inf"), 0.1, "0 <= lo < hi"),
            (float("nan"), 200.0, 0.1, "0 <= lo < hi"),
            (1.0, float("nan"), 0.1, "0 <= lo < hi"),
        ],
    )
    def test_rejects_non_finite_numbers(self, case_study, monkeypatch, lo, hi, resolution, message):
        # A NaN resolution once returned the bracket's midpoint, and an
        # infinite bound ran a probe whose ledger overflowed.
        monkeypatch.setattr(analysis, "_closed_form_lux", pytest.fail)
        monkeypatch.setattr(analysis, "_probe_net", pytest.fail)
        with pytest.raises(SweepError, match=message):
            sweep_lux(case_study, Illuminance(lo), Illuminance(hi), resolution=resolution)

    def test_zero_bound_is_the_answer(self, case_study, monkeypatch):
        # The budget's answer falls outside every bracket here, so these
        # probes run on the bisection route.
        monkeypatch.setattr(analysis, "_closed_form_lux", lambda s: math.inf)
        nets = {0.0: 0.0, 10.0: -1.0, 20.0: 0.0, 40.0: 1.0}
        monkeypatch.setattr(analysis, "_probe_net", lambda s, lux: (nets[lux], 1))
        lo_hit = sweep_lux(case_study, Illuminance(0.0), Illuminance(40.0))
        assert lo_hit.breakeven.lux == 0.0
        assert len(lo_hit.probes) == 1
        hi_hit = sweep_lux(case_study, Illuminance(10.0), Illuminance(20.0))
        assert hi_hit.breakeven.lux == 20.0
        assert len(hi_hit.probes) == 2
        assert lo_hit.route == hi_hit.route == "bisection"

    def test_exact_zero_midpoint_short_circuits(self, case_study, monkeypatch):
        monkeypatch.setattr(analysis, "_closed_form_lux", lambda s: math.inf)
        monkeypatch.setattr(
            analysis, "_probe_net", lambda s, lux: (0.0 if lux == 15.0 else lux - 15.0, 1)
        )
        res = sweep_lux(case_study, Illuminance(10.0), Illuminance(20.0))
        assert res.breakeven.lux == 15.0
        assert res.bracket_lo.lux == res.bracket_hi.lux == 15.0
        assert res.route == "bisection"

    @pytest.mark.parametrize("seed", [6, 29])
    def test_a_probe_that_ends_unpowered_is_refused(self, seed):
        # At 1 lux these nodes die in deep sleep long before the run ends,
        # so their last whole cycle books 0 nJ either way: no breakeven
        # reading. Their budgets answer above 2 lux, so the bisection runs.
        with pytest.raises(SweepError, match=r"probe at 1.0 lux ended unpowered in deep_sleep"):
            sweep_lux(random_scenario(seed), Illuminance(1.0), Illuminance(2.0))

    def test_text_rendering(self, case_study):
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        text = res.text()
        assert text.startswith("sweep target: net_zero_per_cycle\n")
        assert "     16.4351 lux -> net -0.006510 mJ/cycle (whole cycles: 1)\n" in text
        assert "\nroute: closed_form\n" in text
        assert "breakeven: 16.4851 lux (bracket [16.4351, 16.5351])" in text
        assert text.count("lux -> net") == 2
        assert text.endswith("\n")
        fallback = sweep_lux(case_study, Illuminance(1.0), Illuminance(16.5))
        assert "route: bisection (closed form not taken: the budget's breakeven" in fallback.text()


class TestWholeCycles:
    @pytest.mark.parametrize("seed", range(20))
    def test_a_longer_run_moves_no_probe_figure(self, seed):
        # Metamorphic: running on for less than an alarm period adds no
        # whole cycle, so the figure read off each whole cycle stays put.
        s = random_scenario(seed)
        lux = analysis._closed_form_lux(s)
        for level in (lux, 2 * lux):
            report = run(with_constant_light(s, level))
            longer = _extended(s, report)
            assert longer.duration.us > s.duration.us
            assert _figure(longer, level) == _figure(s, level)

    def test_a_longer_case_study_keeps_its_sweep(self, case_study):
        longer = _extended(case_study, run(case_study))
        assert longer.duration.us == 1_203_535_000 - 1
        assert sweep_lux(longer, Illuminance(1.0), Illuminance(200.0)) == sweep_lux(
            case_study, Illuminance(1.0), Illuminance(200.0)
        )

    def test_closed_form_matches_every_plain_normal_cycle(self):
        # Wherever the budget applies, it is the engine's own whole-cycle
        # net to a few ulps of the flows: seeds 0-99 at their breakeven,
        # 80 lux and 300 lux.
        applied = 0
        for seed in range(100):
            s = random_scenario(seed)
            cycle, consumed = analysis._whole_cycle_budget(s)
            lux = analysis._closed_form_lux(s)
            for level in (lux, 80.0, 300.0):
                report = run(with_constant_light(s, level))
                times = [rec.time_us for rec in report.trace]
                harvest_nw = harvest_power(s.harvester, Illuminance(level)).nw
                closed = harvest_nw * cycle.us / 1e6 - consumed.nj
                for i, row in enumerate(report.cycles):
                    if _closed_form_applies(report, times, i, cycle.us):
                        applied += 1
                        ulp = math.ulp(max(row.harvested_nj, row.consumed_nj))
                        assert abs(row.net_nj - closed) <= 4 * ulp, (seed, level, i)
        assert applied == 4419
