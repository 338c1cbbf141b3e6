"""Comparison and sweep analyses on top of full simulation runs."""

from __future__ import annotations

import dataclasses

import pytest

import dpmsim.analysis as analysis
from dpmsim.analysis import ComparisonError, SweepError, compare_dpm, sweep_lux
from dpmsim.energy import AlwaysOnBudget
from dpmsim.engine import format_trace, run
from dpmsim.quantities import Current, Illuminance
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

    def test_text_rendering(self, hw_report, sw_report):
        text = compare_dpm(hw_report, sw_report).text()
        assert "dpm comparison: case-study-node" in text
        assert "ratio            6.6371681415929205 (~6.6x)" in text
        assert "hardware-gated   2.146355 mJ" in text
        assert text.endswith("\n")


class TestSweepLux:
    def test_case_study_breakeven(self, case_study):
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        assert res.breakeven.lux == 16.498291015625
        assert res.bracket_lo.lux == 16.44970703125
        assert res.bracket_hi.lux == 16.546875
        assert res.bracket_hi.lux - res.bracket_lo.lux <= 0.1
        assert len(res.probes) == 13

    def test_breakeven_matches_closed_form(self, case_study):
        # At breakeven the cycle drain equals the harvest over one full
        # cycle; inverting the first calibration segment gives the lux.
        p_breakeven_nw = 2_146_355.204 / 603.535
        analytic = p_breakeven_nw * 200.0 / 43_145.799332267394
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        assert analytic == pytest.approx(16.48506301075269, rel=1e-12)
        assert abs(res.breakeven.lux - analytic) <= 0.1

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
        assert sw.breakeven.lux == 42.442138671875
        assert sw.breakeven.lux > hw.breakeven.lux

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
        monkeypatch.setattr(analysis, "_probe_net", pytest.fail)
        with pytest.raises(SweepError, match=message):
            sweep_lux(case_study, Illuminance(lo), Illuminance(hi), resolution=resolution)

    def test_zero_bound_is_the_answer(self, case_study, monkeypatch):
        nets = {0.0: 0.0, 10.0: -1.0, 20.0: 0.0, 40.0: 1.0}
        monkeypatch.setattr(analysis, "_probe_net", lambda s, lux: nets[lux])
        lo_hit = sweep_lux(case_study, Illuminance(0.0), Illuminance(40.0))
        assert lo_hit.breakeven.lux == 0.0
        assert len(lo_hit.probes) == 1
        hi_hit = sweep_lux(case_study, Illuminance(10.0), Illuminance(20.0))
        assert hi_hit.breakeven.lux == 20.0
        assert len(hi_hit.probes) == 2

    def test_exact_zero_midpoint_short_circuits(self, case_study, monkeypatch):
        monkeypatch.setattr(
            analysis, "_probe_net", lambda s, lux: 0.0 if lux == 15.0 else lux - 15.0
        )
        res = sweep_lux(case_study, Illuminance(10.0), Illuminance(20.0))
        assert res.breakeven.lux == 15.0
        assert res.bracket_lo.lux == res.bracket_hi.lux == 15.0

    @pytest.mark.parametrize("seed", [6, 29])
    def test_a_probe_that_ends_unpowered_is_refused(self, seed):
        # At 1 lux these nodes die in deep sleep long before the run ends,
        # so their last cycle books 0 nJ either way: no breakeven reading.
        with pytest.raises(SweepError, match=r"probe at 1.0 lux ended unpowered in deep_sleep"):
            sweep_lux(random_scenario(seed), Illuminance(1.0), Illuminance(200.0))

    def test_text_rendering(self, case_study):
        res = sweep_lux(case_study, Illuminance(1.0), Illuminance(200.0))
        text = res.text()
        assert text.startswith("sweep target: net_zero_per_cycle\n")
        assert "breakeven: 16.4983 lux (bracket [16.4497, 16.5469])" in text
        assert text.count("lux -> net") == 13
        assert text.endswith("\n")
