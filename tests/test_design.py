"""Design equations, report assembly, and the reference-figure audit."""

import inspect
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from touchalarm.design import (
    FIELD_UNITS,
    CircuitFileError,
    CircuitSpec,
    DesignError,
    amplifier_power,
    astable_times,
    astable_times_cv,
    base_resistor,
    compute_report,
    filter_capacitor,
    led_resistor,
    modulation_voltages,
    monostable_period,
    parse_circuit,
    peak_inverse_voltage,
    trigger_threshold,
    verify_reference_values,
)

# Closed-form nodal solution for the control pin with the stock values,
# derived by hand: (2/3·12)/(10k/3) + v_mod/300k over the summed conductances
# gives 720/91 V (modulator low) and 732/91 V (modulator high).
V_CTL_LOW = 720.0 / 91.0
V_CTL_HIGH = 732.0 / 91.0

# The parts that must be > 0 and the voltages that must be >= 0: the roster
# that FIELD_UNITS has to reproduce.
POSITIVE_FIELDS = (
    "fuse_rating", "regulator_current", "ripple_frequency",
    *(f"r{i}" for i in range(1, 13)), *(f"c{i}" for i in range(1, 7)),
    "i_led_max", "i_led_run",
    "amp_base_resistance", "relay_coil_resistance", "speaker_impedance", "speaker_power_rating",
)
VOLT_FIELDS = ("mains_voltage", "transformer_secondary", "regulator_voltage",
               "diode_piv_rating", "vcc", "v_led", "v_be")


class TestMonostable:
    def test_stock_timeout_approx(self):
        assert monostable_period(220e3, 47e-6) == pytest.approx(11.374, rel=1e-12)

    def test_zero_capacitance(self):
        assert monostable_period(1e3, 0.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DesignError):
            monostable_period(0.0, 1e-6)
        with pytest.raises(DesignError):
            monostable_period(1e3, -1e-6)

    @given(
        r=st.floats(min_value=1.0, max_value=1e7),
        c=st.floats(min_value=1e-12, max_value=1e-2),
    )
    @settings(max_examples=200)
    def test_models_agree_within_0p2_percent(self, r, c):
        # 1.1 stands for the threshold crossing's ln 3 = 1.0986...
        exact = r * c * math.log(3.0)
        assert abs(monostable_period(r, c) - exact) <= 0.002 * exact

    @given(
        r=st.floats(min_value=1.0, max_value=1e7),
        c=st.floats(min_value=1e-12, max_value=1e-2),
        k=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_linear_in_r_and_c(self, r, c, k):
        base = monostable_period(r, c)
        assert monostable_period(r * k, c) == pytest.approx(base * k, rel=1e-12)
        assert monostable_period(r, c * k) == pytest.approx(base * k, rel=1e-12)


class TestAstable:
    def test_high_stage(self):
        t = astable_times(100e3, 100e3, 0.01e-6)
        ln2 = math.log(2.0)
        assert t.t1 == pytest.approx(ln2 * 200e3 * 0.01e-6, rel=1e-15)
        assert t.t2 == pytest.approx(ln2 * 100e3 * 0.01e-6, rel=1e-15)
        assert t.t1 == pytest.approx(1.386e-3, rel=1e-3)
        assert t.t2 == pytest.approx(0.693e-3, rel=1e-3)
        assert t.period == pytest.approx(2.079e-3, rel=1e-3)
        assert t.frequency == pytest.approx(481.0, abs=1.0)

    def test_symmetric_duty_is_two_thirds(self):
        t = astable_times(100e3, 100e3, 0.01e-6)
        assert t.duty == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_low_stage(self):
        # Direct formula evaluation, independent of the implementation path.
        ln2 = math.log(2.0)
        t = astable_times(1e3, 22e3, 47e-6)
        assert t.t1 == pytest.approx(ln2 * 23e3 * 47e-6, rel=1e-15)
        assert t.t2 == pytest.approx(ln2 * 22e3 * 47e-6, rel=1e-15)
        assert t.period == pytest.approx(t.t1 + t.t2, rel=1e-15)
        assert t.frequency == pytest.approx(0.6822, rel=1e-3)

    def test_period_is_t1_plus_t2_exactly(self):
        t = astable_times(1e3, 22e3, 47e-6)
        assert t.period == t.t1 + t.t2

    def test_zero_ra_allowed(self):
        t = astable_times(0.0, 1e3, 1e-6)
        assert t.t1 == t.t2
        assert t.duty == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("ra, rb, c", [(1e3, 22e3, 1e308), (1e3, 1e308, 10.0), (0.0, 1e-10, 1e-314),
                                           (1e3, 22e3, 1e-320)])
    def test_rejects_times_that_are_not_finite(self, ra, rb, c):
        with pytest.raises(DesignError, match="^astable times are not finite: t1="):
            astable_times(ra, rb, c)
        with pytest.raises(DesignError, match="^astable times are not finite: t1="):
            astable_times_cv(ra, rb, c, 12.0, 8.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DesignError):
            astable_times(-1.0, 1e3, 1e-6)
        with pytest.raises(DesignError):
            astable_times(1e3, 0.0, 1e-6)
        with pytest.raises(DesignError):
            astable_times(1e3, 1e3, 0.0)

    @given(
        ra=st.floats(min_value=1.0, max_value=1e7),
        rb=st.floats(min_value=1.0, max_value=1e7),
        c=st.floats(min_value=1e-12, max_value=1e-2),
    )
    @settings(max_examples=200)
    def test_duty_between_half_and_one(self, ra, rb, c):
        t = astable_times(ra, rb, c)
        assert t.t1 > t.t2
        assert 0.5 < t.duty < 1.0

    @given(
        ra=st.floats(min_value=1.0, max_value=1e7),
        rb=st.floats(min_value=1.0, max_value=1e7),
        c=st.floats(min_value=1e-12, max_value=1e-2),
        k=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_times_scale_with_c(self, ra, rb, c, k):
        base = astable_times(ra, rb, c)
        scaled = astable_times(ra, rb, c * k)
        assert scaled.t1 == pytest.approx(base.t1 * k, rel=1e-12)
        assert scaled.t2 == pytest.approx(base.t2 * k, rel=1e-12)


class TestAstableControlVoltage:
    def test_reduces_to_standard_thresholds(self):
        plain = astable_times(100e3, 100e3, 0.01e-6)
        cv = astable_times_cv(100e3, 100e3, 0.01e-6, 12.0, 8.0)
        assert cv.t1 == pytest.approx(plain.t1, rel=1e-12)
        assert cv.t2 == pytest.approx(plain.t2, rel=1e-12)
        assert cv.frequency == pytest.approx(plain.frequency, rel=1e-12)

    def test_frequency_at_high_control_voltage(self):
        # Oracle: independent high-precision evaluation of the two log terms.
        t1 = 200e3 * 0.01e-6 * math.log((12.0 - V_CTL_HIGH / 2) / (12.0 - V_CTL_HIGH))
        t2 = 100e3 * 0.01e-6 * math.log(2.0)
        expected = 1.0 / (t1 + t2)
        got = astable_times_cv(100e3, 100e3, 0.01e-6, 12.0, V_CTL_HIGH)
        assert got.frequency == pytest.approx(expected, rel=1e-12)
        assert got.frequency == pytest.approx(477.1, abs=0.5)

    def test_frequency_at_low_control_voltage(self):
        t1 = 200e3 * 0.01e-6 * math.log((12.0 - V_CTL_LOW / 2) / (12.0 - V_CTL_LOW))
        t2 = 100e3 * 0.01e-6 * math.log(2.0)
        expected = 1.0 / (t1 + t2)
        got = astable_times_cv(100e3, 100e3, 0.01e-6, 12.0, V_CTL_LOW)
        assert got.frequency == pytest.approx(expected, rel=1e-12)
        assert got.frequency == pytest.approx(488.6, abs=0.5)

    def test_rejects_control_voltage_outside_supply(self):
        for bad in (0.0, -1.0, 12.0, 15.0):
            with pytest.raises(DesignError):
                astable_times_cv(100e3, 100e3, 0.01e-6, 12.0, bad)

    @given(
        ra=st.floats(min_value=1.0, max_value=1e7),
        rb=st.floats(min_value=1.0, max_value=1e7),
        c=st.floats(min_value=1e-12, max_value=1e-2),
        vcc=st.floats(min_value=1.0, max_value=30.0),
    )
    @settings(max_examples=300)
    def test_agrees_with_plain_astable_at_two_thirds_vcc(self, ra, rb, c, vcc):
        plain = astable_times(ra, rb, c)
        cv = astable_times_cv(ra, rb, c, vcc, 2.0 * vcc / 3.0)
        assert cv.frequency == pytest.approx(plain.frequency, rel=1e-9)

    @given(
        v1=st.floats(min_value=0.5, max_value=11.0),
        v2=st.floats(min_value=0.5, max_value=11.0),
    )
    @settings(max_examples=200)
    def test_frequency_strictly_decreasing_in_control_voltage(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assume(hi - lo > 1e-9)  # below that, the two frequencies tie in float
        f_lo = astable_times_cv(100e3, 100e3, 0.01e-6, 12.0, lo).frequency
        f_hi = astable_times_cv(100e3, 100e3, 0.01e-6, 12.0, hi).frequency
        assert f_lo > f_hi


class TestModulationVoltages:
    def test_stock_values(self):
        mv = modulation_voltages(12.0, 300e3)
        assert mv.v_ctl_low == pytest.approx(V_CTL_LOW, rel=1e-12)
        assert mv.v_ctl_high == pytest.approx(V_CTL_HIGH, rel=1e-12)
        assert mv.v_ctl_low == pytest.approx(7.912, abs=5e-4)
        assert mv.v_ctl_high == pytest.approx(8.044, abs=5e-4)

    def test_huge_coupling_resistor_leaves_internal_divider(self):
        mv = modulation_voltages(12.0, 1e12)
        assert mv.v_ctl_low == pytest.approx(8.0, rel=1e-6)
        assert mv.v_ctl_high == pytest.approx(8.0, rel=1e-6)

    def test_equal_potentials_pass_no_current(self):
        # If the modulator sat at 2/3·Vcc the node would stay at 2/3·Vcc.
        r_th = 10e3 / 3.0
        v = ((8.0 / r_th) + (8.0 / 300e3)) / (1.0 / r_th + 1.0 / 300e3)
        assert v == pytest.approx(8.0, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DesignError):
            modulation_voltages(0.0, 300e3)
        with pytest.raises(DesignError):
            modulation_voltages(12.0, 0.0)


class TestLedResistor:
    def test_mains_indicator(self):
        r = led_resistor(18.0, 2.2, 0.035)
        assert r.r_ideal == pytest.approx(451.43, abs=0.005)
        assert r.r_snapped == 470.0
        assert r.i_actual == pytest.approx(15.8 / 470.0, rel=1e-12)

    def test_run_indicator(self):
        r = led_resistor(12.0, 2.2, 0.01)
        assert r.r_ideal == pytest.approx(980.0, rel=1e-12)
        assert r.r_snapped == 1000.0
        assert r.i_actual == pytest.approx(9.8e-3, rel=1e-12)

    def test_zero_headroom_is_an_error(self):
        with pytest.raises(DesignError):
            led_resistor(12.0, 12.0, 0.01)


class TestFilterCapacitor:
    def test_stock_values(self):
        f = filter_capacitor(50.0, 0.05, 12.0, 0.5)
        assert f.r_load == 24.0
        # Oracle: direct evaluation of 1/(4·√3·f·y·R).
        assert f.c_ideal == pytest.approx(1.0 / (4.0 * math.sqrt(3.0) * 50.0 * 0.05 * 24.0), rel=1e-15)
        assert f.c_ideal == pytest.approx(2405.6e-6, rel=1e-4)
        assert f.c_snapped == 2.2e-3

    def test_half_current_halves_capacitance(self):
        full = filter_capacitor(50.0, 0.05, 12.0, 0.5)
        half = filter_capacitor(50.0, 0.05, 12.0, 0.25)
        assert half.r_load == 48.0
        assert half.c_ideal == pytest.approx(full.c_ideal / 2.0, rel=1e-12)
        assert half.c_ideal == pytest.approx(1202.8e-6, rel=1e-4)

    def test_unity_ripple_extrapolation(self):
        # c scales as 1/y, so c·y is invariant: the y -> 1 limit is 120.28 µF.
        f = filter_capacitor(50.0, 0.05, 12.0, 0.5)
        assert f.c_ideal * 0.05 == pytest.approx(120.28e-6, rel=1e-4)

    @given(
        f=st.floats(min_value=1.0, max_value=1e4),
        y=st.floats(min_value=1e-3, max_value=0.999),
        k=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_inverse_proportionality(self, f, y, k):
        base = filter_capacitor(f, y, 12.0, 0.5)
        assert filter_capacitor(f * k, y, 12.0, 0.5).c_ideal == pytest.approx(
            base.c_ideal / k, rel=1e-12
        )
        if 0.0 < y * k < 1.0:
            assert filter_capacitor(f, y * k, 12.0, 0.5).c_ideal == pytest.approx(
                base.c_ideal / k, rel=1e-12
            )
        # r_load = v/i, so scaling the current scales c the same way
        assert filter_capacitor(f, y, 12.0, 0.5 * k).c_ideal == pytest.approx(
            base.c_ideal * k, rel=1e-12
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DesignError):
            filter_capacitor(0.0, 0.05, 12.0, 0.5)
        with pytest.raises(DesignError):
            filter_capacitor(50.0, 1.0, 12.0, 0.5)
        with pytest.raises(DesignError):
            filter_capacitor(50.0, 0.05, 0.0, 0.5)
        with pytest.raises(DesignError):
            filter_capacitor(50.0, 0.05, 12.0, 0.0)


class TestPeakInverseVoltage:
    def test_stock(self):
        check = peak_inverse_voltage(18.0, 50.0)
        assert check.piv == 36.0
        assert check.within_rating is True

    def test_zero_secondary(self):
        check = peak_inverse_voltage(0.0, 50.0)
        assert check.piv == 0.0
        assert check.within_rating is True

    def test_strict_boundary(self):
        # Equal is not "greater than": 50 V PIV against a 50 V diode fails.
        check = peak_inverse_voltage(25.0, 50.0)
        assert check.piv == 50.0
        assert check.within_rating is False


class TestBaseResistor:
    def test_stock(self):
        b = base_resistor(12.0, 0.6, 400.0, 25.0, 2.0)
        assert b.i_c == pytest.approx(0.03, rel=1e-12)
        assert b.i_b == pytest.approx(0.0024, rel=1e-12)
        assert b.r_ideal == pytest.approx(4750.0, rel=1e-12)
        assert b.r_snapped == 4700.0

    def test_without_overdrive(self):
        b = base_resistor(12.0, 0.6, 400.0, 25.0, 1.0)
        assert b.r_ideal == pytest.approx(9500.0, rel=1e-12)
        assert b.r_snapped == 10000.0

    def test_huge_gain_capped(self):
        with pytest.raises(DesignError, match="cap"):
            base_resistor(12.0, 0.6, 400.0, 1e9, 2.0)


class TestAmplifierPower:
    def test_audited_gain(self):
        a = amplifier_power(12.0, 0.6, 300.0, 10.0)
        assert a.i_b == pytest.approx(0.038, rel=1e-12)
        assert a.i_e == pytest.approx(0.418, rel=1e-12)
        assert a.p_out == pytest.approx(5.016, rel=1e-12)

    def test_claimed_gain_overshoots_speaker(self):
        a = amplifier_power(12.0, 0.6, 300.0, 100.0)
        assert a.i_e == pytest.approx(3.838, rel=1e-12)
        assert a.p_out == pytest.approx(46.056, rel=1e-12)

    def test_no_headroom_gives_zero(self):
        a = amplifier_power(12.0, 12.0, 300.0, 10.0)
        assert a.i_b == 0.0
        assert a.i_e == 0.0
        assert a.p_out == 0.0


class TestTriggerThreshold:
    @pytest.mark.parametrize("vcc,expected", [(12.0, 4.0), (0.0, 0.0), (9.0, 3.0)])
    def test_one_third_of_supply(self, vcc, expected):
        assert trigger_threshold(vcc) == expected


class TestComputeReport:
    def test_stock_headline_numbers(self):
        report = compute_report(CircuitSpec())
        assert report.value("trigger_timeout") == pytest.approx(11.374, rel=1e-12)
        assert report.value("high_freq") == pytest.approx(481.0, abs=1.0)
        assert report.value("f_lo_tone") == pytest.approx(477.1, abs=0.5)
        assert report.value("f_hi_tone") == pytest.approx(488.6, abs=0.5)
        assert report.value("trigger_threshold") == pytest.approx(4.0, rel=1e-12)
        assert report.get("r1_ideal").snapped == 470.0
        assert report.get("r5_ideal").snapped == 4700.0
        with pytest.raises(KeyError):
            report.get("no_such_record")

    def test_periods_sum_exactly(self):
        report = compute_report(CircuitSpec())
        for stage in ("high", "low"):
            t1 = report.value(f"{stage}_t1")
            t2 = report.value(f"{stage}_t2")
            assert report.value(f"{stage}_period") == t1 + t2

    def test_record_order_is_stable(self):
        report = compute_report(CircuitSpec())
        assert tuple(record.name for record in report) == (
            "r1_ideal", "led1_current", "r2_ideal", "led2_current", "piv",
            "filter_c_ideal", "trigger_timeout", "trigger_frequency",
            "trigger_threshold", "r5_ideal", "trigger_i_c", "trigger_i_b",
            "high_t1", "high_t2", "high_period", "high_freq", "high_duty",
            "low_t1", "low_t2", "low_period", "low_freq", "low_duty",
            "amp_i_b", "amp_i_e", "amp_p_out", "f_lo_tone", "f_hi_tone",
        )

    def test_deterministic(self):
        assert compute_report(CircuitSpec()) == compute_report(CircuitSpec())

    def test_degenerate_capacitor_names_the_quantity(self):
        with pytest.raises(DesignError, match="c2"):
            compute_report(CircuitSpec(c2=0.0))

    def test_underflowing_timeout_names_the_frequency(self):
        assert monostable_period(1e-320, CircuitSpec().c2) == 0.0
        with pytest.raises(DesignError, match=r"^trigger_frequency: 1/0\.0 s is not finite$"):
            compute_report(CircuitSpec(r3=1e-320))
        with pytest.raises(DesignError, match=r"^trigger_frequency: 1/5\.17e-315 s is not finite$"):
            compute_report(CircuitSpec(r3=1e-310))

    def test_all_ideals_finite_and_positive(self):
        for record in compute_report(CircuitSpec()):
            assert math.isfinite(record.ideal)
            assert record.ideal > 0


EXPECTED_VERDICTS = {
    "r1_ideal": "MATCH",
    "r1_snapped": "MATCH",
    "r2_ideal": "MATCH",
    "led2_current": "ERRATUM",
    "piv": "MATCH",
    "filter_c_ideal": "MATCH",
    "filter_c_snapped": "MATCH",
    "trigger_timeout": "MATCH",
    "trigger_i_c": "MATCH",
    "trigger_i_b": "MATCH",
    "r5_ideal": "ERRATUM",
    "high_t1": "MATCH",
    "high_t2": "MATCH",
    "high_freq": "MATCH",
    "high_duty": "ERRATUM",
    "low_t1": "ERRATUM",
    "low_t2": "ERRATUM",
    "low_period": "ERRATUM",
    "low_freq": "ERRATUM",
    "amp_i_b": "MATCH",
    "amp_i_e": "MATCH",
    "amp_p_out": "MATCH",
    "amp_gain": "ERRATUM",
}


class TestVerifyReferenceValues:
    def test_every_verdict(self):
        errata = verify_reference_values(compute_report(CircuitSpec()))
        verdicts = {entry.name: entry.verdict for entry in errata}
        assert verdicts == EXPECTED_VERDICTS

    def test_duty_erratum_values(self):
        # Computed duty is exactly 2/3; the claimed 66.95% divides by a
        # mistyped period, 0.42% off, caught by the tighter duty gate.
        errata = verify_reference_values(compute_report(CircuitSpec()))
        entry = errata.get("high_duty")
        assert entry.computed == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert entry.claimed == 0.6695
        assert entry.verdict == "ERRATUM"

    def test_low_stage_figures_fail_their_own_formula(self):
        errata = verify_reference_values(compute_report(CircuitSpec()))
        entry = errata.get("low_period")
        assert entry.computed == pytest.approx(1.466, abs=5e-4)
        assert entry.claimed == 2.037
        assert entry.verdict == "ERRATUM"

    def test_gain_recovered_from_currents(self):
        errata = verify_reference_values(compute_report(CircuitSpec()))
        entry = errata.get("amp_gain")
        assert entry.computed == pytest.approx(10.0, rel=1e-9)
        assert entry.claimed == 100.0

    def test_has_errata(self):
        assert verify_reference_values(compute_report(CircuitSpec())).has_errata

    def test_loose_tolerance_clears_rounding_level_entries(self):
        errata = verify_reference_values(compute_report(CircuitSpec()), tolerance=0.5)
        verdicts = {entry.name: entry.verdict for entry in errata}
        # 28% (low stage), 18% (LED2) and 0.4% (duty) now pass at 50%...
        for name in ("low_t1", "low_t2", "low_period", "low_freq", "led2_current", "high_duty"):
            assert verdicts[name] == "MATCH"
        # ...but the decade-off base resistor and the 10x gain cannot.
        assert verdicts["r5_ideal"] == "ERRATUM"
        assert verdicts["amp_gain"] == "ERRATUM"

    def test_everything_matches_above_the_worst_slip(self):
        errata = verify_reference_values(compute_report(CircuitSpec()), tolerance=0.95)
        assert not errata.has_errata

    def test_tolerance_must_be_finite_and_positive(self):
        report = compute_report(CircuitSpec())
        for tolerance in (0.0, -0.1, math.nan, math.inf, 1e307):  # 1e307 is inf as a percentage
            with pytest.raises(DesignError, match="tolerance: must be finite and > 0"):
                verify_reference_values(report, tolerance)
        assert {entry.tolerance for entry in verify_reference_values(report, 1e300)} == {1e300}

    def test_match_iff_within_tolerance(self):
        for entry in verify_reference_values(compute_report(CircuitSpec())):
            rel = abs(entry.computed - entry.claimed) / abs(entry.claimed)
            assert (entry.verdict == "MATCH") == (rel <= entry.tolerance)

    def test_tolerance_equal_to_the_error_matches(self):
        report = compute_report(CircuitSpec())
        for entry in verify_reference_values(report):
            rel = abs(entry.computed - entry.claimed) / abs(entry.claimed)
            if rel:
                assert verify_reference_values(report, rel).get(entry.name).verdict == "MATCH", entry.name


class TestCircuitFile:
    def test_defaults_from_empty_text(self):
        assert parse_circuit("") == CircuitSpec()

    def test_override_with_prefix_and_comment(self):
        spec = parse_circuit("# slower trigger\nc2 = 100u\nr3 = 220k\n")
        assert spec.c2 == pytest.approx(100e-6, rel=1e-12)
        assert spec.r3 == pytest.approx(220e3, rel=1e-12)
        assert spec.vcc == 12.0

    def test_unit_suffix_accepted(self):
        spec = parse_circuit("r3 = 220kΩ\nvcc = 12V\n")
        assert spec.r3 == pytest.approx(220e3)

    def test_unknown_key(self):
        with pytest.raises(CircuitFileError, match="unknown key"):
            parse_circuit("r99 = 10\n")

    def test_duplicate_key(self):
        with pytest.raises(CircuitFileError, match="duplicate"):
            parse_circuit("r3 = 1k\nr3 = 2k\n")

    def test_bad_value(self):
        with pytest.raises(CircuitFileError, match="line 1"):
            parse_circuit("r3 = fast\n")

    def test_wrong_unit_suffix(self):
        with pytest.raises(CircuitFileError, match="conflict"):
            parse_circuit("r3 = 220kF\n")

    def test_missing_equals(self):
        with pytest.raises(CircuitFileError, match="key = value"):
            parse_circuit("r3 220k\n")

    def test_invariant_violation(self):
        with pytest.raises(CircuitFileError, match="c2"):
            parse_circuit("c2 = 0\n")


class TestCircuitSpecValidation:
    def test_stock_is_valid(self):
        CircuitSpec().validate()

    def test_vcc_must_exceed_v_be(self):
        with pytest.raises(DesignError, match="vcc"):
            CircuitSpec(vcc=0.5, v_be=0.6).validate()

    def test_secondary_covers_regulator(self):
        with pytest.raises(DesignError, match="transformer_secondary"):
            CircuitSpec(transformer_secondary=10.0).validate()
        CircuitSpec(transformer_secondary=12.0, regulator_voltage=12.0).validate()  # equal is enough

    def test_ripple_factor_range(self):
        with pytest.raises(DesignError, match="ripple_factor"):
            CircuitSpec(ripple_factor=1.5).validate()

    def test_nonfinite_rejected(self):
        with pytest.raises(DesignError, match="r3"):
            CircuitSpec(r3=math.inf).validate()

    def test_nonfinite_named_in_declaration_order(self):
        spec = CircuitSpec(speaker_impedance=math.nan, r3=math.inf, fuse_rating=-math.inf)
        with pytest.raises(DesignError, match=r"^fuse_rating: must be a finite number, got -inf$"):
            spec.validate()
        with pytest.raises(DesignError, match=r"^r3: must be a finite number, got inf$"):
            spec._replace(fuse_rating=1.0).validate()

    def test_every_field_has_a_unit(self):
        assert tuple(FIELD_UNITS) == CircuitSpec._fields

    @pytest.mark.parametrize("name", CircuitSpec._fields)
    def test_sign_rule_follows_unit(self, name):
        if name in POSITIVE_FIELDS:
            assert FIELD_UNITS[name] in ("ohm", "farad", "ampere", "hertz", "watt")
            with pytest.raises(DesignError, match=rf"^{name}: must be > 0, got 0\.0$"):
                CircuitSpec(**{name: 0.0}).validate()
            return
        if name in VOLT_FIELDS:
            assert FIELD_UNITS[name] == "volt"
            with pytest.raises(DesignError, match=rf"^{name}: must be >= 0, got -1\.0$"):
                CircuitSpec(**{name: -1.0}).validate()
        else:
            assert FIELD_UNITS[name] == "dimensionless"
        for value in (0.0,) if name in VOLT_FIELDS else (0.0, -1.0):
            try:  # no sign rule applies, though another invariant may refuse the value
                CircuitSpec(**{name: value}).validate()
            except DesignError as exc:
                assert not re.search(r": must be >=? 0,", str(exc)), exc

    def test_positive_fields_are_named_before_voltages(self):
        spec = CircuitSpec(mains_voltage=-1.0, speaker_power_rating=0.0)
        with pytest.raises(DesignError, match=r"^speaker_power_rating: must be > 0, got 0\.0$"):
            spec.validate()


# (equation, arguments, the whole rejection text).  Where two arguments are out
# of range, the text names the one the equation checks first.
REJECTIONS = [
    (monostable_period, (0.0, 1e-6), "r: must be > 0, got 0.0"),
    (monostable_period, (1e3, -1e-6), "c: must be >= 0, got -1e-06"),
    (monostable_period, (-1.0, -1.0), "r: must be > 0, got -1.0"),
    (monostable_period, (math.inf, math.nan), "r: must be a finite number, got inf"),
    (astable_times, (-1.0, 0.0, 0.0), "ra: must be >= 0, got -1.0"),
    (astable_times, (0.0, 0.0, -1.0), "rb: must be > 0, got 0.0"),
    (astable_times, (0.0, 1.0, 0.0), "c: must be > 0, got 0.0"),
    (astable_times, (1.0, 1.0, 1e308), "astable times are not finite: t1=1.38629e+308 s, "
                                       "t2=6.93147e+307 s, period=inf s, frequency=0 Hz"),
    (astable_times, (1e3, 1e3, 1e-320), "astable times are not finite: t1=1.38628e-317 s, "
                                        "t2=6.9314e-318 s, period=2.07942e-317 s, frequency=inf Hz"),
    (astable_times, ("1", 1.0, 1.0), "ra: must be a finite number, got '1'"),
    (astable_times_cv, (1.0, 1.0, 1e-6, 12.0, 12.0), "v_ctl: must be inside (0, vcc), got 12.0 with vcc=12.0"),
    (astable_times_cv, (-1.0, 0.0, 1e-6, 12.0, 0.0), "v_ctl: must be inside (0, vcc), got 0.0 with vcc=12.0"),
    (astable_times_cv, (-1.0, 0.0, 1e-6, 12.0, 8.0), "ra: must be >= 0, got -1.0"),
    (astable_times_cv, (1.0, 1.0, 1e-6, math.nan, 8.0), "vcc: must be a finite number, got nan"),
    (astable_times_cv, (1.0, 1.0, 1e308, 12.0, 8.0), "astable times are not finite: t1=inf s, "
                                                     "t2=6.93147e+307 s, period=inf s, frequency=0 Hz"),
    (modulation_voltages, (0.0, 0.0), "vcc: must be > 0, got 0.0"),
    (modulation_voltages, (12.0, -1.0), "r9: must be > 0, got -1.0"),
    (modulation_voltages, (12.0, math.inf), "r9: must be a finite number, got inf"),
    (led_resistor, (2.2, 2.2, 0.01), "v_supply: must exceed v_led (2.2 <= 2.2)"),
    (led_resistor, (12.0, 2.2, 0.0), "i_led: must be > 0, got 0.0"),
    (led_resistor, (1.0, 2.2, -1.0), "v_supply: must exceed v_led (1.0 <= 2.2)"),
    (filter_capacitor, (0.0, 0.05, 12.0, 0.5), "f: must be > 0, got 0.0"),
    (filter_capacitor, (50.0, 1.0, 12.0, 0.5), "ripple_factor: must be in (0, 1), got 1.0"),
    (filter_capacitor, (50.0, 0.05, 0.0, 0.0), "v_reg: must be > 0, got 0.0"),
    (filter_capacitor, (50.0, 0.05, 12.0, 0), "i_reg: must be > 0, got 0"),
    (filter_capacitor, (-1.0, 2.0, -1.0, -1.0), "f: must be > 0, got -1.0"),
    (peak_inverse_voltage, (-1.0, 50.0), "v_secondary: must be >= 0, got -1.0"),
    (peak_inverse_voltage, (18.0, math.nan), "diode_rating: must be a finite number, got nan"),
    (base_resistor, (0.6, 0.6, 400.0, 25.0, 2.0), "vcc: must exceed v_be (0.6 <= 0.6)"),
    (base_resistor, (12.0, 0.6, 0.0, 25.0, 2.0), "coil_resistance: must be > 0, got 0.0"),
    (base_resistor, (12.0, 0.6, 400.0, 0.5, 2.0), "hfe: must be >= 1, got 0.5"),
    (base_resistor, (12.0, 0.6, 400.0, 25.0, 0.5), "saturation_factor: must be >= 1, got 0.5"),
    (base_resistor, (12.0, 0.6, 400.0, 0.5, 0.5), "hfe: must be >= 1, got 0.5"),
    (base_resistor, (12.0, 0.6, 1e9, 25.0, 1.0), "base resistance 2.38e+10Ω exceeds the 1e+07Ω cap; "
                                                 "the requested drive current is impractically small"),
    (amplifier_power, (0.5, 0.6, 300.0, 10.0), "vcc: must be >= v_be (0.5 < 0.6)"),
    (amplifier_power, (12.0, 0.6, 0.0, 10.0), "r_base: must be > 0, got 0.0"),
    (amplifier_power, (12.0, 0.6, 300.0, 0.0), "hfe: must be >= 1, got 0.0"),
    (amplifier_power, (12.0, 0.6, -1.0, 0.0), "r_base: must be > 0, got -1.0"),
    (trigger_threshold, (-1.0,), "vcc: must be >= 0, got -1.0"),
    (trigger_threshold, (math.nan,), "vcc: must be a finite number, got nan"),
    (filter_capacitor, (5e-324, 0.05, 12.0, 0.5), "4*sqrt(3)*f*y*r_load: must be > 0, got 0.0"),
    (modulation_voltages, (12.0, 1e-320), "1/r9: must be a finite number, got inf"),
    (modulation_voltages, (12.0, 5e-324), "1/r9: must be a finite number, got inf"),
    (base_resistor, (1e-300, 0.0, 1e300, 25.0, 2.0), "i_b: must be > 0, got 0.0"),
    (led_resistor, (1e300, 0.0, 1e-300), "r_ideal: snap needs a positive finite value, got inf"),
    (filter_capacitor, (1e-320, 0.05, 12.0, 0.5), "c_ideal: snap needs a positive finite value, got inf"),
    (monostable_period, (12.0, 1.7e308), "1.1*r*c: must be a finite number, got inf"),
    (led_resistor, (0.5, 5e-324, 1.7e308), "i_actual: must be a finite number, got inf"),
    (peak_inverse_voltage, (1.7e308, 1.0), "2*v_secondary: must be a finite number, got inf"),
    (amplifier_power, (1e300, 1e30, 1e-320, 1.0), "i_b: must be a finite number, got inf"),
    (modulation_voltages, (1.7976e308, 1.0), "v_ctl_high: must be a finite number, got inf"),
]

# (CircuitSpec overrides, the whole text of validate's rejection)
SPEC_REJECTIONS = [
    ({"r1": 0.0, "r2": 0.0}, "r1: must be > 0, got 0.0"),
    ({"c6": -1.0, "vcc": -1.0}, "c6: must be > 0, got -1.0"),
    ({"v_led": -1.0, "ripple_factor": 2.0}, "v_led: must be >= 0, got -1.0"),
    ({"ripple_factor": 1.0}, "ripple_factor: must be in (0, 1), got 1.0"),
    ({"ripple_factor": 0.0, "tr2_hfe": 0.5}, "ripple_factor: must be in (0, 1), got 0.0"),
    ({"tr2_hfe": 0.5}, "tr2_hfe: must be >= 1, got 0.5"),
    ({"tr1_saturation_factor": 0.5}, "tr1_saturation_factor: must be >= 1, got 0.5"),
    ({"vcc": 0.6}, "vcc: must exceed v_be"),
    ({"transformer_secondary": 11.0}, "transformer_secondary: must be >= regulator_voltage"),
    ({"fuse_rating": math.inf, "r3": math.nan}, "fuse_rating: must be a finite number, got inf"),
]


class TestRejectionText:
    @pytest.mark.parametrize("equation, args, message", REJECTIONS,
                             ids=[f"{fn.__name__}{args}" for fn, args, _ in REJECTIONS])
    def test_equation_rejection_is_pinned(self, equation, args, message):
        with pytest.raises(DesignError) as info:
            equation(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("overrides, message", SPEC_REJECTIONS,
                             ids=[",".join(overrides) for overrides, _ in SPEC_REJECTIONS])
    def test_spec_rejection_is_pinned(self, overrides, message):
        with pytest.raises(DesignError) as info:
            CircuitSpec(**overrides).validate()
        assert str(info.value) == message


# The ten public equations, and argument values at the edges of the float range
# where their arithmetic overflows or underflows.
EQUATIONS = (monostable_period, astable_times, astable_times_cv, modulation_voltages, led_resistor,
             filter_capacitor, peak_inverse_voltage, base_resistor, amplifier_power, trigger_threshold)
EDGES = (5e-324, 1e-320, 1e-300, 1e-30, 0.5, 1.0, 12.0, 1e30, 1e300, 1.7e308)
ARGUMENT = st.one_of(st.sampled_from(EDGES), st.floats())


class TestEquationsAreFinite:
    @given(call=st.one_of(*(st.tuples(st.just(fn), st.tuples(*[ARGUMENT] * len(inspect.signature(fn).parameters)))
                            for fn in EQUATIONS)))
    @example(call=(monostable_period, (12.0, 1.7e308)))
    @example(call=(led_resistor, (0.5, 5e-324, 1.7e308)))
    @example(call=(peak_inverse_voltage, (1.7e308, 1.0)))
    @example(call=(amplifier_power, (1e300, 1e30, 1e-320, 1.0)))
    @example(call=(modulation_voltages, (1.7976e308, 1.0)))
    @settings(max_examples=1000)
    def test_finite_results_or_design_error(self, call):
        equation, args = call
        try:
            result = equation(*args)
        except DesignError:
            return
        assert all(math.isfinite(x) for x in (result if isinstance(result, tuple) else (result,))), result
