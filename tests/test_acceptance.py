"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timeline_oracle as oracle
from touchalarm.cli import main
from touchalarm.design import (
    CircuitSpec,
    astable_times,
    astable_times_cv,
    compute_report,
    verify_reference_values,
)
from touchalarm.export import write_csv, write_wav
from touchalarm.simulator import (
    Scenario,
    ScenarioEvent,
    SimConfig,
    monte_carlo_timeout,
    run,
    timeout_samples,
)

GOLDEN = Path(__file__).parent / "golden"

SPEC = CircuitSpec()


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE PASS [{criterion:02d}] {message}")


def test_criterion_01_trigger_timeout():
    report = compute_report(SPEC)
    timeout = report.value("trigger_timeout")
    assert timeout == pytest.approx(11.374, rel=1e-3)
    _pass(1, f"trigger timeout {timeout:.6g} s == 11.374 s (0.1%)")


def test_criterion_02_high_stage_oscillator():
    report = compute_report(SPEC)
    assert report.value("high_t1") == pytest.approx(1.386e-3, rel=1e-3)
    assert report.value("high_t2") == pytest.approx(0.693e-3, rel=1e-3)
    assert report.value("high_period") == pytest.approx(2.079e-3, rel=1e-3)
    assert report.value("high_freq") == pytest.approx(481.0, abs=1.0)
    _pass(2, f"high stage t1/t2/period/f = 1.386ms/0.693ms/2.079ms/{report.value('high_freq'):.1f}Hz")


def test_criterion_03_errata_audit_golden(capsys):
    exit_code = main(["verify"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert out == (GOLDEN / "verify_default.txt").read_text(encoding="utf-8")

    expected = {
        "r1_ideal": "MATCH", "r1_snapped": "MATCH", "r2_ideal": "MATCH",
        "led2_current": "ERRATUM", "piv": "MATCH", "filter_c_ideal": "MATCH",
        "filter_c_snapped": "MATCH", "trigger_timeout": "MATCH",
        "trigger_i_c": "MATCH", "trigger_i_b": "MATCH", "r5_ideal": "ERRATUM",
        "high_t1": "MATCH", "high_t2": "MATCH", "high_freq": "MATCH",
        "high_duty": "ERRATUM", "low_t1": "ERRATUM", "low_t2": "ERRATUM",
        "low_period": "ERRATUM", "low_freq": "ERRATUM", "amp_i_b": "MATCH",
        "amp_i_e": "MATCH", "amp_p_out": "MATCH", "amp_gain": "ERRATUM",
    }
    errata = verify_reference_values(compute_report(SPEC))
    assert {e.name: e.verdict for e in errata} == expected
    _pass(3, "verify output matches the golden table and exits 1 (8 errata, 15 matches)")


def test_criterion_04_preferred_value_reproduction():
    from touchalarm.units import E6, E12, snap_preferred

    assert snap_preferred(451.43, E12, "nearest") == 470.0
    assert snap_preferred(980.0, E12, "nearest") == 1000.0
    assert snap_preferred(2405.6e-6, E6, "nearest") == 2200e-6
    assert snap_preferred(4750.0, E12, "nearest") == 4700.0
    _pass(4, "451.43->470, 980->1000, 2405.6u->2200u, 4750->4700 with one nearest rule")


def test_criterion_05_power_chain():
    report = compute_report(SPEC)
    piv = report.value("piv")
    assert piv == 36.0
    assert piv < SPEC.diode_piv_rating == 50.0
    assert report.value("filter_c_ideal") == pytest.approx(2405.6e-6, rel=1e-3)
    assert report.value("amp_p_out") == pytest.approx(5.016, rel=1e-3)
    assert SPEC.tr2_hfe == 10.0
    _pass(5, "PIV 36V < 50V, filter 2405.6uF (0.1%), p_out 5.016W (0.1%) at hfe=10")


def test_criterion_06_simulation_timeline():
    started = time.monotonic()
    scenario = Scenario((ScenarioEvent(1.0, "touch_start"),), 31.0)
    config = SimConfig(retrigger="one_shot")
    trace = run(SPEC, scenario, config)

    # trigger high exactly on [1.0, 12.374) at 16 kHz, one-sample slack at 12.374
    active = np.flatnonzero(trace.trigger_out)
    assert abs(active[0] - 16000) <= 1
    assert abs(active[-1] - (197984 - 1)) <= 1
    assert np.array_equal(active, np.arange(active[0], active[-1] + 1))

    supply, trigger, modulator, carrier, speaker = oracle.expected_channels(SPEC, scenario, config)
    np.testing.assert_array_equal(trace.trigger_out, np.asarray(trigger))
    np.testing.assert_array_equal(trace.supply_on, np.asarray(supply))
    np.testing.assert_array_equal(trace.modulator_high, np.asarray(modulator))
    np.testing.assert_array_equal(trace.carrier_freq, np.asarray(carrier))
    np.testing.assert_array_equal(trace.speaker, np.asarray(speaker))

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _pass(6, f"trigger window [1.0, 12.374) s exact vs analytic oracle in {elapsed:.2f}s")


@given(
    fail=st.floats(min_value=1.5, max_value=9.0),
    outage=st.floats(min_value=0.05, max_value=2.5),
    battery=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_criterion_07_failover_continuity(fail, outage, battery):
    restore = fail + outage
    scenario = Scenario(
        (
            ScenarioEvent(1.0, "touch_start"),
            ScenarioEvent(fail, "mains_fail"),
            ScenarioEvent(restore, "mains_restore"),
        ),
        13.0,
    )
    config = SimConfig(sample_rate=4000, battery_present=battery)
    trace = run(SPEC, scenario, config)
    silent_seconds = (trace.trigger_out & (trace.speaker == 0.0)).sum() / 4000
    if battery:
        expected = 2 * config.switchover_delay  # one gap per relay transition
    else:
        expected = (restore - fail) + config.switchover_delay
    assert silent_seconds == pytest.approx(expected, abs=2.5 / 4000)


def test_criterion_07_pass_line():
    _pass(7, "failover silence == switchover delay (battery) / outage+delay (no battery)")


def test_criterion_08_tolerance_study():
    started = time.monotonic()
    result = monte_carlo_timeout(SPEC, rel_tolerance=0.10, runs=10000, seed=42)
    samples = timeout_samples(SPEC, 0.10, 42, 0, 10000)
    nominal = 1.1 * SPEC.r3 * SPEC.c2
    assert np.all(samples >= nominal * 0.81)
    assert np.all(samples <= nominal * 1.21)
    assert np.all(samples >= 9.213)
    assert np.all(samples <= 13.762)
    assert result.contains(10.60)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _pass(8, f"10000 draws in [{result.min:.3f}, {result.max:.3f}] s contain 10.60 s ({elapsed:.2f}s)")


def test_criterion_09_modulation_model():
    rng = random.Random(0)
    for _ in range(1000):
        ra = rng.uniform(1.0, 1e6)
        rb = rng.uniform(1.0, 1e6)
        c = rng.uniform(1e-12, 1e-3)
        plain = astable_times(ra, rb, c)
        cv = astable_times_cv(ra, rb, c, 12.0, 8.0)
        assert abs(cv.frequency - plain.frequency) <= 1e-9 * plain.frequency
        assert abs(cv.t1 - plain.t1) <= 1e-9 * plain.t1

    report = compute_report(SPEC)
    assert report.value("f_lo_tone") == pytest.approx(477.1, abs=0.5)
    assert report.value("f_hi_tone") == pytest.approx(488.6, abs=0.5)
    _pass(9, f"cv==plain at 8V over 1000 inputs; carrier pair "
             f"({report.value('f_lo_tone'):.1f}, {report.value('f_hi_tone'):.1f}) Hz")


def test_criterion_10_export_exactness():
    scenario = Scenario((ScenarioEvent(0.0, "touch_start"),), 1.0)
    trace = run(SPEC, scenario, SimConfig())

    wav = write_wav(trace)
    assert len(wav) == 32044
    import struct

    header = struct.unpack("<4sI4s4sIHHIIHH4sI", wav[:44])
    assert header[0] == b"RIFF" and header[2] == b"WAVE"
    assert header[1] == len(wav) - 8
    assert header[12] == len(wav) - 44
    assert header[7] == 16000 and header[8] == 32000 and header[10] == 16

    csv_blob = write_csv(trace)
    rows = csv_blob.decode().splitlines()[1:]
    speaker = np.array([float(r.split(",")[5]) for r in rows])
    carrier = np.array([float(r.split(",")[4]) for r in rows])
    np.testing.assert_array_equal(speaker, trace.speaker)
    np.testing.assert_array_equal(carrier, trace.carrier_freq)

    again = run(SPEC, scenario, SimConfig())
    assert write_wav(again) == wav
    assert write_csv(again) == csv_blob
    _pass(10, "WAV exactly 32044 bytes w/ consistent header; CSV lossless; reruns byte-identical")
