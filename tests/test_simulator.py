"""Simulation engine against the analytic timeline oracle, plus Monte Carlo."""

import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import timeline_oracle as oracle
from touchalarm import design, simulator
from touchalarm.design import CircuitSpec, DesignError
from touchalarm.simulator import (
    MEASURED_TIMEOUT_SECONDS,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    SimConfig,
    SimulationError,
    Trace,
    TraceEvent,
    monte_carlo_timeout,
    parse_scenario,
    run,
)

SPEC = CircuitSpec()
TIMEOUT = 11.374  # 1.1 * 220e3 * 47e-6, exact in binary

EXPECTED_AMPLITUDE = math.sqrt(((12.0 - 0.6) / 300.0) * 11.0 * 12.0 * 8.0)


def _scenario(*events, duration):
    return Scenario(tuple(ScenarioEvent(t, k) for t, k in events), duration)


def assert_matches_oracle(scenario, config):
    trace = run(SPEC, scenario, config)
    supply, trigger, modulator, carrier, speaker = oracle.expected_channels(SPEC, scenario, config)
    np.testing.assert_array_equal(trace.supply_on, np.asarray(supply))
    np.testing.assert_array_equal(trace.trigger_out, np.asarray(trigger))
    np.testing.assert_array_equal(trace.modulator_high, np.asarray(modulator))
    np.testing.assert_array_equal(trace.carrier_freq, np.asarray(carrier))
    np.testing.assert_array_equal(trace.speaker, np.asarray(speaker))
    return trace


class TestScenarioParsing:
    def test_basic(self):
        scenario = parse_scenario("1.0 touch_start\n1.2 touch_end\nduration 20\n")
        assert scenario.events == (
            ScenarioEvent(1.0, "touch_start"), ScenarioEvent(1.2, "touch_end"),
        )
        assert scenario.duration == 20.0

    def test_comments_and_blanks(self):
        scenario = parse_scenario("# intruder\n\n1.0 touch_start  # contact\n")
        assert len(scenario.events) == 1

    def test_default_duration_is_last_event_plus_30(self):
        assert parse_scenario("1.0 touch_start\n").duration == 31.0

    def test_default_duration_empty(self):
        assert parse_scenario("").duration == 30.0

    def test_non_monotonic_times(self):
        with pytest.raises(ScenarioError, match="non-decreasing"):
            parse_scenario("5 mains_fail\n3 touch_start\n")

    def test_touch_alternation(self):
        with pytest.raises(ScenarioError, match="alternation"):
            parse_scenario("1 touch_start\n2 touch_start\n")

    def test_mains_alternation(self):
        with pytest.raises(ScenarioError, match="alternation"):
            parse_scenario("1 mains_restore\n")

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="unknown event kind"):
            parse_scenario("1 earthquake\n")

    def test_bad_time(self):
        with pytest.raises(ScenarioError, match="bad time"):
            parse_scenario("soon touch_start\n")

    def test_duplicate_duration(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("duration 5\nduration 6\n")

    def test_duration_before_last_event(self):
        with pytest.raises(ScenarioError, match="duration"):
            parse_scenario("10 touch_start\nduration 5\n")

    def test_negative_time(self):
        with pytest.raises(ScenarioError):
            Scenario((ScenarioEvent(-1.0, "touch_start"),), 10.0).validate()

    def test_event_budget(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_EVENTS", 2)
        assert len(parse_scenario("1 touch_start\n2 touch_end\nduration 5\n").events) == 2
        with pytest.raises(ScenarioError, match=r"^line 4: more than 2 events, over the limit$"):
            parse_scenario("1 touch_start\n2 touch_end\n# a comment\n3 mains_fail\n")

    def test_unknown_kind_names_its_line(self):
        with pytest.raises(ScenarioError, match=r"^line 1: unknown event kind 'earthquake'$"):
            parse_scenario("1 earthquake\n")

    @pytest.mark.parametrize("events", [["earthquake"], ["touch_start", "touch_stop"],
                                        ["mains_fail", None]])
    def test_library_scenario_refuses_unknown_kind(self, events):
        scenario = Scenario(tuple(ScenarioEvent(1.0, kind) for kind in events), 5.0)
        with pytest.raises(ScenarioError, match=rf"^{events[-1]} at 1.0 breaks alternation"):
            scenario.validate()

    def test_each_kind_alternates_with_its_partner(self):
        # EVENT_KINDS lists each kind beside its partner: start/end, fail/restore
        assert simulator.EVENT_KINDS == ("touch_start", "touch_end", "mains_fail", "mains_restore")
        parse_scenario("1 touch_start\n1 mains_fail\n2 touch_end\n2 mains_restore\n3 touch_start\n")


class TestOracleEquivalence:
    """Sampled traces must agree with the analytic timeline at every point."""

    def test_one_shot_touch(self):
        config = SimConfig(sample_rate=2000, retrigger="one_shot")
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=20.0)
        trace = assert_matches_oracle(scenario, config)
        assert trace.alarm_windows == ((1.0, 1.0 + TIMEOUT),)

    def test_empty_scenario_is_silent(self):
        trace = assert_matches_oracle(Scenario((), 5.0), SimConfig(sample_rate=2000))
        assert not trace.trigger_out.any()
        assert not trace.speaker.any()
        assert trace.supply_on.all()

    def test_mains_fail_with_battery(self):
        config = SimConfig(sample_rate=2000, retrigger="one_shot")
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"), (5.0, "mains_fail"), duration=20.0
        )
        assert_matches_oracle(scenario, config)

    def test_outage_without_battery(self):
        config = SimConfig(sample_rate=2000, battery_present=False)
        scenario = _scenario(
            (1.0, "touch_start"), (5.0, "mains_fail"), (7.0, "mains_restore"), duration=20.0
        )
        assert_matches_oracle(scenario, config)

    def test_level_sensitive_held_touch(self):
        config = SimConfig(sample_rate=2000)
        scenario = _scenario((0.5, "touch_start"), (14.0, "touch_end"), duration=20.0)
        trace = assert_matches_oracle(scenario, config)
        assert trace.alarm_windows == ((0.5, 14.0),)

    def test_ideal_pair_model(self):
        config = SimConfig(sample_rate=2000, ideal_pair=(440.0, 550.0), retrigger="one_shot")
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=20.0)
        trace = assert_matches_oracle(scenario, config)
        sounding = trace.carrier_freq > 0
        assert set(np.unique(trace.carrier_freq[sounding])) == {440.0, 550.0}

    def test_restore_mid_window(self):
        config = SimConfig(sample_rate=2000, retrigger="one_shot")
        scenario = _scenario(
            (0.2, "mains_fail"), (0.4, "mains_restore"),
            (1.0, "touch_start"), (1.1, "touch_end"), duration=15.0
        )
        assert_matches_oracle(scenario, config)

    @pytest.mark.parametrize("battery", [True, False])
    def test_zero_switchover_delay(self, battery):
        # a zero-length relay gap blanks nothing and leaves the modulator phase alone
        config = SimConfig(sample_rate=2000, switchover_delay=0.0, battery_present=battery)
        scenario = _scenario(
            (1.0, "touch_start"), (5.0, "mains_fail"), (7.0, "mains_restore"),
            (9.0, "mains_fail"), (9.0, "mains_restore"), duration=14.0
        )
        trace = assert_matches_oracle(scenario, config)
        supply_lines = [e for e in trace.events if e.what.startswith("supply")]
        assert supply_lines == ([] if battery else [
            TraceEvent(5.0, "supply off (mains failed, no battery)"),
            TraceEvent(7.0, "supply on (switchover complete)"),
        ])


EVENT_LOG_GOLDEN = Path(__file__).parent / "golden" / "event_log.txt"

# name -> (events, duration, config); rendered at 2 kHz into the golden file.
EVENT_LOG_CASES = {
    "level_sensitive_retrigger_extension": (
        [(1.0, "touch_start"), (1.2, "touch_end"), (5.0, "touch_start"), (5.2, "touch_end")],
        20.0, SimConfig(sample_rate=2000),
    ),
    "one_shot_retrigger_ignored": (
        [(1.0, "touch_start"), (1.2, "touch_end"), (5.0, "touch_start"), (5.2, "touch_end")],
        14.0, SimConfig(sample_rate=2000, retrigger="one_shot"),
    ),
    "battery_outage_inside_window": (
        [(1.0, "touch_start"), (1.2, "touch_end"), (5.0, "mains_fail"), (8.0, "mains_restore")],
        14.0, SimConfig(sample_rate=2000, retrigger="one_shot"),
    ),
    "no_battery_outage_restored_inside_window": (
        [(1.0, "touch_start"), (1.2, "touch_end"), (5.0, "mains_fail"), (7.0, "mains_restore")],
        14.0, SimConfig(sample_rate=2000, battery_present=False),
    ),
    "mains_events_at_touch_start": (
        [(1.0, "mains_fail"), (1.0, "touch_start"), (1.2, "touch_end"),
         (13.0, "touch_start"), (13.0, "mains_restore"), (13.2, "touch_end")],
        26.0, SimConfig(sample_rate=2000, retrigger="one_shot"),
    ),
    "mains_events_at_touch_start_no_battery": (
        [(1.0, "mains_fail"), (1.0, "touch_start"), (1.2, "touch_end"),
         (13.0, "touch_start"), (13.0, "mains_restore"), (13.2, "touch_end")],
        26.0, SimConfig(sample_rate=2000, retrigger="one_shot", battery_present=False),
    ),
}


def render_event_logs() -> str:
    """Every case's ``Trace.events`` as ``[name]`` blocks of ``repr(time)<TAB>what``."""
    blocks = []
    for name, (events, duration, config) in EVENT_LOG_CASES.items():
        trace = run(SPEC, _scenario(*events, duration=duration), config)
        lines = [f"[{name}]"] + [f"{e.time!r}\t{e.what}" for e in trace.events]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


class TestEventLog:
    def test_golden_event_logs(self):
        assert render_event_logs() == EVENT_LOG_GOLDEN.read_text(encoding="utf-8")

    def test_siren_off_cause_belongs_to_its_own_segment(self):
        # The second window opens at 11.374, where the first one closes and
        # the mains fail: its zero-length segment ends because the supply drops.
        scenario = _scenario(
            (0.0, "touch_start"), (0.1, "touch_end"), (TIMEOUT, "touch_start"),
            (TIMEOUT, "mains_fail"), (12.0, "touch_end"), duration=13.0,
        )
        trace = run(SPEC, scenario, SimConfig())
        siren = [(e.time, e.what) for e in trace.events if e.what.startswith("siren")]
        assert siren == [
            (0.0, "siren on (alarm onset, modulator phase reset)"),
            (TIMEOUT, "siren off (window closed)"),
            (TIMEOUT, "siren on (alarm onset, modulator phase reset)"),
            (TIMEOUT, "siren off (supply lost)"),
            (TIMEOUT + 0.010, "siren on (supply restored, modulator phase reset)"),
        ]

    def test_segment_after_the_end_is_clipped(self):
        # The relay gap ends at 10.005, past the end: the sounding segment
        # it opens is dropped from the log and the intervals alike.
        scenario = _scenario((1.0, "touch_start"), (9.995, "mains_fail"), duration=10.0)
        trace = assert_matches_oracle(scenario, SimConfig(sample_rate=2000))
        assert max(e.time for e in trace.events) <= 10.0
        assert trace.sounding_intervals == ((1.0, 9.995),)


class TestTriggerWindow:
    def test_window_edges_at_16k(self):
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=14.0)
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        active = np.nonzero(trace.trigger_out)[0]
        assert active[0] == 16000  # t = 1.0 exactly
        assert active[-1] == 197983  # last sample below 12.374
        assert np.array_equal(active, np.arange(16000, 197984))

    def test_one_shot_retrigger_extends_nothing(self):
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"),
            (5.0, "touch_start"), (5.2, "touch_end"), duration=20.0
        )
        trace = run(SPEC, scenario, SimConfig(sample_rate=2000, retrigger="one_shot"))
        assert trace.alarm_windows == ((1.0, 1.0 + TIMEOUT),)
        assert trace.trigger_out.sum() == pytest.approx(TIMEOUT * 2000, abs=1)

    def test_one_shot_separated_touches_sum(self):
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"),
            (15.0, "touch_start"), (15.2, "touch_end"), duration=30.0
        )
        trace = run(SPEC, scenario, SimConfig(sample_rate=2000, retrigger="one_shot"))
        assert len(trace.alarm_windows) == 2
        assert trace.trigger_out.sum() == pytest.approx(2 * TIMEOUT * 2000, abs=2)

    def test_level_sensitive_retrigger_extends(self):
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"),
            (5.0, "touch_start"), (5.2, "touch_end"), duration=30.0
        )
        trace = run(SPEC, scenario, SimConfig(sample_rate=2000))
        assert trace.alarm_windows == ((1.0, 5.0 + TIMEOUT),)

    def test_level_sensitive_end_is_max_of_release_and_timeout(self):
        scenario = _scenario((1.0, "touch_start"), (20.0, "touch_end"), duration=25.0)
        trace = run(SPEC, scenario, SimConfig(sample_rate=2000))
        assert trace.alarm_windows == ((1.0, 20.0),)
        scenario = _scenario((1.0, "touch_start"), (2.0, "touch_end"), duration=25.0)
        trace = run(SPEC, scenario, SimConfig(sample_rate=2000))
        assert trace.alarm_windows == ((1.0, 1.0 + TIMEOUT),)


class TestFailover:
    def test_battery_gap_is_exactly_the_switchover_delay(self):
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"), (5.0, "mains_fail"), duration=14.0
        )
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        in_window = (trace.times >= 1.0) & (trace.times < 1.0 + TIMEOUT)
        silent = in_window & (trace.speaker == 0.0)
        assert silent.sum() == 160  # 10 ms at 16 kHz
        silent_times = trace.times[silent]
        assert silent_times[0] > 5.0
        assert silent_times[-1] <= 5.0 + 0.010

    def test_silence_implies_logged_supply_gap(self):
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"),
            (5.0, "mains_fail"), (8.0, "mains_restore"), duration=14.0
        )
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        offs = [e.time for e in trace.events if e.what.startswith("supply off")]
        ons = [e.time for e in trace.events if e.what.startswith("supply on")]
        in_window = (trace.times >= 1.0) & (trace.times < 1.0 + TIMEOUT)
        silent = in_window & (trace.speaker == 0.0)
        edges = np.flatnonzero(np.diff(silent.astype(int)))
        starts = trace.times[edges[::2] + 1]
        ends = trace.times[edges[1::2]]
        assert len(starts) == len(offs) == len(ons) == 2
        for start, end, off_t, on_t in zip(starts, ends, offs, ons):
            assert abs(start - off_t) <= 1.5 / 16000
            assert abs(end - on_t) <= 1.5 / 16000

    def test_no_battery_outage_spans_to_restore_plus_delay(self):
        scenario = _scenario(
            (1.0, "touch_start"), (5.0, "mains_fail"), (8.0, "mains_restore"), duration=14.0
        )
        trace = run(SPEC, scenario, SimConfig(battery_present=False))
        off = ~trace.supply_on
        off_times = trace.times[off]
        assert off_times[0] > 5.0
        assert off_times[-1] <= 8.0 + 0.010
        assert off.sum() / 16000 == pytest.approx(3.010, abs=2 / 16000)

    def test_unrestored_outage_without_battery_lasts_to_the_end(self):
        # the window outlives the scenario; the siren must not come back at the end
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"), (5.0, "mains_fail"), duration=10.0
        )
        config = SimConfig(sample_rate=2000, retrigger="one_shot", battery_present=False)
        trace = run(SPEC, scenario, config)
        assert [e for e in trace.events if e.what.startswith("siren")] == [
            TraceEvent(1.0, "siren on (alarm onset, modulator phase reset)"),
            TraceEvent(5.0, "siren off (supply lost)"),
        ]
        assert trace.sounding_intervals == ((1.0, 5.0),)
        assert not trace.supply_on[trace.times > 5.0].any()

    @given(
        fail=st.floats(min_value=1.5, max_value=9.0),
        outage=st.floats(min_value=0.05, max_value=3.0),
        battery=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_silent_time_property(self, fail, outage, battery):
        restore = fail + outage
        scenario = _scenario(
            (1.0, "touch_start"),
            (fail, "mains_fail"), (restore, "mains_restore"), duration=13.0
        )
        config = SimConfig(sample_rate=4000, battery_present=battery)
        trace = run(SPEC, scenario, config)
        in_window = trace.trigger_out
        silent_seconds = ((in_window & (trace.speaker == 0.0)).sum()) / 4000
        if battery:
            # one gap after the failure, one after the restore
            expected = 2 * config.switchover_delay
        else:
            expected = (restore - fail) + config.switchover_delay
        assert silent_seconds == pytest.approx(expected, abs=2.5 / 4000)


class TestSiren:
    def test_modulator_flip_count_over_stock_window(self):
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=14.0)
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        window = (trace.times >= 1.0) & (trace.times < 1.0 + TIMEOUT)
        flips = np.count_nonzero(np.diff(trace.modulator_high[window]))
        assert abs(flips - 15) <= 1  # floor(2 · f_low · 11.374) = 15

    def test_both_carrier_tones_occur_with_spec_durations(self):
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=14.0)
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        sounding = trace.carrier_freq > 0
        tones = np.unique(trace.carrier_freq[sounding])
        assert len(tones) == 2
        assert tones[0] == pytest.approx(477.1, abs=0.5)
        assert tones[1] == pytest.approx(488.6, abs=0.5)
        # segment lengths follow the low-stage t1 (high) and t2 (low)
        ln2 = math.log(2.0)
        t1, t2 = ln2 * 23e3 * 47e-6, ln2 * 22e3 * 47e-6
        mod = trace.modulator_high[sounding]
        edges = np.flatnonzero(np.diff(mod.astype(int)))
        # complete interior runs alternate t2 (low), t1 (high), t2, ...
        runs = np.diff(edges) / 16000
        expected_cycle = [t2, t1]
        for index, length in enumerate(runs):
            assert length == pytest.approx(expected_cycle[index % 2], abs=1.5 / 16000)

    def test_speaker_amplitude_and_gating(self):
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=14.0)
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        nonzero = trace.speaker != 0.0
        assert trace.amplitude == pytest.approx(EXPECTED_AMPLITUDE, rel=1e-12)
        assert trace.amplitude == pytest.approx(6.335, abs=5e-4)
        assert np.all(np.isin(trace.speaker[nonzero], [trace.amplitude, -trace.amplitude]))
        assert not np.any(nonzero & ~(trace.trigger_out & trace.supply_on))

    def test_carrier_is_zero_or_one_of_the_pair(self):
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), duration=14.0)
        trace = run(SPEC, scenario, SimConfig(retrigger="one_shot"))
        values = set(np.unique(trace.carrier_freq))
        assert len(values) == 3 and 0.0 in values


class TestRunValidation:
    def test_nyquist_bound(self):
        with pytest.raises(SimulationError, match="Nyquist"):
            run(SPEC, Scenario((), 1.0), SimConfig(sample_rate=900))

    def test_modulator_nyquist_bound(self):
        # c6 = 1p puts the modulator at about 32 MHz
        with pytest.raises(SimulationError, match="Nyquist bound for the 3.206e\\+07 Hz modulator"):
            run(CircuitSpec(c6=1e-12), _scenario((1.0, "touch_start"), duration=30.0), SimConfig())

    @pytest.mark.parametrize("sample_rate", [2000, 8001, 44100])
    def test_times_are_the_sample_grid(self, sample_rate):
        assert "times" not in Trace._fields
        trace = run(SPEC, _scenario((0.5, "touch_start"), duration=1.5),
                    SimConfig(sample_rate=sample_rate))
        expected = np.array([k / sample_rate for k in range(round(1.5 * sample_rate))])
        assert trace.times.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    def test_sample_budget(self, monkeypatch):
        monkeypatch.setattr("touchalarm.simulator.MAX_SAMPLES", 16000)
        assert run(SPEC, Scenario((), 1.0), SimConfig()).n_samples == 16000
        with pytest.raises(SimulationError, match="needs 1.602e\\+04 samples, over the limit of 16000"):
            run(SPEC, Scenario((), 1.001), SimConfig())

    def test_log_event_budget(self, monkeypatch):
        monkeypatch.setattr("touchalarm.simulator.MAX_LOG_EVENTS", 10)
        short = run(SPEC, _scenario((1.0, "touch_start"), duration=6.0), SimConfig())
        assert 0 < sum(e.what.startswith("modulator") for e in short.events) <= 10
        with pytest.raises(SimulationError, match="log events, over the limit of 10"):
            run(SPEC, _scenario((1.0, "touch_start"), duration=9.0), SimConfig())

    def test_bad_spec_propagates(self):
        with pytest.raises(DesignError, match="c2"):
            run(CircuitSpec(c2=0.0), Scenario((), 1.0), SimConfig())

    @pytest.mark.parametrize("spec", [CircuitSpec(vcc=1e200), CircuitSpec(speaker_impedance=1e308)],
                             ids=["power", "impedance"])
    def test_overflowing_amplitude_is_a_design_error(self, spec):
        with pytest.raises(DesignError, match=r"^siren amplitude sqrt\(.* is not finite$"):
            simulator.timeline(spec, _scenario((1.0, "touch_start"), duration=2.0))

    def test_record_defaults(self):
        assert Scenario() == Scenario(events=(), duration=30.0)
        assert SimConfig()._asdict() == {
            "sample_rate": 16000, "switchover_delay": 0.010, "battery_present": True,
            "ideal_pair": None, "retrigger": "level_sensitive",
        }

    def test_bad_scenario(self):
        bad = Scenario((ScenarioEvent(5.0, "touch_start"),), 1.0)
        with pytest.raises(ScenarioError):
            run(SPEC, bad, SimConfig())

    def test_bad_config(self):
        with pytest.raises(SimulationError):
            SimConfig(retrigger="sometimes").validate()
        with pytest.raises(SimulationError):
            SimConfig(switchover_delay=-1.0).validate()
        with pytest.raises(SimulationError):
            SimConfig(ideal_pair=(440.0,)).validate()
        with pytest.raises(SimulationError):
            SimConfig(ideal_pair=(440.0, -1.0)).validate()
        for bad in (math.inf, math.nan):
            with pytest.raises(SimulationError, match=f"frequencies must be finite and > 0, got {bad}"):
                SimConfig(ideal_pair=(440.0, bad)).validate()
        with pytest.raises(SimulationError, match="sample_rate is too large to convert to a float"):
            SimConfig(sample_rate=10**400).validate()

    def test_determinism(self):
        scenario = _scenario(
            (1.0, "touch_start"), (1.2, "touch_end"), (5.0, "mains_fail"), duration=14.0
        )
        first = run(SPEC, scenario, SimConfig())
        second = run(SPEC, scenario, SimConfig())
        np.testing.assert_array_equal(first.speaker, second.speaker)
        np.testing.assert_array_equal(first.carrier_freq, second.carrier_freq)
        assert first.events == second.events
        assert first.alarm_windows == second.alarm_windows


class Channels(NamedTuple):
    """The sampled channels of a ``Trace``, under its names, with the times as an array."""

    times: np.ndarray
    supply_on: np.ndarray
    trigger_out: np.ndarray
    modulator_high: np.ndarray
    carrier_freq: np.ndarray
    speaker: np.ndarray


def reference_channels(whole, i0, i1):
    """Samples ``i0..i1`` of every channel, the siren computed sample by sample.

    The segment body that ``Timeline.render`` replaced, kept as the
    bit-for-bit reference for it: each segment's sounding samples are found
    with ``flatnonzero``, the modulator position is a per-sample ``fmod``, the
    carrier parity a float ``% 2``, and all of it is scattered back by index.
    """
    times = np.arange(i0, i1, dtype=np.float64) / whole.sample_rate
    n = len(times)
    supply, trigger = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    for start, end in whole.alarm_windows:
        trigger[np.searchsorted(times, start, "left"):np.searchsorted(times, end, "left")] = True
    for a, b in whole.off_spans:
        supply[np.searchsorted(times, a, "right"):np.searchsorted(times, b, "right")] = False
    sounding = trigger & supply
    modulator_high = np.zeros(n, dtype=bool)
    carrier, speaker = np.zeros(n), np.zeros(n)
    period, t1 = whole.modulator.period, whole.modulator.t1
    freq_mod_high, freq_mod_low = whole.carrier_pair
    for ref, end, _on, _off in whole.segments:
        lo = int(np.searchsorted(times, ref, "left"))
        index = lo + np.flatnonzero(sounding[lo:np.searchsorted(times, end, "right")])
        position = np.fmod(times[index] - ref, period)
        high = position < t1
        freq = np.where(high, freq_mod_high, freq_mod_low)
        phase = np.where(high, position, position - t1)
        parity = np.floor(2.0 * freq * phase) % 2
        modulator_high[index] = high
        carrier[index] = freq
        speaker[index] = whole.amplitude * np.where(parity == 0, 1.0, -1.0)
    return Channels(times, supply, trigger, modulator_high, carrier, speaker)


def assert_channels_match_reference(whole, cuts=()):
    """``render`` over pieces cut at ``cuts`` equals ``reference_channels``, bit for bit."""
    n = whole.n_samples
    bounds = sorted({0, n, *(c for c in cuts if 0 <= c <= n)})
    pieces = [whole.render(i0, i1) for i0, i1 in zip(bounds, bounds[1:])]
    expected = reference_channels(whole, 0, n)
    for name, want in expected._asdict().items():
        got = np.concatenate([getattr(piece, name) for piece in pieces]) if pieces else want[:0]
        assert got.dtype == want.dtype, name
        bits = np.uint64 if want.dtype == np.float64 else np.uint8
        assert np.array_equal(got.view(bits), want.view(bits)), name
    return expected


# 1.137 ms and 113.7 ms trigger timeouts, both with a 3.1 ms modulator.
FAST = CircuitSpec(c2=4.7e-9, c6=100e-9)
MEDIUM = CircuitSpec(c2=470e-9, c6=100e-9)
CHANNEL_RATES = [16000, 44100, 48000, 8001, 9973]
TOGGLES = {"touch": ("touch_start", "touch_end"), "mains": ("mains_fail", "mains_restore")}


def cycle_starts(chunk):
    """Samples where a modulator cycle starts inside a sounding stretch."""
    high, sounding = chunk.modulator_high, chunk.carrier_freq != 0
    return (1 + np.flatnonzero(high[1:] & ~high[:-1] & sounding[:-1])).tolist()


class TestChannelsMatchReference:
    """``Timeline.render`` against the per-sample ``reference_channels``."""

    @pytest.mark.parametrize("ideal_pair", [None, (470.0, 490.0)])
    @pytest.mark.parametrize("retrigger", ["level_sensitive", "one_shot"])
    @pytest.mark.parametrize("rate", CHANNEL_RATES)
    def test_stock_circuit_with_relay_gaps(self, rate, retrigger, ideal_pair):
        # Relay gaps at 3.3 s and 7.05 s restart the 1.47 s modulator mid-cycle.
        scenario = _scenario((1.0, "touch_start"), (1.2, "touch_end"), (3.3, "mains_fail"),
                             (7.05, "mains_restore"), (12.0, "touch_start"), duration=16.0)
        for battery in (True, False):
            config = SimConfig(sample_rate=rate, retrigger=retrigger, ideal_pair=ideal_pair,
                               battery_present=battery)
            whole = simulator.timeline(SPEC, scenario, config)
            cuts = range(0, whole.n_samples, 5 * rate + 17)
            expected = assert_channels_match_reference(whole, cuts)
            assert expected.speaker.any() and len(whole.segments) >= 2

    @pytest.mark.parametrize("retrigger", ["level_sensitive", "one_shot"])
    @pytest.mark.parametrize("rate", CHANNEL_RATES)
    def test_fast_modulator_cut_at_cycle_starts(self, rate, retrigger):
        scenario = _scenario((0.01, "touch_start"), (0.05, "mains_fail"), (0.0713, "mains_restore"),
                             (0.2, "touch_end"), (0.3, "touch_start"), (0.5, "touch_end"),
                             duration=0.6)
        config = SimConfig(sample_rate=rate, retrigger=retrigger, switchover_delay=0.0037)
        whole = simulator.timeline(MEDIUM, scenario, config)
        starts = cycle_starts(reference_channels(whole, 0, whole.n_samples))
        assert len(starts) > 10
        # a chunk edge on a cycle start, and one sample to either side of it
        for shift in (0, -1, 1):
            assert_channels_match_reference(whole, [b + shift for b in starts[::3]])

    def test_cycle_start_where_the_rounded_period_multiple_is_a_sample(self):
        """``k·period`` rounds down onto a sample, which still belongs to cycle k - 1."""
        rate, k, sample = 16000, 7, 3 * 16000 + 1234
        elapsed = sample / rate  # the window opens at 0, so this is the sample's elapsed time
        period = next(p for p in (elapsed / k + ulps * np.spacing(elapsed / k) for ulps in range(-8, 9))
                      if k * p == elapsed and Fraction(k) * Fraction(p) > Fraction(elapsed))
        whole = simulator.timeline(SPEC, _scenario((0.0, "touch_start"), duration=4.0),
                                   SimConfig(sample_rate=rate))
        t1 = 0.4 * period
        whole = whole._replace(modulator=design.AstableTimes(
            t1, period - t1, period, 1.0 / period, t1 / period))
        for cuts in ([], [sample - 1], [sample + 2]):
            expected = assert_channels_match_reference(whole, cuts)
        assert sample not in cycle_starts(expected) and sample + 1 in cycle_starts(expected)

    @given(
        rate=st.sampled_from(CHANNEL_RATES + [1000, 3]),
        i0=st.sampled_from([0, 1, 12345, 2**26 - 5000]),
        n=st.integers(1, 5000),
        ref=st.sampled_from([0.0, 0.5, 1.0]),
        tie=st.floats(0, 1),
        cycles=st.integers(1, 60),
        ulps=st.integers(-3, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_position_is_fmod(self, rate, i0, n, ref, tie, cycles, ulps):
        """Periods within a few ulps of ``elapsed / cycles`` for one sample, at the ends
        or inside, so ``cycles·period`` rounds onto, past or short of that sample."""
        times = np.arange(i0, i0 + n) / rate
        elapsed = times - ref * times[0]
        tie = int(tie * (n - 1))
        period = elapsed[tie] / cycles
        for _ in range(abs(ulps)):
            period = np.nextafter(period, np.inf if ulps > 0 else 0)
        assume(period > 2.0 / rate)
        whole = simulator.timeline(SPEC, Scenario((), 0.0), SimConfig())
        whole = whole._replace(modulator=design.AstableTimes(
            0.5 * period, 0.5 * period, period, 1.0 / period, 0.5))
        got = whole._position(elapsed.copy())
        assert np.array_equal(got.view(np.uint64), np.fmod(elapsed, period).view(np.uint64))

    @given(
        rate=st.sampled_from(CHANNEL_RATES + [8192, 22050]),
        marks=st.lists(st.integers(0, 6000), min_size=1, max_size=7).map(sorted),
        offset=st.sampled_from([0.0, 0.0, 0.25, 0.5, 1e-3]),
        groups=st.lists(st.sampled_from(sorted(TOGGLES)), min_size=7, max_size=7),
        tail=st.integers(0, 3000),
        circuit=st.sampled_from([FAST, MEDIUM, SPEC]),
        switchover=st.sampled_from([0.0, 0.001, 0.0123, 37]),
        battery=st.booleans(),
        ideal_pair=st.sampled_from([None, (470.0, 490.0), (1234.5, 333.25)]),
        retrigger=st.sampled_from(["level_sensitive", "one_shot"]),
        cuts=st.lists(st.floats(0, 1), max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_property(self, rate, marks, offset, groups, tail, circuit, switchover, battery,
                      ideal_pair, retrigger, cuts):
        # Events on or just past sample times; a relay gap of 37 samples ends on one.
        held = {"touch": False, "mains": False}
        events = []
        for mark, group in zip(marks, groups):
            events.append(ScenarioEvent((mark + offset) / rate, TOGGLES[group][held[group]]))
            held[group] = not held[group]
        scenario = Scenario(tuple(events), (marks[-1] + offset + tail) / rate)
        config = SimConfig(sample_rate=rate, battery_present=battery, ideal_pair=ideal_pair,
                           retrigger=retrigger,
                           switchover_delay=switchover / rate if switchover == 37 else switchover)
        whole = simulator.timeline(circuit, scenario, config)
        assert_channels_match_reference(whole, [int(c * whole.n_samples) for c in cuts])


def reference_samples(spec, rel_tolerance, seed, indices):
    """The per-run generator loop ``monte_carlo_timeout`` replaces, for the given runs."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    r3_lo, r3_hi = spec.r3 * (1.0 - rel_tolerance), spec.r3 * (1.0 + rel_tolerance)
    c2_lo, c2_hi = spec.c2 * (1.0 - rel_tolerance), spec.c2 * (1.0 + rel_tolerance)
    samples = np.empty(len(indices), dtype=np.float64)
    for k, index in enumerate(indices):
        rng = np.random.default_rng((seed, int(index)))
        r3 = rng.uniform(r3_lo, r3_hi)
        c2 = rng.uniform(c2_lo, c2_hi)
        samples[k] = design.monostable_period(r3, c2, "approx")
    return samples


def assert_bit_identical(actual, expected):
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestMonteCarloMatchesGenerators:
    """Block computation against one ``default_rng((seed, i))`` per run."""

    # 6 × 17000 = 102000 (seed, index) pairs, over blocks of 4096 runs
    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 - 1, -7])
    def test_bit_identical(self, monkeypatch, seed):
        monkeypatch.setattr(simulator, "_BLOCK", 4096)
        result = monte_carlo_timeout(SPEC, 0.10, 17000, seed)
        assert_bit_identical(result.samples, reference_samples(SPEC, 0.10, seed, range(17000)))

    def test_across_the_default_block_boundary(self):
        runs = simulator._BLOCK + 40
        samples = monte_carlo_timeout(SPEC, 0.10, runs, 123).samples
        edge = range(simulator._BLOCK - 40, runs)
        assert_bit_identical(samples[edge.start:], reference_samples(SPEC, 0.10, 123, edge))

    @given(
        r3=st.floats(min_value=1.0, max_value=1e9),
        c2=st.floats(min_value=1e-12, max_value=1.0),
        tol=st.floats(min_value=1e-12, max_value=0.99),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        runs=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, r3, c2, tol, seed, runs):
        spec = CircuitSpec(r3=r3, c2=c2)
        result = monte_carlo_timeout(spec, tol, runs, seed)
        assert_bit_identical(result.samples, reference_samples(spec, tol, seed, range(runs)))

    def test_zero_resistor_draw_is_a_design_error(self):
        # r3·(1 − tol) underflows to 0, so some draws are exactly 0 ohm
        spec = CircuitSpec(r3=5e-324)
        with pytest.raises(DesignError, match="r: must be > 0"):
            reference_samples(spec, 0.9, 0, range(100))
        with pytest.raises(DesignError, match="r: must be > 0"):
            monte_carlo_timeout(spec, 0.9, 100, 0)


class TestMonteCarlo:
    def test_interval_bound(self):
        result = monte_carlo_timeout(SPEC, 0.10, 2000, 7)
        lo = 1.1 * SPEC.r3 * SPEC.c2 * 0.81
        hi = 1.1 * SPEC.r3 * SPEC.c2 * 1.21
        assert result.min >= lo
        assert result.max <= hi
        assert result.min <= result.mean <= result.max
        assert len(result.samples) == result.runs == 2000

    def test_contains_measured_timeout(self):
        result = monte_carlo_timeout(SPEC, 0.10, 10000, 42)
        assert result.contains(MEASURED_TIMEOUT_SECONDS)

    def test_tight_band_excludes_measured(self):
        result = monte_carlo_timeout(SPEC, 0.001, 100, 42)
        assert not result.contains(MEASURED_TIMEOUT_SECONDS)
        assert result.min >= 11.374 * 0.999**2
        assert result.max <= 11.374 * 1.001**2

    def test_degenerate_tolerance_collapses(self):
        result = monte_carlo_timeout(SPEC, 1e-12, 50, 0)
        assert result.min == pytest.approx(11.374, rel=1e-9)
        assert result.max == pytest.approx(11.374, rel=1e-9)

    def test_deterministic_and_order_independent_seeding(self):
        a = monte_carlo_timeout(SPEC, 0.10, 500, 42)
        b = monte_carlo_timeout(SPEC, 0.10, 500, 42)
        np.testing.assert_array_equal(a.samples, b.samples)
        # the first runs of a longer study are identical: per-run generators
        c = monte_carlo_timeout(SPEC, 0.10, 600, 42)
        np.testing.assert_array_equal(a.samples, c.samples[:500])
        assert not np.array_equal(
            a.samples, monte_carlo_timeout(SPEC, 0.10, 500, 43).samples
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            monte_carlo_timeout(SPEC, 0.10, 0, 1)
        with pytest.raises(SimulationError):
            monte_carlo_timeout(SPEC, 0.0, 10, 1)
        with pytest.raises(SimulationError):
            monte_carlo_timeout(SPEC, 1.0, 10, 1)

    @given(tol=st.floats(min_value=0.01, max_value=0.5), seed=st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_bound_property(self, tol, seed):
        result = monte_carlo_timeout(SPEC, tol, 100, seed)
        nominal = 1.1 * SPEC.r3 * SPEC.c2
        assert result.min >= nominal * (1 - tol) ** 2
        assert result.max <= nominal * (1 + tol) ** 2
