"""The simulator against the analytic oracle over drawn circuits and scenarios, not the stock circuit.

Each example draws the timing parts log-uniform over two decades, ``vcc``,
up to six touch or outage pairs, a sample rate, the battery, the relay gap,
the retrigger mode and now and then an ideal tone pair at the Nyquist
bound.  ``timeline`` must refuse exactly the draws whose carrier or
modulator is at or above half the sample rate; every other draw must
render, in two pieces cut anywhere, to the oracle's channels bit for bit,
and its ``Timeline.log()`` must place every change of those channels.
The decades are placed so that the trigger window, the modulator cycle and
the carrier period all fit in the few thousand samples that keep the
per-sample oracle quick.  ``Timeline.render`` finds interval edges with
``simulator._sample_index``, checked here against ``np.searchsorted`` on
the grid.  A few draws also go through ``cli.main`` as circuit and scenario
files, and its CSV and WAV must be the bytes of the oracle's channels.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import timeline_oracle as oracle
from test_cli_fuzz import TIMING_KEYS
from test_export import parse_wav, reference_csv
from touchalarm import cli, design, simulator
from touchalarm.design import CircuitSpec
from touchalarm.export import WAV_FULL_SCALE
from touchalarm.simulator import Scenario, ScenarioEvent, SimConfig, SimulationError, Trace

STOCK = CircuitSpec()
# Log10 of each drawn part's range as a factor of its stock value, two decades wide:
# c2 puts the trigger window at 1.1-114 ms, c6 the modulator period at 1.5-147 ms, and c4
# moves the carrier over both sides of the Nyquist bound at every rate.
DECADES = {"r3": (-1, 1), "c2": (-4, -2), "r7": (-1, 1), "r8": (-1, 1), "c4": (-1.5, 0.5),
           "r9": (-1, 1), "r11": (-1, 1), "r12": (-1, 1), "c6": (-3, -1)}
RATES = [8000, 16000, 44100]
KINDS = {"touch": simulator.EVENT_KINDS[:2], "mains": simulator.EVENT_KINDS[2:]}


@st.composite
def circuits(draw):
    assert set(DECADES) <= set(TIMING_KEYS)  # the parts that the CLI fuzz also varies
    parts = {key: getattr(STOCK, key) * 10 ** draw(st.floats(*DECADES[key])) for key in DECADES}
    return STOCK._replace(vcc=draw(st.floats(6.0, 15.0)), **parts)


@st.composite
def scenarios(draw, n, rate):
    """0-6 touch or outage pairs over n samples, some on the sample grid; the last of a kind may stay open."""
    duration = n / rate
    instants = st.one_of(st.floats(0.0, duration), st.integers(0, n).map(lambda k: k / rate))
    events = []
    for kind, (opening, closing) in KINDS.items():
        count = draw(st.integers(0, 3))
        times = sorted(draw(st.lists(instants, min_size=2 * count, max_size=2 * count)))
        if times and draw(st.booleans()):
            times.pop()
        events += [ScenarioEvent(t, (opening, closing)[i % 2]) for i, t in enumerate(times)]
    return Scenario(tuple(sorted(events, key=lambda e: e.time)), duration)


@st.composite
def cases(draw):
    rate = draw(st.sampled_from(RATES))
    n = draw(st.integers(200, 12000))
    # Mostly the control-pin tones; sometimes an ideal pair at Nyquist or an ulp under it.
    edge = draw(st.sampled_from([None, None, None, rate / 2, math.nextafter(rate / 2, 0)]))
    config = SimConfig(sample_rate=rate, switchover_delay=draw(st.sampled_from([0.0, 0.002, 0.010])),
                       battery_present=draw(st.booleans()), ideal_pair=edge and (edge, 440.0),
                       retrigger=draw(st.sampled_from(simulator.RETRIGGER_MODES)))
    return draw(circuits()), draw(scenarios(n, rate)), config, draw(st.floats(0.0, 1.0))


@given(cases())
# low_t1 is exactly 1.0 s, so sample 16000 lies on the modulator's first high-to-low edge, and is low.
@example((STOCK._replace(c6=6.272587134299841e-05),
          Scenario((ScenarioEvent(0.0, "touch_start"),), 1.5), SimConfig(16000), 0.0))
@settings(max_examples=40, deadline=None)
def test_render_matches_the_oracle(case):
    spec, scenario, config, where = case
    report = design.compute_report(spec)
    tones = config.ideal_pair or (report.value("f_lo_tone"), report.value("f_hi_tone"))
    fastest = max(*tones, report.value("low_freq"))
    if fastest >= config.sample_rate / 2:
        try:
            simulator.timeline(spec, scenario, config)
        except SimulationError as refused:
            assert "Nyquist" in str(refused)
        else:
            raise AssertionError(f"rendered a {fastest:g} Hz siren at {config.sample_rate} Hz")
        return
    whole = simulator.timeline(spec, scenario, config)
    cut = int(where * whole.n_samples)
    pieces = [whole.render(0, cut), whole.render(cut, whole.n_samples)]
    expected = oracle.expected_channels(spec, scenario, config)
    for name, want in zip(("supply_on", "trigger_out", "modulator_high", "carrier_freq", "speaker"), expected):
        got = np.concatenate([getattr(piece, name) for piece in pieces])
        want = np.asarray(want, dtype=got.dtype)
        bits = np.uint64 if got.dtype == np.float64 else np.uint8
        assert np.array_equal(got.view(bits), want.view(bits)), name


# What each ``Timeline.log()`` entry sets, by its first two words; a carrier_freq is an index into
# (*carrier_pair, 0.0): the high tone, the low tone or silence.
LOGGED = {
    "trigger high": {"trigger_out": True},
    "trigger low": {"trigger_out": False},
    "supply off": {"supply_on": False},
    "supply on": {"supply_on": True},
    "siren on": {"sounding": True, "modulator_high": True, "carrier_freq": 0},
    "siren off": {"sounding": False, "modulator_high": False, "carrier_freq": 2},
    "modulator high": {"modulator_high": True, "carrier_freq": 0},
    "modulator low": {"modulator_high": False, "carrier_freq": 1},
}


@given(cases())
# A window that opens as an outage's (a, b] span ends, at b: the siren comes on after b, with the supply.
@example((STOCK._replace(c2=4.7e-9),
          Scenario((ScenarioEvent(0.0, "mains_fail"), ScenarioEvent(0.00125, "touch_start"),
                    ScenarioEvent(0.00125, "mains_restore")), 0.25),
          SimConfig(8000, 0.0, False), 0.0))
@settings(max_examples=40, deadline=None)
def test_event_log_places_every_change(case):
    """Each oracle channel (the siren as sounding, carrier tone and modulator) changes exactly where the log
    says: an entry sets its channels from the first sample at or after its time on, or after it for the
    (a, b] supply spans and the siren edges that they cause (entries naming the supply), so every change
    falls at the first sample of a logged edge and every logged edge has its change, unless a later edge
    undoes it before the next sample."""
    spec, scenario, config, _where = case
    try:
        whole = simulator.timeline(spec, scenario, config)
    except SimulationError:  # test_render_matches_the_oracle checks that the refusal is the right one
        return
    n, tones = whole.n_samples, (*whole.carrier_pair, 0.0)
    grid = np.arange(n, dtype=np.float64) / whole.sample_rate
    logged = {"supply_on": np.ones(n, bool), "trigger_out": np.zeros(n, bool), "sounding": np.zeros(n, bool),
              "modulator_high": np.zeros(n, bool), "carrier_freq": np.zeros(n)}
    for time, what in whole.log():
        k = np.searchsorted(grid, time, "right" if "supply" in what else "left")
        for name, value in LOGGED.get(" ".join(what.split()[:2]), {}).items():
            logged[name][k:] = tones[value] if name == "carrier_freq" else value
    supply, trigger, modulator, carrier, speaker = oracle.expected_channels(spec, scenario, config)
    expected = {"supply_on": supply, "trigger_out": trigger, "modulator_high": modulator,
                "carrier_freq": carrier, "sounding": np.asarray(speaker) != 0.0}
    for name, want in expected.items():
        assert np.array_equal(logged[name], want), name


def oracle_trace(spec, scenario, config):
    """The oracle's channels as a ``Trace``: its sign, amplitude and tones read back from its speaker and carrier."""
    supply, trigger, modulator, carrier, speaker = map(np.asarray, oracle.expected_channels(spec, scenario, config))
    sounding = speaker != 0.0
    trace = Trace(config.sample_rate, supply, trigger, modulator, np.sign(speaker).astype(np.int8),
                  float(np.abs(speaker).max(initial=0.0)),
                  tuple(float(carrier[sounding & (modulator == high)].max(initial=0.0)) for high in (True, False)))
    assert trace.speaker.tobytes() == speaker.tobytes() and trace.carrier_freq.tobytes() == carrier.tobytes()
    return trace


# A held touch through a mains outage, with the modulator cycling every 15 ms: both tones and a relay gap.
HELD = (STOCK._replace(c2=4.7e-9, c6=4.7e-7),
        Scenario((ScenarioEvent(0.01, "touch_start"), ScenarioEvent(0.05, "mains_fail"),
                  ScenarioEvent(0.12, "touch_end"), ScenarioEvent(0.2, "mains_restore")), 0.25))


@given(case=cases())
@example(case=(*HELD, SimConfig(8000), 0.0))
@example(case=(*HELD, SimConfig(8000, ideal_pair=(470.0, 490.0)), 0.0))
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_writes_the_oracle_bytes(case, tmp_path, capsys):
    """``touchalarm simulate --csv --wav`` on the draw's circuit and scenario files (with the command line's relay
    gap and battery): the CSV is ``reference_csv`` of the oracle's trace and the WAV its speaker as plain PCM."""
    spec, scenario, config, _where = case
    config = config._replace(switchover_delay=SimConfig().switchover_delay, battery_present=True)
    (tmp_path / "c.circ").write_text("".join(f"{key} = {value!r}\n" for key, value in spec._asdict().items()))
    (tmp_path / "s.scn").write_text("".join(f"{event.time!r} {event.kind}\n" for event in scenario.events)
                                    + f"duration {scenario.duration!r}\n")
    argv = ["simulate", "--circuit", str(tmp_path / "c.circ"), "--scenario", str(tmp_path / "s.scn"),
            "--sample-rate", str(config.sample_rate), "--csv", str(tmp_path / "x.csv"),
            "--wav", str(tmp_path / "x.wav")]
    argv += ["--one-shot"] * (config.retrigger == "one_shot")
    argv += ["--ideal-pair", ",".join(map(repr, config.ideal_pair))] if config.ideal_pair else []
    code = cli.main(argv)
    out, err = capsys.readouterr()
    try:  # test_render_matches_the_oracle checks that a refusal is the right one
        simulator.timeline(spec, scenario, config)
    except SimulationError as refused:
        assert (code, out, err) == (2, "", f"usage error: {refused}\n")
        return
    assert (code, err) == (0, "")
    trace = oracle_trace(spec, scenario, config)
    assert (tmp_path / "x.csv").read_bytes() == reference_csv(trace)
    wav = parse_wav((tmp_path / "x.wav").read_bytes())
    peak = trace.amplitude or 1.0  # a silent run is all zeros whatever the scale
    pcm = np.clip(np.rint(WAV_FULL_SCALE * trace.speaker / peak), -32768, 32767).astype("<i2")
    assert (wav["rate"], wav["samples"].tobytes()) == (config.sample_rate, pcm.tobytes())


@st.composite
def grid_searches(draw):
    """A sample rate, a piece i0..i1 of its grid and a time on it, an ulp off it, or anywhere."""
    rate = draw(st.sampled_from(RATES + [3, 8001, 9973, 10**300 + 12345]))
    i0 = draw(st.sampled_from([0, 1, 777, 2**26 - 5000]))
    i1 = i0 + draw(st.integers(0, 3000))
    k = draw(st.integers(max(0, i0 - 2), i1 + 2))
    on_grid = k / float(rate)
    t = draw(st.sampled_from([on_grid, math.nextafter(on_grid, -math.inf), math.nextafter(on_grid, math.inf),
                              math.inf, 0.0, draw(st.floats(0.0, 2 * i1 / float(rate) + 1.0))]))
    return t, rate, i0, i1


@given(grid_searches(), st.booleans())
@example((math.inf, 16000, 0, 100), False)
@example((math.inf, 16000, 0, 100), True)
@settings(max_examples=300, deadline=None)
def test_sample_index_is_searchsorted(search, after):
    t, rate, i0, i1 = search
    grid = np.divide(np.arange(i0, i1, dtype=np.float64), rate)  # as Trace.times builds it
    want = i0 + int(np.searchsorted(grid, t, "right" if after else "left"))
    assert simulator._sample_index(t, float(rate), i0, i1, after) == want
