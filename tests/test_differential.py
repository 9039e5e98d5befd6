"""The simulator against the analytic oracle over drawn circuits and scenarios, not the stock circuit.

Each example draws the timing parts log-uniform over two decades, ``vcc``,
up to six touch or outage pairs, a sample rate, the battery, the relay gap,
the retrigger mode and now and then an ideal tone pair at the Nyquist
bound.  ``timeline`` must refuse exactly the draws whose carrier or
modulator is at or above half the sample rate; every other draw must
render, in two pieces cut anywhere, to the oracle's channels bit for bit.
The decades are placed so that the trigger window, the modulator cycle and
the carrier period all fit in the few thousand samples that keep the
per-sample oracle quick.  ``Timeline.render`` finds interval edges with
``simulator._sample_index``, checked here against ``np.searchsorted`` on
the grid.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timeline_oracle as oracle
from test_cli_fuzz import TIMING_KEYS
from touchalarm import design, simulator
from touchalarm.design import CircuitSpec
from touchalarm.simulator import Scenario, ScenarioEvent, SimConfig, SimulationError

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
