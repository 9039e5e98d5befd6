"""Independent piecewise-analytic timeline for checking simulator traces.

Built before the engine and kept deliberately simple: every channel is
evaluated sample by sample from closed-form state predicates, with no
interval algebra and no vectorization.  Shared semantics:

- trigger windows are closed-left half-open-right [start, end)
- a relay gap blanks the supply on (event_time, event_time + delay]
- without battery the supply is also down on (mains_fail, mains_restore]
- the siren modulator phase restarts at each instant sounding switches on;
  within a cycle the position is fmod(t - onset, period), high while < t1
- the carrier square restarts at each modulator edge; its sign comes from
  floor(2·f·phase) parity where phase is the position inside the edge
"""

import math

from touchalarm import design


def _touch_pairs(scenario):
    pairs = []
    start = None
    for event in scenario.events:
        if event.kind == "touch_start":
            start = event.time
        elif event.kind == "touch_end":
            pairs.append((start, event.time))
            start = None
    if start is not None:
        pairs.append((start, None))
    return pairs


def _windows(scenario, config, timeout):
    windows = []
    for start, end in _touch_pairs(scenario):
        if config.retrigger == "one_shot":
            if windows and start < windows[-1][1]:
                continue
            windows.append([start, start + timeout])
        else:
            held = end if end is not None else scenario.duration
            candidate = max(held, start + timeout)
            if windows and start < windows[-1][1]:
                windows[-1][1] = max(windows[-1][1], candidate)
            else:
                windows.append([start, candidate])
    return [(w[0], w[1]) for w in windows]


def expected_channels(spec, scenario, config):
    """Return per-sample lists: supply, trigger, modulator, carrier, speaker."""
    timeout = design.monostable_period(spec.r3, spec.c2)
    modulator = design.astable_times(spec.r11, spec.r12, spec.c6)
    if config.ideal_pair is not None:
        f_mod_high, f_mod_low = config.ideal_pair
    else:
        volts = design.modulation_voltages(spec.vcc, spec.r9)
        f_mod_high = design.astable_times_cv(
            spec.r7, spec.r8, spec.c4, spec.vcc, volts.v_ctl_high).frequency
        f_mod_low = design.astable_times_cv(
            spec.r7, spec.r8, spec.c4, spec.vcc, volts.v_ctl_low).frequency
    power = design.amplifier_power(spec.vcc, spec.v_be, spec.amp_base_resistance, spec.tr2_hfe)
    amplitude = math.sqrt(power.p_out * spec.speaker_impedance)

    windows = _windows(scenario, config, timeout)
    mains = [e for e in scenario.events if e.kind in ("mains_fail", "mains_restore")]
    delay = config.switchover_delay

    def mains_present(t):
        state = True
        for event in mains:
            if event.time < t:
                state = event.kind == "mains_restore"
        return state

    def supply_on(t):
        if not (mains_present(t) or config.battery_present):
            return False
        return not any(e.time < t <= e.time + delay for e in mains)

    def trigger_out(t):
        return any(ws <= t < we for ws, we in windows)

    # Instants at which sounding can switch on: window starts and relay
    # gap ends where the supply is still off (a zero-length gap switches
    # nothing on).  The phase reference is the latest one at or before t.
    onset_candidates = sorted(
        [ws for ws, _ in windows]
        + [e.time + delay for e in mains if not supply_on(e.time + delay)]
    )

    def onset_before(t):
        best = None
        for candidate in onset_candidates:
            if candidate <= t:
                best = candidate
        return best

    n = int(round(scenario.duration * config.sample_rate))
    supply, trigger, mod_high, carrier, speaker = [], [], [], [], []
    for i in range(n):
        t = i / config.sample_rate
        sup = supply_on(t)
        trig = trigger_out(t)
        supply.append(sup)
        trigger.append(trig)
        if not (sup and trig):
            mod_high.append(False)
            carrier.append(0.0)
            speaker.append(0.0)
            continue
        onset = onset_before(t)
        position = math.fmod(t - onset, modulator.period)
        high = position < modulator.t1
        freq = f_mod_high if high else f_mod_low
        phase = position if high else position - modulator.t1
        sign = 1.0 if math.floor(2.0 * freq * phase) % 2 == 0 else -1.0
        mod_high.append(high)
        carrier.append(freq)
        speaker.append(amplitude * sign)
    return supply, trigger, mod_high, carrier, speaker
