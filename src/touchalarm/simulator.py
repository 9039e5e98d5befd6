"""Deterministic behavioral simulation of the alarm system.

``timeline`` turns a scenario of touch and mains events into intervals and
an exact-time event log: the relay changeover (with its switchover delay),
the trigger windows and the sounding segments of the two-tone siren.
``Timeline.render`` samples any stretch of it as a ``Trace``, so long runs
stream in chunks; ``run`` renders it whole.
``monte_carlo_timeout`` spreads the trigger timing parts over a tolerance
band with one deterministic random stream per run.

Sampling conventions (shared with the tests' analytic oracle):

- trigger windows are closed-left half-open-right [start, end)
- a relay gap blanks the supply on (event_time, event_time + delay]; a
  zero-length gap (delay 0) blanks nothing and resets nothing
- without a battery the supply is also down on (mains_fail, mains_restore];
  an outage that is never restored lasts to the end of the scenario
- the modulator phase restarts whenever sounding switches on; within a
  cycle the position is fmod(t - onset, period), high while < t1
  (``render`` gets it bit for bit per modulator cycle, not per sample)
- the carrier square restarts at each modulator edge, sign from
  floor(2·f·phase) parity
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Iterator
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import design
from .design import ScenarioError, SimulationError
from .units import quoted

EVENT_KINDS = ("touch_start", "touch_end", "mains_fail", "mains_restore")

RETRIGGER_MODES = ("level_sensitive", "one_shot")

# Stopwatch figure from the reference build's bench test, for the Monte
# Carlo containment check.
MEASURED_TIMEOUT_SECONDS = 10.60

# Work budgets for ``timeline``, checked before anything is allocated:
# samples per channel (about 70 min at 16 kHz) and modulator-edge log entries.
MAX_SAMPLES = 2**26
MAX_LOG_EVENTS = 2**20

# Samples per piece of ``Timeline.chunks``: a few MiB of temporaries.
CHUNK = 2**16

# Budget for ``parse_scenario``: events per scenario, counted before the
# event tuple is built.
MAX_EVENTS = 2**16

# Budget for ``monte_carlo_timeout``: runs per study (32 MiB of samples).
# It also keeps every run index to one uint32 entropy word.
MAX_RUNS = 2**22


class ScenarioEvent(NamedTuple):
    time: float
    kind: str


class Scenario(NamedTuple):
    """Time-ordered external events plus the simulated duration."""

    events: tuple[ScenarioEvent, ...] = ()
    duration: float = 30.0

    def validate(self) -> None:
        previous = 0.0
        expected = {"touch": "touch_start", "mains": "mains_fail"}
        for event in self.events:
            if not math.isfinite(event.time) or event.time < 0:
                raise ScenarioError(f"event time must be finite and >= 0, got {event.time!r}")
            if event.time < previous:
                raise ScenarioError(
                    f"event times must be non-decreasing ({event.time} after {previous})"
                )
            previous = event.time
            group = "touch" if event.kind in EVENT_KINDS[:2] else "mains"
            if event.kind != expected[group]:
                raise ScenarioError(
                    f"{event.kind} at {event.time} breaks alternation "
                    f"(expected {expected[group]})"
                )
            expected[group] = EVENT_KINDS[EVENT_KINDS.index(event.kind) ^ 1]
        if not math.isfinite(self.duration) or self.duration < 0:
            raise ScenarioError(f"duration must be finite and >= 0, got {self.duration!r}")
        if self.events and self.duration < self.events[-1].time:
            raise ScenarioError("duration must cover the last event")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario lines ``<time_seconds> <event_kind>`` (+ one ``duration``)."""
    events: list[ScenarioEvent] = []
    duration = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "duration":
            if len(parts) != 2:
                raise ScenarioError(f"line {lineno}: expected 'duration <seconds>'")
            if duration is not None:
                raise ScenarioError(f"line {lineno}: duplicate duration")
            try:
                duration = float(parts[1])
            except ValueError:
                raise ScenarioError(f"line {lineno}: bad duration {quoted(parts[1])}") from None
            continue
        if len(parts) != 2:
            raise ScenarioError(f"line {lineno}: expected '<time> <event>', got {quoted(raw)}")
        try:
            time = float(parts[0])
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad time {quoted(parts[0])}") from None
        kind = parts[1]
        if kind not in EVENT_KINDS:
            raise ScenarioError(f"line {lineno}: unknown event kind {quoted(kind)}")
        if len(events) == MAX_EVENTS:
            raise ScenarioError(f"line {lineno}: more than {MAX_EVENTS} events, over the limit")
        events.append(ScenarioEvent(time, kind))
    if duration is None:
        duration = events[-1].time + 30.0 if events else 30.0
    scenario = Scenario(tuple(events), duration)
    scenario.validate()
    return scenario


def _rate_text(x) -> str:  # an int as %g, so a 300-digit rate prints short
    return f"{x:g}" if isinstance(x, int) and abs(x) <= sys.float_info.max else repr(x)


class SimConfig(NamedTuple):
    sample_rate: int = 16000
    switchover_delay: float = 0.010
    battery_present: bool = True
    ideal_pair: tuple[float, float] | None = None  # None selects the control-pin model
    retrigger: str = "level_sensitive"

    def validate(self) -> None:
        if isinstance(self.sample_rate, int) and abs(self.sample_rate) > sys.float_info.max:
            raise SimulationError("sample_rate is too large to convert to a float")
        if not isinstance(self.sample_rate, int) or self.sample_rate <= 0:
            raise SimulationError(f"sample_rate must be a positive integer, got {_rate_text(self.sample_rate)}")
        if not math.isfinite(self.switchover_delay) or self.switchover_delay < 0:
            raise SimulationError(f"switchover_delay must be >= 0, got {self.switchover_delay!r}")
        if self.retrigger not in RETRIGGER_MODES:
            raise SimulationError(f"retrigger must be one of {RETRIGGER_MODES}, got {self.retrigger!r}")
        if self.ideal_pair is not None:
            if len(self.ideal_pair) != 2:
                raise SimulationError("ideal_pair needs exactly two frequencies")
            for f in self.ideal_pair:
                if not isinstance(f, (int, float)) or not math.isfinite(f) or f <= 0:
                    raise SimulationError(f"ideal_pair frequencies must be finite and > 0, got {f!r}")


class TraceEvent(NamedTuple):
    time: float
    what: str


class Trace(NamedTuple):
    """Samples ``start..start + n_samples`` of the node waveforms, on the grid ``k / sample_rate``.

    A piece of a longer run holds that run's ``amplitude``, exact-time event
    log, ``alarm_windows`` and ``sounding_intervals``, not just its own.
    """

    sample_rate: int
    supply_on: np.ndarray
    trigger_out: np.ndarray
    modulator_high: np.ndarray
    carrier_freq: np.ndarray
    speaker: np.ndarray
    amplitude: float
    events: tuple[TraceEvent, ...]
    alarm_windows: tuple[tuple[float, float], ...]
    sounding_intervals: tuple[tuple[float, float], ...]
    start: int = 0

    @property
    def times(self) -> np.ndarray:
        """The sample grid, ``k / sample_rate`` for k in start..start+n_samples-1."""
        return np.arange(self.start, self.start + self.n_samples, dtype=np.float64) / self.sample_rate

    @property
    def n_samples(self) -> int:
        return len(self.supply_on)

    @property
    def sounding_seconds(self) -> float:
        return sum(end - start for start, end in self.sounding_intervals)


def _pairs(events, opening: str, closing: str) -> list[tuple[float, float | None]]:
    """(open, close) times of alternating events; one left open closes at None."""
    opens = [event.time for event in events if event.kind == opening]
    closes = [event.time for event in events if event.kind == closing]
    return list(zip(opens, [*closes, None]))


def _merge_spans(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (a, b] spans as sorted, disjoint, non-touching spans.

    Empty spans (b <= a) blank nothing and are dropped.
    """
    merged: list[list[float]] = []
    for a, b in sorted(spans):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _overlapping(intervals: tuple, first: float, last: float) -> tuple:
    """The intervals that may hold a sample time in [first, last].

    ``intervals`` is sorted by its starts (item 0) and by its ends (item 1).
    """
    lo = bisect.bisect_left(intervals, first, key=itemgetter(1))
    return intervals[lo:bisect.bisect_right(intervals, last, key=itemgetter(0))]


class Timeline(NamedTuple):
    """A simulated scenario as intervals and an event log, before sampling.

    All three interval lists are sorted and disjoint.  ``render`` samples any
    stretch of the grid; pieces rendered over any cut points concatenate to
    exactly ``render(0, n_samples)``.
    """

    sample_rate: int
    n_samples: int
    duration: float
    alarm_windows: tuple[tuple[float, float], ...]  # trigger high on [start, end)
    off_spans: tuple[tuple[float, float], ...]  # supply off on (a, b]
    segments: tuple[tuple[float, float, str, str], ...]  # sounding (ref, end, on, off)
    sounding_intervals: tuple[tuple[float, float], ...]  # segments clipped to the scenario
    events: tuple[TraceEvent, ...]
    modulator: design.AstableTimes
    carrier_pair: tuple[float, float]  # (modulator high, modulator low)
    amplitude: float

    @property
    def sounding_seconds(self) -> float:
        return sum(end - start for start, end in self.sounding_intervals)

    def render(self, i0: int, i1: int) -> Trace:
        """Samples ``i0..i1`` as a ``Trace`` starting at ``i0``: one slice per overlapping interval."""
        times = np.arange(i0, i1, dtype=np.float64)
        np.divide(times, self.sample_rate, out=times)
        n = len(times)
        supply = np.ones(n, dtype=bool)
        trigger = np.zeros(n, dtype=bool)
        modulator_high = np.zeros(n, dtype=bool)
        carrier = np.zeros(n, dtype=np.float64)
        speaker = np.zeros(n, dtype=np.float64)
        piece = Trace(self.sample_rate, supply, trigger, modulator_high, carrier, speaker,
                      self.amplitude, self.events, self.alarm_windows, self.sounding_intervals, i0)
        if n == 0:
            return piece
        first, last = float(times[0]), float(times[-1])

        def first_at_or_after(t: float) -> int:
            return int(np.searchsorted(times, t, "left"))

        def first_after(t: float) -> int:
            return int(np.searchsorted(times, t, "right"))

        for start, end in _overlapping(self.alarm_windows, first, last):
            trigger[first_at_or_after(start):first_at_or_after(end)] = True
        for a, b in _overlapping(self.off_spans, first, last):
            supply[first_after(a):first_after(b)] = False

        t1 = self.modulator.t1
        freq_mod_high, freq_mod_low = self.carrier_pair
        for ref, end, _on, _off in _overlapping(self.segments, first, last):
            # Every sample strictly inside (ref, end) sounds; one at ref or end may not.
            begin, stop = first_at_or_after(ref), first_after(end)
            if begin < stop and not (trigger[begin] and supply[begin]):
                begin += 1
            if begin < stop and not (trigger[stop - 1] and supply[stop - 1]):
                stop -= 1
            if begin == stop:
                continue
            # In place in the output slices: each fresh temporary costs page faults.
            out, freq = speaker[begin:stop], carrier[begin:stop]
            position = self._position(np.subtract(times[begin:stop], ref, out=out))
            high = np.less(position, t1, out=modulator_high[begin:stop])
            low = ~high
            # 2·f·phase, the phase counted from the last modulator edge
            np.multiply(2.0 * freq_mod_high, position, out=out, where=high)
            np.multiply(2.0 * freq_mod_low, np.subtract(position, t1, out=out, where=low), out=out, where=low)
            # floor(2·f·phase)/2 has a fraction of 0.5 where it is odd; 1 - 4·fraction is ±1
            np.modf(np.multiply(np.floor(out, out=out), 0.5, out=out), out=(out, freq))
            np.multiply(self.amplitude, np.add(np.multiply(out, -4.0, out=out), 1.0, out=out), out=out)
            freq.fill(freq_mod_low)
            np.copyto(freq, freq_mod_high, where=high)
        return piece

    def _position(self, elapsed: np.ndarray) -> np.ndarray:
        """``np.fmod(elapsed, period)`` bit for bit, for increasing ``elapsed >= 0``: cycle k,
        with ``hi + lo == k·period`` exactly, starts at the first sample ``>= hi``, or ``> hi``
        where ``hi`` rounded down; in it ``(elapsed - hi) - lo`` is exact (Sterbenz).
        """
        period = self.modulator.period
        ends = elapsed[[0, -1]]
        k_first, k_last = np.rint((ends - np.fmod(ends, period)) / period)
        # period's top 26 and low 27 mantissa bits times k are exact (k < 2**25: MAX_SAMPLES, Nyquist)
        top = (np.float64(period).view(np.uint64) & ~np.uint64(2**27 - 1)).view(np.float64)
        cycles = np.arange(k_first, k_last + 1)
        hi = cycles * period
        lo = (cycles * top - hi) + cycles * (period - top)
        starts = np.searchsorted(elapsed, np.where(lo > 0, np.nextafter(hi, np.inf), hi))
        counts = np.diff(np.append(starts, len(elapsed)))
        elapsed -= np.repeat(hi, counts)
        elapsed -= np.repeat(lo, counts)
        return elapsed

    def chunks(self) -> Iterator[Trace]:
        """``render`` over consecutive pieces of ``CHUNK`` samples."""
        for i0 in range(0, self.n_samples, CHUNK):
            yield self.render(i0, min(i0 + CHUNK, self.n_samples))


def timeline(spec: design.CircuitSpec, scenario: Scenario,
             config: SimConfig | None = None) -> Timeline:
    """Validate the inputs, check the budgets and build the scenario's timeline."""
    if config is None:
        config = SimConfig()
    spec.validate()
    scenario.validate()
    config.validate()

    timeout = design.monostable_period(spec.r3, spec.c2, "approx")
    modulator = design.astable_times(spec.r11, spec.r12, spec.c6)
    if config.ideal_pair is not None:
        freq_mod_high, freq_mod_low = config.ideal_pair
    else:
        volts = design.modulation_voltages(spec.vcc, spec.r9)
        freq_mod_high = design.astable_times_cv(
            spec.r7, spec.r8, spec.c4, spec.vcc, volts.v_ctl_high).frequency
        freq_mod_low = design.astable_times_cv(
            spec.r7, spec.r8, spec.c4, spec.vcc, volts.v_ctl_low).frequency
    top_carrier = max(freq_mod_high, freq_mod_low)
    if config.sample_rate <= 2.0 * top_carrier:
        raise SimulationError(
            f"sample_rate {config.sample_rate} is below the Nyquist bound for "
            f"the {top_carrier:.1f} Hz carrier"
        )
    if config.sample_rate <= 2.0 * modulator.frequency:
        raise SimulationError(
            f"sample_rate {config.sample_rate} is below the Nyquist bound for "
            f"the {modulator.frequency:.4g} Hz modulator"
        )
    requested = scenario.duration * config.sample_rate
    if requested > MAX_SAMPLES:
        raise SimulationError(
            f"{scenario.duration:g} s at {config.sample_rate:g} Hz needs {requested:.4g} "
            f"samples, over the limit of {MAX_SAMPLES}"
        )
    power = design.amplifier_power(spec.vcc, spec.v_be, spec.amp_base_resistance, spec.tr2_hfe)
    amplitude = math.sqrt(power.p_out * spec.speaker_impedance)
    if not math.isfinite(amplitude):
        raise design.DesignError(
            f"siren amplitude sqrt({power.p_out:g} W * {spec.speaker_impedance:g} Ω) is not finite")

    log: list[TraceEvent] = [
        TraceEvent(event.time, f"event {event.kind}") for event in scenario.events
    ]

    # --- trigger windows [start, end) ----------------------------------------
    windows: list[list] = []  # [start, end, cause]
    for start, end in _pairs(scenario.events, "touch_start", "touch_end"):
        if config.retrigger == "one_shot":
            if windows and start < windows[-1][1]:
                log.append(TraceEvent(start, "retrigger ignored (one-shot window active)"))
                continue
            windows.append([start, start + timeout, "timeout"])
        else:
            held = end if end is not None else scenario.duration
            candidate_end = max(held, start + timeout)
            cause = "touch released" if held > start + timeout else "timeout"
            if windows and start < windows[-1][1]:
                if candidate_end > windows[-1][1]:
                    windows[-1][1] = candidate_end
                    windows[-1][2] = cause
                log.append(TraceEvent(start, "alarm window extended (retrigger)"))
            else:
                windows.append([start, candidate_end, cause])
    for start, end, cause in windows:
        log.append(TraceEvent(start, "trigger high (touch)"))
        log.append(TraceEvent(end, f"trigger low ({cause})"))

    # --- supply-off spans (a, b] ----------------------------------------------
    # Relay gaps plus, without a battery, each outage; an outage that is
    # never restored lasts past the end of the scenario.
    mains_events = [e for e in scenario.events if e.kind in ("mains_fail", "mains_restore")]
    spans = [(e.time, e.time + config.switchover_delay) for e in mains_events]
    if not config.battery_present:
        spans += [(a, math.inf if b is None else b)
                  for a, b in _pairs(mains_events, "mains_fail", "mains_restore")]
    off_spans = _merge_spans(spans)

    last_mains_kind = {e.time: e.kind for e in mains_events}
    for a, b in off_spans:
        if last_mains_kind[a] == "mains_fail":
            what = "supply off (mains failed)" if config.battery_present \
                else "supply off (mains failed, no battery)"
        else:
            what = "supply off (mains restored, relay switching)"
        log.append(TraceEvent(a, what))
        log.append(TraceEvent(b, "supply on (switchover complete)"))

    # --- sounding segments (ref, end, on, off): each window minus the off spans
    # ref is the modulator phase reference: the window start or a span end;
    # on and off say why the siren starts and stops there.
    span_ends = [b for _a, b in off_spans]
    segments: list[tuple[float, float, str, str]] = []
    for window_start, window_end, _cause in windows:
        cursor, on = window_start, "alarm onset"
        for a, b in off_spans[bisect.bisect_right(span_ends, window_start):]:
            if a >= window_end or cursor >= window_end:
                break
            if a >= cursor:
                segments.append((cursor, a, on, "supply lost"))
            cursor, on = b, "supply restored"
        if cursor < window_end:
            segments.append((cursor, window_end, on, "window closed"))

    # Each segment logs at most two modulator edges per period, plus one.
    edges = sum(
        2 * (min(end, scenario.duration) - ref) / modulator.period + 1
        for ref, end, _on, _off in segments
        if ref <= scenario.duration
    )
    if edges > MAX_LOG_EVENTS:
        raise SimulationError(
            f"the {modulator.frequency:.4g} Hz modulator needs up to {edges:.4g} log "
            f"events, over the limit of {MAX_LOG_EVENTS}"
        )

    for ref, end, on, off in segments:
        log.append(TraceEvent(ref, f"siren on ({on}, modulator phase reset)"))
        log.append(TraceEvent(end, f"siren off ({off})"))
        state_high = True
        toggle = ref
        while True:
            toggle += modulator.t1 if state_high else modulator.t2
            if toggle >= min(end, scenario.duration):
                break
            state_high = not state_high
            log.append(TraceEvent(toggle, f"modulator {'high' if state_high else 'low'}"))

    log.sort(key=lambda entry: entry.time)
    log = [entry for entry in log if entry.time <= scenario.duration]

    return Timeline(
        sample_rate=config.sample_rate,
        n_samples=int(round(requested)),
        duration=scenario.duration,
        alarm_windows=tuple((w[0], w[1]) for w in windows),
        off_spans=tuple(off_spans),
        segments=tuple(segments),
        sounding_intervals=tuple(
            (ref, min(end, scenario.duration))
            for ref, end, _on, _off in segments
            if ref < scenario.duration
        ),
        events=tuple(log),
        modulator=modulator,
        carrier_pair=(freq_mod_high, freq_mod_low),
        amplitude=amplitude,
    )


def run(spec: design.CircuitSpec, scenario: Scenario, config: SimConfig | None = None) -> Trace:
    """Simulate the scenario and return the sampled trace."""
    whole = timeline(spec, scenario, config)
    return whole.render(0, whole.n_samples)


# --- Monte Carlo tolerance study ---------------------------------------------


class ToleranceResult(NamedTuple):
    runs: int
    samples: np.ndarray
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    stddev: float = 0.0

    def contains(self, target: float) -> bool:
        return self.min <= target <= self.max


# numpy's SeedSequence (pool of four uint32 words) and PCG64 constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = 0xFFFFFFFF

# Runs per Monte Carlo block: bounds the temporaries to a few MiB.
_BLOCK = 2**16


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a·b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step on 128-bit states held as hi/lo uint64 halves."""
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    new_lo = lo * _PCG_MULT_LO + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


def _default_rng_doubles(seed: int, indices: np.ndarray, count: int) -> list[np.ndarray]:
    """The first ``count`` ``random()`` doubles of ``default_rng((seed, i))``.

    ``seed`` is a non-negative integer below 2**64 and ``indices`` a uint32
    array; the result holds one array per draw, one element per index.  Call
    under ``np.errstate``: the uint32/uint64 arithmetic wraps on purpose.
    """
    # SeedSequence entropy: seed words (little-endian, 0 is one word), index.
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.full(len(indices), w, dtype=np.uint32) for w in words] + [indices]
    zero = np.zeros(len(indices), dtype=np.uint32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)

    # generate_state(4, uint64): eight words cycling over the pool.
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    s0, s1, s2, s3 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))

    # PCG64 seeding: inc = (s2:s3) << 1 | 1; state 0, step, add (s0:s1), step.
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)

    doubles = []
    for _ in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        out = xored >> rot | xored << (-rot & 63)  # XSL-RR output
        doubles.append((out >> 11) * 2.0**-53)
    return doubles


def monte_carlo_timeout(
    spec: design.CircuitSpec, rel_tolerance: float, runs: int, seed: int
) -> ToleranceResult:
    """Sample the trigger timeout with r3 and c2 drawn from a tolerance band.

    Run ``i`` draws r3 and then c2 uniformly from
    [nominal·(1−tol), nominal·(1+tol)], with the same two doubles and the
    same arithmetic as ``np.random.default_rng((seed, i)).uniform`` followed
    by ``design.monostable_period(r3, c2, "approx")``, so every sample is
    bit-identical to a per-run generator loop and independent of execution
    order.  The generators are not built: numpy's SeedSequence mixing and
    PCG64 seeding and stepping are computed in uint32/uint64 array
    arithmetic over blocks of run indices.  Raises ``design.DesignError``
    when a sample or a summary statistic is not finite.
    """
    spec.validate()
    if not isinstance(runs, int) or runs < 1:
        raise SimulationError(f"runs must be >= 1, got {runs!r}")
    if runs > MAX_RUNS:
        raise SimulationError(f"{runs} Monte Carlo runs requested, over the limit of {MAX_RUNS}")
    if not (isinstance(rel_tolerance, (int, float)) and 0.0 < rel_tolerance < 1.0):
        raise SimulationError(f"rel_tolerance must be in (0, 1), got {rel_tolerance!r}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    r3_lo, r3_hi = spec.r3 * (1.0 - rel_tolerance), spec.r3 * (1.0 + rel_tolerance)
    c2_lo, c2_hi = spec.c2 * (1.0 - rel_tolerance), spec.c2 * (1.0 + rel_tolerance)
    samples = np.empty(runs, dtype=np.float64)
    with np.errstate(all="ignore"):
        for start in range(0, runs, _BLOCK):
            stop = min(start + _BLOCK, runs)
            u1, u2 = _default_rng_doubles(seed, np.arange(start, stop, dtype=np.uint32), 2)
            r3 = r3_lo + (r3_hi - r3_lo) * u1
            c2 = c2_lo + (c2_hi - c2_lo) * u2
            if not np.all(r3 > 0):
                raise design.DesignError("r: must be > 0, got 0.0")
            samples[start:stop] = 1.1 * r3 * c2
        stats = [float(samples.min()), float(samples.max()),
                 float(samples.mean()), float(samples.std())]
    if not all(math.isfinite(x) for x in stats):
        raise design.DesignError(
            "trigger timeout samples overflow: min={:g} max={:g} mean={:g} stddev={:g}".format(*stats)
        )
    low, high, mean, stddev = stats
    return ToleranceResult(runs=runs, samples=samples, min=low, max=high, mean=mean, stddev=stddev)
