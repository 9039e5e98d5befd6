"""Deterministic behavioral simulation of the alarm system.

``timeline`` turns a scenario of touch and mains events into intervals: the
relay changeover (with its switchover delay), the trigger windows and the
sounding segments of the two-tone siren.  ``Timeline.log`` derives the
exact-time event log from them on demand, and ``Timeline.render`` samples any
stretch as a ``Trace``, so long runs stream in chunks; ``run`` renders it whole.
``monte_carlo_timeout`` spreads the trigger timing parts over a tolerance
band with one deterministic random stream per run, in bounded memory.

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
import heapq
import math
import sys
from collections import namedtuple
from collections.abc import Iterator
from operator import ge, gt, itemgetter

from . import design
from .units import QUOTE_LIMIT, DesignError, ScenarioError, SimulationError, lines, quoted

import numpy as np  # last, so design compiles before numpy loads: 1.7 MB less peak RSS from source

EVENT_KINDS = ("touch_start", "touch_end", "mains_fail", "mains_restore")

RETRIGGER_MODES = ("level_sensitive", "one_shot")

# Stopwatch figure from the reference build's bench test, for the Monte
# Carlo containment check.
MEASURED_TIMEOUT_SECONDS = 10.60

# Work budget for ``timeline``, checked before anything is allocated: samples
# per channel (about 70 min at 16 kHz).  With the modulator's Nyquist bound it
# also caps ``Timeline.log()`` at ``n_samples + len(segments) + len(notes)`` entries.
MAX_SAMPLES = 2**26

# Samples per piece of ``Timeline.chunks``: a few MiB of temporaries.
CHUNK = 2**16

# Budget for ``parse_scenario``: events per scenario, counted before the
# event tuple is built.
MAX_EVENTS = 2**16

# Budget for ``monte_carlo_timeout``: runs per study, which bounds its run time
# and keeps every run index to one uint32 entropy word.
MAX_RUNS = 2**22

# One heap policy for every job: on glibc, freeing a 2 MiB mapping raises the mmap threshold to
# 2 MiB and the heap trim threshold to 4 MiB for the rest of the process, so the render's
# per-chunk temporaries and the tolerance study's summation leaves reuse heap pages instead of
# faulting fresh ones in each time.
np.empty(2**18)


class ScenarioEvent(namedtuple("ScenarioEvent", "time kind")):
    __slots__ = ()


class Scenario(namedtuple("Scenario", "events duration", defaults=[(), 30.0])):
    """Time-ordered external events (a tuple of ``ScenarioEvent``) plus the simulated duration."""

    __slots__ = ()

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
    for lineno, raw in enumerate(lines(text), start=1):
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


def _rate_text(x) -> str:  # an int as %g, else repr, cut as units.quoted cuts: a 400-digit rate prints short
    text = f"{x:g}" if isinstance(x, int) and abs(x) <= sys.float_info.max else repr(x)
    return text if len(text) <= QUOTE_LIMIT else f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


class SimConfig(namedtuple("SimConfig", "sample_rate switchover_delay battery_present ideal_pair retrigger",
                           defaults=[16000, 0.010, True, None, "level_sensitive"])):
    """How to simulate: ``ideal_pair`` gives two fixed siren tones, or is None for the control-pin model."""

    __slots__ = ()

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


class TraceEvent(namedtuple("TraceEvent", "time what")):
    __slots__ = ()


class Trace(namedtuple("Trace", "sample_rate supply_on trigger_out modulator_high sign amplitude carrier_pair "
                                "start", defaults=[0])):
    """Samples ``start..start + n_samples`` of the node waveforms, on the grid ``k / sample_rate``.

    ``supply_on``, ``trigger_out`` and ``modulator_high`` are bool arrays.  The siren is stored as
    ``sign`` (int8: ±1 sounding, 0 silent) with the scalars ``amplitude`` and ``carrier_pair``,
    the tones (modulator high, modulator low); ``speaker`` and ``carrier_freq`` derive the float
    channels from them.  The run's facts (windows, sounding time, event log) live on its ``Timeline``.
    """

    __slots__ = ()

    @property
    def times(self) -> np.ndarray:
        """The sample grid, ``k / sample_rate`` for k in start..start+n_samples-1."""
        times = np.arange(self.start, self.start + self.n_samples, dtype=np.float64)
        return np.divide(times, self.sample_rate, out=times)  # in place: no second grid-sized array

    @property
    def n_samples(self) -> int:
        return len(self.supply_on)

    @property
    def speaker(self) -> np.ndarray:
        """The speaker drive: ``amplitude`` times ``sign``, 0.0 when silent."""
        return np.take((0.0, self.amplitude, -self.amplitude), self.sign, mode="wrap")

    @property
    def carrier_freq(self) -> np.ndarray:
        """The tone that ``modulator_high`` picks from ``carrier_pair`` while sounding, else 0.0."""
        return np.where(self.sign != 0, np.where(self.modulator_high, *self.carrier_pair), 0.0)


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


def _sample_index(t: float, rate: float, i0: int, i1: int, after: bool = False) -> int:
    """The smallest k in [i0, i1] with ``k / rate >= t`` (``> t`` if ``after``), else i1: searchsorted
    on ``Trace.times``, whose divisor is ``rate``, without the grid.  ceil(t·rate) is a step off at most."""
    passes = gt if after else ge
    k = math.ceil(min(max(t * rate, i0), i1))
    while k > i0 and passes((k - 1) / rate, t):
        k -= 1
    while k < i1 and not passes(k / rate, t):
        k += 1
    return k


class Timeline(namedtuple("Timeline", "sample_rate n_samples duration alarm_windows off_spans segments notes "
                                      "modulator carrier_pair amplitude")):
    """A simulated scenario as intervals, before sampling.

    The trigger is high on each ``alarm_windows`` (start, end) as [start, end), the supply is off
    on each ``off_spans`` (a, b] and the siren sounds in each ``segments`` (ref, end, on, off);
    all three are tuples, sorted and disjoint.  ``notes`` are ``TraceEvent``s, time-ordered and
    none past the duration; ``modulator`` is the ``design.AstableTimes`` of the modulator and
    ``carrier_pair`` its tones (modulator high, modulator low).  ``render`` samples any
    stretch of the grid; pieces rendered over any cut points concatenate to
    exactly ``render(0, n_samples)``.  ``log()`` merges the modulator edges
    into ``notes``, the O(breakpoints) log entries that give each cause.
    """

    __slots__ = ()

    @property
    def sounding_intervals(self) -> tuple[tuple[float, float], ...]:
        """The sounding segments as (start, end), clipped to the scenario."""
        return tuple((ref, min(end, self.duration))
                     for ref, end, _on, _off in self.segments if ref < self.duration)

    @property
    def sounding_seconds(self) -> float:
        return sum(end - start for start, end in self.sounding_intervals)

    def log(self) -> Iterator[TraceEvent]:
        """The exact-time event log, time-ordered; at equal times notes come before modulator edges."""
        return heapq.merge(self.notes, self._edges(), key=itemgetter(0))

    def _edges(self) -> Iterator[TraceEvent]:
        """Each sounding interval's modulator edges, the phase restarting at its start."""
        for start, stop in self.sounding_intervals:
            state_high, toggle = True, start
            while True:
                toggle += self.modulator.t1 if state_high else self.modulator.t2
                if toggle >= stop:
                    break
                state_high = not state_high
                yield TraceEvent(toggle, f"modulator {'high' if state_high else 'low'}")

    def render(self, i0: int, i1: int) -> Trace:
        """Samples ``i0..i1`` as a ``Trace`` starting at ``i0``: one slice per overlapping interval."""
        if not (isinstance(i0, int) and isinstance(i1, int) and 0 <= i0 <= i1 <= self.n_samples):
            raise SimulationError(f"samples {i0!r}..{i1!r} are not within 0..{self.n_samples}")
        n = i1 - i0
        supply = np.ones(n, dtype=bool)
        trigger = np.zeros(n, dtype=bool)
        modulator_high = np.zeros(n, dtype=bool)
        sign = np.zeros(n, dtype=np.int8)
        piece = Trace(self.sample_rate, supply, trigger, modulator_high, sign, self.amplitude,
                      self.carrier_pair, i0)
        if n == 0:
            return piece
        rate = float(self.sample_rate)  # as Trace.times divides by it

        def index(t: float, after: bool = False) -> int:  # of the first sample at or after t (after t)
            return _sample_index(t, rate, i0, i1, after) - i0

        first, last = i0 / rate, (i1 - 1) / rate
        for start, end in _overlapping(self.alarm_windows, first, last):
            trigger[index(start):index(end)] = True
        for a, b in _overlapping(self.off_spans, first, last):
            supply[index(a, True):index(b, True)] = False

        t1 = self.modulator.t1
        freq_mod_high, freq_mod_low = self.carrier_pair
        for ref, end, _on, _off in _overlapping(self.segments, first, last):
            # Every sample strictly inside (ref, end) sounds; one at ref or end may not.
            begin, stop = index(ref), index(end, True)
            if begin < stop and not (trigger[begin] and supply[begin]):
                begin += 1
            if begin < stop and not (trigger[stop - 1] and supply[stop - 1]):
                stop -= 1
            if begin == stop:
                continue
            # The stretch's own sample times, then the float chain in place in that one buffer.
            out = np.arange(i0 + begin, i0 + stop, dtype=np.float64)
            position = self._position(np.subtract(np.divide(out, rate, out=out), ref, out=out))
            high = np.less(position, t1, out=modulator_high[begin:stop])
            low = ~high
            # 2·f·phase, the phase counted from the last modulator edge
            np.multiply(2.0 * freq_mod_high, position, out=out, where=high)
            np.multiply(2.0 * freq_mod_low, np.subtract(position, t1, out=out, where=low), out=out, where=low)
            # It lies in [0, n_samples) (f below Nyquist, phase within the run), so truncating it
            # in place gives its floor, whose parity picks the sign.
            parity = out.view(np.intp)
            np.copyto(parity, out, casting="unsafe")
            np.bitwise_and(parity, 1, out=parity)
            np.take(np.int8((1, -1)), parity, out=sign[begin:stop], mode="wrap")
        return piece

    def _position(self, elapsed: np.ndarray) -> np.ndarray:
        """``np.fmod(elapsed, period)`` bit for bit, for increasing ``elapsed >= 0``: cycle k,
        with ``hi + lo == k·period`` exactly, starts at the first sample ``>= hi``, or ``> hi``
        where ``hi`` rounded down; in it ``(elapsed - hi) - lo`` is exact (Sterbenz).  A stretch
        inside one cycle (common, as each relay gap restarts the modulator) takes ``hi`` and
        ``lo`` as scalars; only one spanning several cycles builds per-sample offsets.
        """
        period = self.modulator.period
        k_first, k_last = (round((e - math.fmod(e, period)) / period)
                           for e in (float(elapsed[0]), float(elapsed[-1])))
        # period's top 26 and low 27 mantissa bits times k are exact (k < 2**25: MAX_SAMPLES, Nyquist)
        mantissa, exponent = math.frexp(period)
        top = math.ldexp(math.floor(math.ldexp(mantissa, 26)), exponent - 26)
        cycles = k_first if k_first == k_last else np.arange(k_first, k_last + 1)
        hi = cycles * period
        lo = (cycles * top - hi) + cycles * (period - top)
        if k_first < k_last:
            starts = np.searchsorted(elapsed, np.where(lo > 0, np.nextafter(hi, np.inf), hi))
            counts = np.diff(np.append(starts, len(elapsed)))
        for offset in (hi, lo):  # one at a time: a repeated offset is as long as the stretch
            elapsed -= offset if k_first == k_last else np.repeat(offset, counts)
        return elapsed

    def chunks(self) -> Iterator[Trace]:
        """``render`` over consecutive pieces of ``CHUNK`` samples."""
        for i0 in range(0, self.n_samples, CHUNK):
            yield self.render(i0, min(i0 + CHUNK, self.n_samples))


def timeline(spec: design.CircuitSpec, scenario: Scenario,
             config: SimConfig | None = None) -> Timeline:
    """Validate the inputs, check the budgets and build the scenario's timeline from the
    circuit's figures in ``design.compute_report(spec)``, raising whatever that raises."""
    if config is None:
        config = SimConfig()
    spec.validate()
    scenario.validate()
    config.validate()

    report = design.compute_report(spec)
    timeout = report.value("trigger_timeout")
    modulator = design.AstableTimes(*(report.value(f"low_{x}") for x in ("t1", "t2", "period", "freq", "duty")))
    freq_mod_high, freq_mod_low = (config.ideal_pair if config.ideal_pair is not None
                                   else (report.value("f_lo_tone"), report.value("f_hi_tone")))
    for name, frequency in (("carrier", max(freq_mod_high, freq_mod_low)), ("modulator", modulator.frequency)):
        if config.sample_rate <= 2.0 * frequency:
            raise SimulationError(
                f"sample_rate {config.sample_rate} is below the Nyquist bound for the {frequency:.4g} Hz {name}")
    requested = scenario.duration * config.sample_rate
    if requested > MAX_SAMPLES:
        raise SimulationError(
            f"{scenario.duration:g} s at {config.sample_rate:g} Hz needs {requested:.4g} "
            f"samples, over the limit of {MAX_SAMPLES}"
        )
    p_out = report.value("amp_p_out")
    amplitude = math.sqrt(p_out * spec.speaker_impedance)
    if not math.isfinite(amplitude):
        raise DesignError(
            f"siren amplitude sqrt({p_out:g} W * {spec.speaker_impedance:g} Ω) is not finite")

    notes: list[TraceEvent] = [
        TraceEvent(event.time, f"event {event.kind}") for event in scenario.events
    ]

    # --- trigger windows [start, end) ----------------------------------------
    # A touch inside the open window opens none; one-shot, it is held for no time and extends nothing.
    one_shot = config.retrigger == "one_shot"
    windows: list[list] = []  # [start, end, cause]
    for start, end in _pairs(scenario.events, *EVENT_KINDS[:2]):
        held = start if one_shot else scenario.duration if end is None else end
        window = [start, max(held, start + timeout), "touch released" if held > start + timeout else "timeout"]
        if not windows or start >= windows[-1][1]:
            windows.append(window)
            continue
        if not one_shot and window[1] > windows[-1][1]:
            windows[-1][1:] = window[1:]
        notes.append(TraceEvent(start, "retrigger ignored (one-shot window active)" if one_shot
                                else "alarm window extended (retrigger)"))
    for start, end, cause in windows:
        notes.append(TraceEvent(start, "trigger high (touch)"))
        notes.append(TraceEvent(end, f"trigger low ({cause})"))

    # --- supply-off spans (a, b] ----------------------------------------------
    # Relay gaps plus, without a battery, each outage; an outage that is
    # never restored lasts past the end of the scenario.
    mains_events = [e for e in scenario.events if e.kind in EVENT_KINDS[2:]]
    spans = [(e.time, e.time + config.switchover_delay) for e in mains_events]
    if not config.battery_present:
        spans += [(a, math.inf if b is None else b)
                  for a, b in _pairs(mains_events, *EVENT_KINDS[2:])]
    off_spans = _merge_spans(spans)

    last_mains_kind = {e.time: e.kind for e in mains_events}
    for a, b in off_spans:
        if last_mains_kind[a] == EVENT_KINDS[2]:
            what = "supply off (mains failed)" if config.battery_present \
                else "supply off (mains failed, no battery)"
        else:
            what = "supply off (mains restored, relay switching)"
        notes.append(TraceEvent(a, what))
        notes.append(TraceEvent(b, "supply on (switchover complete)"))

    # --- sounding segments (ref, end, on, off): each window minus the off spans
    # ref is the modulator phase reference: the window start or a span end;
    # on and off say why the siren starts and stops there.
    span_ends = [b for _a, b in off_spans]
    segments: list[tuple[float, float, str, str]] = []
    for window_start, window_end, _cause in windows:
        cursor, on = window_start, "alarm onset"
        for a, b in off_spans[bisect.bisect_left(span_ends, window_start):]:
            if a >= window_end or cursor >= window_end:
                break
            if a >= cursor:
                segments.append((cursor, a, on, "supply lost"))
            cursor, on = b, "supply restored"
        if cursor < window_end:
            segments.append((cursor, window_end, on, "window closed"))

    for ref, end, on, off in segments:
        notes.append(TraceEvent(ref, f"siren on ({on}, modulator phase reset)"))
        notes.append(TraceEvent(end, f"siren off ({off})"))
    notes.sort(key=itemgetter(0))

    return Timeline(
        sample_rate=config.sample_rate,
        n_samples=int(round(requested)),
        duration=scenario.duration,
        alarm_windows=tuple((w[0], w[1]) for w in windows),
        off_spans=tuple(off_spans),
        segments=tuple(segments),
        notes=tuple(note for note in notes if note.time <= scenario.duration),
        modulator=modulator,
        carrier_pair=(freq_mod_high, freq_mod_low),
        amplitude=amplitude,
    )


def run(spec: design.CircuitSpec, scenario: Scenario, config: SimConfig | None = None) -> Trace:
    """Simulate the scenario and return the sampled trace."""
    whole = timeline(spec, scenario, config)
    return whole.render(0, whole.n_samples)


# --- Monte Carlo tolerance study ---------------------------------------------


class ToleranceResult(namedtuple("ToleranceResult", "runs min max mean stddev")):
    __slots__ = ()

    def contains(self, target: float) -> bool:
        return self.min <= target <= self.max


# numpy's SeedSequence (pool of four uint32 words) and PCG64 constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MASK32 = 0xFFFFFFFF

# Studies of up to _KEEP runs keep their samples, drawn _BLOCK runs at a time (32 KiB temporaries);
# longer ones draw each summation leaf of up to _LEAF runs twice, in one go (fewer, larger array operations).
_BLOCK, _KEEP, _LEAF = 2**12, 2**16, 2**14


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


def _default_rng_doubles(seed: int, indices: np.ndarray) -> list[np.ndarray]:
    """The first two ``random()`` doubles of ``default_rng((seed, i))``.

    ``seed`` is a non-negative integer below 2**64 and ``indices`` a uint32
    array; the result holds one array per draw, one element per index.  Call
    under ``np.errstate``: the uint32/uint64 arithmetic wraps on purpose.
    """
    # SeedSequence entropy: seed words (little-endian, 0 is one word; scalars, shared by every run), index.
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.uint32(w) for w in words] + [indices]

    hash_const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)

    # generate_state(4, uint64): eight words cycling over the pool, hashed in order, in pairs.
    hash_const, mult = _INIT_B, _MULT_B
    s0, s1, s2, s3 = (hashmix(pool[k]).astype(np.uint64) | hashmix(pool[k + 1]).astype(np.uint64) << 32
                      for k in (0, 2, 0, 2))

    # PCG64 seeding: inc = (s2:s3) << 1 | 1; state 0, step, add (s0:s1), step.
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    del pool, mixed, s0, s1, s2, s3  # a smaller peak while drawing

    doubles = []
    for _ in range(2):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        out = xored >> rot | xored << (-rot & 63)  # XSL-RR output
        doubles.append((out >> 11) * 2.0**-53)
    return doubles


def timeout_samples(spec: design.CircuitSpec, rel_tolerance: float, seed: int, i0: int, i1: int,
                    block: int = _BLOCK) -> np.ndarray:
    """Runs ``i0 <= i < i1 <= MAX_RUNS`` of ``monte_carlo_timeout(spec, rel_tolerance, runs, seed)``,
    drawn ``block`` runs at a time."""
    spec.validate()
    if not (isinstance(rel_tolerance, (int, float)) and 0.0 < rel_tolerance < 1.0):
        raise SimulationError(f"rel_tolerance must be in (0, 1), got {rel_tolerance!r}")
    if not (all(isinstance(x, int) for x in (i0, i1, block)) and 0 <= i0 <= i1 <= MAX_RUNS and block > 0):
        raise SimulationError(f"runs {i0!r}..{i1!r} in blocks of {block!r}: not within 0..{MAX_RUNS}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    bands = [(x * (1.0 - rel_tolerance), x * (1.0 + rel_tolerance)) for x in (spec.r3, spec.c2)]
    samples = np.empty(i1 - i0, dtype=np.float64)
    with np.errstate(all="ignore"):
        for start in range(i0, i1, block):
            stop = min(start + block, i1)
            doubles = _default_rng_doubles(seed, np.arange(start, stop, dtype=np.uint32))
            r3, c2 = (lo + (hi - lo) * u for (lo, hi), u in zip(bands, doubles))  # Generator.uniform's arithmetic
            design._require("> 0", r=float(r3.min()))
            samples[start - i0:stop - i0] = 1.1 * r3 * c2
    return samples


def _pairwise(leaf_sum, i0: int, n: int):
    """numpy's pairwise sum of runs ``i0..i0+n``, split as numpy splits above ``_LEAF`` (>= 128)."""
    if n <= _LEAF:
        return leaf_sum(i0, i0 + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(leaf_sum, i0, half) + _pairwise(leaf_sum, i0 + half, n - half)


def monte_carlo_timeout(
    spec: design.CircuitSpec, rel_tolerance: float, runs: int, seed: int
) -> ToleranceResult:
    """Sample the trigger timeout with r3 and c2 drawn from a tolerance band.

    Run ``i`` draws r3 and then c2 uniformly from [nominal·(1−tol),
    nominal·(1+tol)], with the same two doubles and the same arithmetic as
    ``np.random.default_rng((seed, i)).uniform`` followed by
    ``monostable_period(r3, c2)``, so every sample is
    bit-identical to a per-run generator loop and independent of execution
    order.  The generators are not built: numpy's SeedSequence mixing and
    PCG64 seeding and stepping are computed in uint32/uint64 array
    arithmetic by ``timeout_samples``, which also checks ``spec`` and ``rel_tolerance``.
    Mean and stddev replay numpy's pairwise summation bit for bit.  Raises
    ``design.DesignError`` when a sample or statistic is not finite.
    """
    if not isinstance(runs, int) or runs < 1:
        raise SimulationError(f"runs must be >= 1, got {runs!r}")
    if runs > MAX_RUNS:
        raise SimulationError(f"{runs} Monte Carlo runs requested, over the limit of {MAX_RUNS}")

    kept = timeout_samples(spec, rel_tolerance, seed, 0, runs) if runs <= _KEEP else None
    extremes = []  # each leaf's min and max

    def leaf(i0: int, i1: int) -> np.ndarray:
        return timeout_samples(spec, rel_tolerance, seed, i0, i1, _LEAF) if kept is None else kept[i0:i1]

    def total(i0: int, i1: int):
        samples = leaf(i0, i1)
        extremes.extend((samples.min(), samples.max()))
        return np.add.reduce(samples)

    with np.errstate(all="ignore"):
        mean = _pairwise(total, 0, runs) / runs
        squares = _pairwise(lambda i0, i1: np.add.reduce(np.square(leaf(i0, i1) - mean)), 0, runs)
        stats = [float(np.min(extremes)), float(np.max(extremes)), float(mean), math.sqrt(squares / runs)]
    if not all(math.isfinite(x) for x in stats):
        raise DesignError(
            "trigger timeout samples overflow: min={:g} max={:g} mean={:g} stddev={:g}".format(*stats)
        )
    return ToleranceResult(runs, *stats)
