"""Deterministic behavioral simulation of the alarm system.

``run`` renders sampled node waveforms for a scenario of touch and mains
events: the relay changeover (with its switchover delay), the one-shot
trigger window, the two-tone siren and the amplified speaker square wave.
``monte_carlo_timeout`` spreads the trigger timing parts over a tolerance
band with one deterministic generator per run.

Sampling conventions (shared with the tests' analytic oracle):

- trigger windows are closed-left half-open-right [start, end)
- a relay gap blanks the supply on (event_time, event_time + delay]; a
  zero-length gap (delay 0) blanks nothing and resets nothing
- without a battery the supply is also down on (mains_fail, mains_restore];
  an outage that is never restored lasts to the end of the scenario
- the modulator phase restarts whenever sounding switches on; within a
  cycle the position is fmod(t - onset, period), high while < t1
- the carrier square restarts at each modulator edge, sign from
  floor(2·f·phase) parity
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from . import design

EVENT_KINDS = ("touch_start", "touch_end", "mains_fail", "mains_restore")

RETRIGGER_MODES = ("level_sensitive", "one_shot")

# Stopwatch figure from the reference build's bench test, for the Monte
# Carlo containment check.
MEASURED_TIMEOUT_SECONDS = 10.60


class ScenarioError(ValueError):
    """Scenario text or event sequence violates the format invariants."""


class SimulationError(ValueError):
    """Simulation configuration is unusable (e.g. sample rate too low)."""


@dataclass(frozen=True)
class ScenarioEvent:
    time: float
    kind: str


@dataclass(frozen=True)
class Scenario:
    """Time-ordered external events plus the simulated duration."""

    events: tuple[ScenarioEvent, ...] = ()
    duration: float = 30.0

    def validate(self) -> None:
        previous = 0.0
        expected = {"touch": "touch_start", "mains": "mains_fail"}
        for event in self.events:
            if event.kind not in EVENT_KINDS:
                raise ScenarioError(f"unknown event kind {event.kind!r}")
            if not math.isfinite(event.time) or event.time < 0:
                raise ScenarioError(f"event time must be finite and >= 0, got {event.time!r}")
            if event.time < previous:
                raise ScenarioError(
                    f"event times must be non-decreasing ({event.time} after {previous})"
                )
            previous = event.time
            group = "touch" if event.kind.startswith("touch") else "mains"
            if event.kind != expected[group]:
                raise ScenarioError(
                    f"{event.kind} at {event.time} breaks alternation "
                    f"(expected {expected[group]})"
                )
            expected[group] = {
                "touch_start": "touch_end", "touch_end": "touch_start",
                "mains_fail": "mains_restore", "mains_restore": "mains_fail",
            }[event.kind]
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
                raise ScenarioError(f"line {lineno}: bad duration {parts[1]!r}") from None
            continue
        if len(parts) != 2:
            raise ScenarioError(f"line {lineno}: expected '<time> <event>', got {raw!r}")
        try:
            time = float(parts[0])
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad time {parts[0]!r}") from None
        kind = parts[1]
        if kind not in EVENT_KINDS:
            raise ScenarioError(f"line {lineno}: unknown event kind {kind!r}")
        events.append(ScenarioEvent(time, kind))
    if duration is None:
        duration = events[-1].time + 30.0 if events else 30.0
    scenario = Scenario(tuple(events), duration)
    scenario.validate()
    return scenario


@dataclass(frozen=True)
class SimConfig:
    sample_rate: int = 16000
    switchover_delay: float = 0.010
    battery_present: bool = True
    ideal_pair: tuple[float, float] | None = None  # None selects the control-pin model
    retrigger: str = "level_sensitive"

    def validate(self) -> None:
        if not isinstance(self.sample_rate, int) or self.sample_rate <= 0:
            raise SimulationError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        if not math.isfinite(self.switchover_delay) or self.switchover_delay < 0:
            raise SimulationError(f"switchover_delay must be >= 0, got {self.switchover_delay!r}")
        if self.retrigger not in RETRIGGER_MODES:
            raise SimulationError(f"retrigger must be one of {RETRIGGER_MODES}, got {self.retrigger!r}")
        if self.ideal_pair is not None:
            if len(self.ideal_pair) != 2:
                raise SimulationError("ideal_pair needs exactly two frequencies")
            for f in self.ideal_pair:
                if not isinstance(f, (int, float)) or not math.isfinite(f) or f <= 0:
                    raise SimulationError(f"ideal_pair frequencies must be > 0, got {f!r}")


@dataclass(frozen=True)
class TraceEvent:
    time: float
    what: str


@dataclass(frozen=True, eq=False)
class Trace:
    """Sampled node waveforms plus the exact-time event log."""

    sample_rate: int
    times: np.ndarray
    supply_on: np.ndarray
    trigger_out: np.ndarray
    modulator_high: np.ndarray
    carrier_freq: np.ndarray
    speaker: np.ndarray
    amplitude: float
    events: tuple[TraceEvent, ...]
    alarm_windows: tuple[tuple[float, float], ...]
    sounding_intervals: tuple[tuple[float, float], ...]

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def sounding_seconds(self) -> float:
        return sum(end - start for start, end in self.sounding_intervals)


def _paired_touches(scenario: Scenario) -> list[tuple[float, float | None]]:
    pairs: list[tuple[float, float | None]] = []
    start = None
    for event in scenario.events:
        if event.kind == "touch_start":
            start = event.time
        elif event.kind == "touch_end":
            pairs.append((start, event.time))
            start = None
    if start is not None:
        pairs.append((start, None))  # held past the end of the scenario
    return pairs


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


def run(spec: design.CircuitSpec, scenario: Scenario, config: SimConfig | None = None) -> Trace:
    """Simulate the scenario and return the sampled trace."""
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
    power = design.amplifier_power(spec.vcc, spec.v_be, spec.amp_base_resistance, spec.tr2_hfe)
    amplitude = math.sqrt(power.p_out * spec.speaker_impedance)

    log: list[TraceEvent] = [
        TraceEvent(event.time, f"event {event.kind}") for event in scenario.events
    ]

    # --- trigger windows [start, end) ----------------------------------------
    windows: list[list] = []  # [start, end, cause]
    for start, end in _paired_touches(scenario):
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
        if end <= scenario.duration:
            log.append(TraceEvent(end, f"trigger low ({cause})"))

    # --- supply-off spans (a, b] ----------------------------------------------
    # Relay gaps plus, without a battery, each outage; an outage that is
    # never restored lasts past the end of the scenario.
    mains_events = [e for e in scenario.events if e.kind in ("mains_fail", "mains_restore")]
    spans = [(e.time, e.time + config.switchover_delay) for e in mains_events]
    if not config.battery_present:
        fails = [e.time for e in mains_events if e.kind == "mains_fail"]
        restores = [e.time for e in mains_events if e.kind == "mains_restore"]
        spans += zip(fails, restores + [math.inf])
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

    # --- sounding segments (ref, end): each window minus the off spans -------
    # ref is the modulator phase reference: the window start or a span end.
    span_ends = [b for _a, b in off_spans]
    segments: list[tuple[float, float]] = []
    for window_start, window_end, _cause in windows:
        cursor = window_start
        for a, b in off_spans[bisect.bisect_right(span_ends, window_start):]:
            if a >= window_end or cursor >= window_end:
                break
            if a >= cursor:
                segments.append((cursor, a))
            cursor = b
        if cursor < window_end:
            segments.append((cursor, window_end))

    window_starts = {w[0] for w in windows}
    window_ends = {w[1] for w in windows}
    for ref, end in segments:
        if ref > scenario.duration:
            continue
        cause = "alarm onset" if ref in window_starts else "supply restored"
        log.append(TraceEvent(ref, f"siren on ({cause}, modulator phase reset)"))
        if end <= scenario.duration:
            why = "window closed" if end in window_ends else "supply lost"
            log.append(TraceEvent(end, f"siren off ({why})"))
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

    # --- sampled channels: one slice per interval -----------------------------
    n = int(round(scenario.duration * config.sample_rate))
    times = np.arange(n, dtype=np.float64) / config.sample_rate

    def first_at_or_after(t: float) -> int:
        return int(np.searchsorted(times, t, "left"))

    def first_after(t: float) -> int:
        return int(np.searchsorted(times, t, "right"))

    trigger = np.zeros(n, dtype=bool)
    for window_start, window_end, _cause in windows:
        trigger[first_at_or_after(window_start):first_at_or_after(window_end)] = True

    supply = np.ones(n, dtype=bool)
    for a, b in off_spans:
        supply[first_after(a):first_after(b)] = False

    sounding = trigger & supply

    modulator_high = np.zeros(n, dtype=bool)
    carrier = np.zeros(n, dtype=np.float64)
    speaker = np.zeros(n, dtype=np.float64)
    for ref, end in segments:
        lo = first_at_or_after(ref)
        index = lo + np.flatnonzero(sounding[lo:first_after(end)])
        position = np.fmod(times[index] - ref, modulator.period)
        high = position < modulator.t1
        freq = np.where(high, freq_mod_high, freq_mod_low)
        phase = np.where(high, position, position - modulator.t1)
        parity = np.floor(2.0 * freq * phase) % 2
        modulator_high[index] = high
        carrier[index] = freq
        speaker[index] = amplitude * np.where(parity == 0, 1.0, -1.0)

    clipped = tuple(
        (ref, min(end, scenario.duration))
        for ref, end in segments
        if ref < scenario.duration
    )
    return Trace(
        sample_rate=config.sample_rate,
        times=times,
        supply_on=supply,
        trigger_out=trigger,
        modulator_high=modulator_high,
        carrier_freq=carrier,
        speaker=speaker,
        amplitude=amplitude,
        events=tuple(log),
        alarm_windows=tuple((w[0], w[1]) for w in windows),
        sounding_intervals=clipped,
    )


# --- Monte Carlo tolerance study ---------------------------------------------


@dataclass(frozen=True, eq=False)
class ToleranceResult:
    runs: int
    samples: np.ndarray = field(repr=False)
    min: float = 0.0
    max: float = 0.0
    mean: float = 0.0
    stddev: float = 0.0

    def contains(self, target: float) -> bool:
        return self.min <= target <= self.max


def monte_carlo_timeout(
    spec: design.CircuitSpec, rel_tolerance: float, runs: int, seed: int
) -> ToleranceResult:
    """Sample the trigger timeout with r3 and c2 drawn from a tolerance band.

    Each run draws uniformly from [nominal·(1−tol), nominal·(1+tol)] using a
    generator seeded from (seed, run index), so results are independent of
    execution order and parallelism.
    """
    spec.validate()
    if not isinstance(runs, int) or runs < 1:
        raise SimulationError(f"runs must be >= 1, got {runs!r}")
    if not (isinstance(rel_tolerance, (int, float)) and 0.0 < rel_tolerance < 1.0):
        raise SimulationError(f"rel_tolerance must be in (0, 1), got {rel_tolerance!r}")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    r3_lo, r3_hi = spec.r3 * (1.0 - rel_tolerance), spec.r3 * (1.0 + rel_tolerance)
    c2_lo, c2_hi = spec.c2 * (1.0 - rel_tolerance), spec.c2 * (1.0 + rel_tolerance)
    samples = np.empty(runs, dtype=np.float64)
    for index in range(runs):
        rng = np.random.default_rng((seed, index))
        r3 = rng.uniform(r3_lo, r3_hi)
        c2 = rng.uniform(c2_lo, c2_hi)
        samples[index] = design.monostable_period(r3, c2, "approx")
    return ToleranceResult(
        runs=runs,
        samples=samples,
        min=float(samples.min()),
        max=float(samples.max()),
        mean=float(samples.mean()),
        stddev=float(samples.std()),
    )
