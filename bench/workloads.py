"""Seeded job generator for the benchmark's three workloads.

A job is one ``touchalarm`` CLI call: its argv, the input files it reads and
the output files it writes.  Each workload cycles through a fixed list of job
kinds, so every run has the same mix.  Each kind has ``Workload.pool``
instances; instance ``i`` comes from its own ``random.Random`` seeded with
``"<workload>/<kind>/<i>"``, so it is the same on every machine and run.
The benchmark's ``--seed`` chooses which instances run and in what order.
``expected.json`` holds, for every instance, what the program printed and
wrote when the records were made (see ``record.py``).

Only ``Random.random()`` is used, so the generated text does not depend on
how a Python version implements ``randrange`` or ``choice``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

SAMPLE_RATE = 16000
GOLDEN_VERIFY = "tests/golden/verify_default.txt"

# Directory placeholder in argv; replaced by the job's own directory.
DIR = "@"


@dataclass(frozen=True)
class Workload:
    name: str
    layer: str  # the layer this workload is meant to load
    probe: str  # speed probe matching that layer's work (see speed.py)
    kinds: tuple[str, ...]  # one cycle of job kinds; runs repeat it
    pool: int  # recorded instances per kind


WORKLOADS = {
    w.name: w
    for w in (
        # The per-row CSV writer is most of each job, and the timeline has at
        # most 8 breakpoints: where a CSV change shows and a timeline change
        # must not.
        Workload("trace_csv", "export.csv", "python", ("held", "single"), 24),
        # Rendering a timeline with hundreds of breakpoints is most of each job
        # and no CSV is written; the two retrigger modes build windows and
        # segments differently.
        Workload("outage_storm", "simulator.run", "numpy", ("level", "one_shot"), 24),
        # Interpreter start and import are most of the short calculator jobs,
        # Monte Carlo sets the tail; nothing is rendered or written as CSV.
        Workload("calc_cli", "cli.process_s + simulator.monte_carlo", "spawn",
                 ("design_text", "snap", "tolerance", "design_kv", "verify", "snap", "tolerance"), 48),
    )
}


@dataclass(frozen=True)
class Job:
    key: str  # "<workload>/<kind>/<index>", the key of its record
    args: tuple[str, ...]  # argv after the program name; DIR marks the job directory
    inputs: tuple[tuple[str, str], ...]  # (file name, text) written before the call
    outputs: tuple[str, ...]  # file names the call writes
    samples: int  # waveform samples or Monte Carlo draws the call produces
    timeout_s: float

    @property
    def kind(self) -> str:
        return self.key.split("/")[1]

    def input_digest(self) -> str:
        """SHA-256 of everything the program receives; a record is valid only for it."""
        blob = json.dumps([self.args, self.inputs, self.outputs], separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def argv(self, job_dir: str) -> list[str]:
        return [a.replace(DIR, job_dir) for a in self.args]


def _pick(rng: random.Random, items):
    return items[int(rng.random() * len(items))]


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


# Circuit keys the generator may override, with values near the stock part
# that keep every design equation inside its domain.
_CIRCUIT_CHOICES = {
    "r3": ("100k", "150k", "180k", "220k", "270k", "330k", "470k"),
    "c2": ("22u", "33u", "47u", "68u", "100u"),
    "r7": ("47k", "68k", "82k", "100k", "120k", "150k"),
    "r8": ("47k", "68k", "82k", "100k", "120k", "150k"),
    "c4": ("6.8n", "8.2n", "10n", "12n", "15n"),
    "r9": ("150k", "220k", "300k", "390k", "470k"),
    "r11": ("680", "1k", "1.5k", "2.2k"),
    "r12": ("15k", "22k", "27k", "33k"),
    "c6": ("33u", "47u", "68u"),
    "r10": ("1.5k", "2.2k", "3.3k"),
    "relay_coil_resistance": ("300", "400", "470"),
    "tr1_hfe": ("25", "50", "100"),
}
_TIMING_KEYS = ("r3", "c2")


def _circuit_text(rng: random.Random, keys=tuple(_CIRCUIT_CHOICES)) -> str:
    count = 1 + int(rng.random() * 4)
    chosen = []
    for _ in range(count):
        key = _pick(rng, keys)
        if key not in chosen:
            chosen.append(key)
    lines = [f"# generated circuit, {len(chosen)} override(s)"]
    for key in chosen:
        lines.append(f"{key} = {_pick(rng, _CIRCUIT_CHOICES[key])}")
    return "\n".join(lines) + "\n"


def _scenario_text(events: list[tuple[float, str]], duration: float) -> str:
    lines = [f"{t:.4f} {kind}" for t, kind in events]
    lines.append(f"duration {duration:g}")
    return "\n".join(lines) + "\n"


def _touch_scenario(rng: random.Random, held: bool) -> str:
    """5 s with one touch and either a retrigger or a mains blip (at most 8 breakpoints)."""
    duration = TOUCH_DURATION
    start = _uniform(rng, 0.2, 1.8)
    events = [(start, "touch_start")]
    retrigger = False
    if held:
        if rng.random() < 0.5:
            events.append((_uniform(rng, start + 1.0, 4.8), "touch_end"))
    else:
        release = start + _uniform(rng, 0.05, 0.8)
        events.append((release, "touch_end"))
        retrigger = rng.random() < 0.4
        if retrigger:
            again = release + _uniform(rng, 0.3, 1.5)
            events += [(again, "touch_start"), (again + _uniform(rng, 0.05, 0.5), "touch_end")]
    if not retrigger and rng.random() < 0.5:
        fail = _uniform(rng, 1.5, 3.5)
        events += [(fail, "mains_fail"), (fail + _uniform(rng, 0.05, 1.0), "mains_restore")]
    events.sort(key=lambda e: e[0])
    return _scenario_text(events, duration)


def _storm_scenario(rng: random.Random, outages: int, duration: float) -> str:
    """A touch held to the end through ``outages`` evenly spread mains outages."""
    events = [(_uniform(rng, 0.2, 0.9), "touch_start")]
    step = (duration - 2.0) / outages
    for i in range(outages):
        fail = 1.0 + (i + 0.5 * rng.random()) * step
        events += [(fail, "mains_fail"), (fail + step * _uniform(rng, 0.05, 0.4), "mains_restore")]
    return _scenario_text(events, duration)


TOUCH_DURATION = 5.0

# Outage counts per retrigger mode.  One-shot renders one short window, so
# it gets more outages to cost about as much as a level-sensitive job and
# keep each run's job times unimodal.
STORM_DURATION = 100.0
STORM_OUTAGES = {"level": 70, "one_shot": 170}


def make_job(workload: str, kind: str, index: int) -> Job:
    key = f"{workload}/{kind}/{index}"
    rng = random.Random(key)
    scn, circ = f"{DIR}/in.scn", f"{DIR}/in.circ"

    if workload == "trace_csv":
        text = _touch_scenario(rng, held=kind == "held")
        args = ("simulate", "--scenario", scn, "--csv", f"{DIR}/out.csv", "--wav", f"{DIR}/out.wav")
        return Job(key, args, (("in.scn", text),), ("out.csv", "out.wav"),
                   int(round(TOUCH_DURATION * SAMPLE_RATE)), 60.0)

    if workload == "outage_storm":
        text = _storm_scenario(rng, STORM_OUTAGES[kind], STORM_DURATION)
        args = ("simulate", "--scenario", scn, "--wav", f"{DIR}/out.wav")
        if kind == "one_shot":
            args += ("--one-shot",)
        return Job(key, args, (("in.scn", text),), ("out.wav",),
                   int(round(STORM_DURATION * SAMPLE_RATE)), 60.0)

    if workload != "calc_cli":
        raise KeyError(workload)
    inputs: tuple[tuple[str, str], ...] = ()
    outputs: tuple[str, ...] = ()
    samples = 0
    if kind in ("design_text", "design_kv"):
        args = ("design",)
        if index % 8 != 0:  # every eighth instance uses the stock circuit
            inputs = (("in.circ", _circuit_text(rng)),)
            args += (circ,)
        if kind == "design_kv":
            args += ("--format", "kv")
        if index % 4 == 1:
            args += ("--out", f"{DIR}/report.txt")
            outputs = ("report.txt",)
    elif kind == "verify":
        args = ("verify",)
        if index % 3 != 0:  # every third instance is the stock audit, checked against the golden table
            inputs = (("in.circ", _circuit_text(rng)),)
            args += ("--circuit", circ)
            if rng.random() < 0.5:
                args += ("--tolerance", _pick(rng, ("0.005", "0.02", "0.05", "0.1")))
    elif kind == "snap":
        mantissa = _uniform(rng, 1.0, 10.0)
        digits = 2 + int(rng.random() * 4)
        value = f"{mantissa:.{digits}g}{_pick(rng, ('p', 'n', 'u', 'm', '', '', 'k', 'M'))}"
        args = ("snap", "--series", _pick(rng, ("E6", "E12", "E24", "E96")),
                "--mode", _pick(rng, ("nearest", "up", "down")), value)
    elif kind == "tolerance":
        samples = 14000 + 100 * int(rng.random() * 21)
        args = ("tolerance", "--tol", _pick(rng, ("0.01", "0.02", "0.05", "0.1", "0.2")),
                "--runs", str(samples), "--seed", str(int(rng.random() * 1_000_000)))
        if rng.random() < 0.5:
            inputs = (("in.circ", _circuit_text(rng, _TIMING_KEYS)),)
            args += ("--circuit", circ)
    else:
        raise KeyError(kind)
    return Job(key, args, inputs, outputs, samples, 30.0)


def all_jobs(workload: str):
    w = WORKLOADS[workload]
    for kind in dict.fromkeys(w.kinds):
        for index in range(w.pool):
            yield make_job(workload, kind, index)


def schedule(workload: str, seed: int):
    """Endless job sequence for one run: the kind cycle, with seeded instances."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    queues: dict[str, list[int]] = {}
    while True:
        for kind in w.kinds:
            if not queues.get(kind):
                order = list(range(w.pool))
                for i in range(len(order) - 1, 0, -1):  # Fisher-Yates on random() alone
                    j = int(rng.random() * (i + 1))
                    order[i], order[j] = order[j], order[i]
                queues[kind] = order
            yield make_job(workload, kind, queues[kind].pop())
