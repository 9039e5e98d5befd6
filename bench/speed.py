"""Scale wall times to a reference CPU speed.

The CPU speed of a small shared machine drifts by ±20 % over seconds, which
swamps the run-to-run differences the benchmark must detect.  A fixed probe,
run in the client just before and just after each measurement on the same
CPU, tracks that drift: a measured wall time times ``ref_s / probe`` is the
time the same work would take on a machine where the probe takes ``ref_s``
(the reference is a 2.1 GHz x86_64 with Python 3.11 and numpy 2.4).  The
client pins itself and its jobs to one CPU so that probe and job share it.

Interpreted Python, streaming array code and process start-up do not slow
down together, so there are three probes.  Each workload uses the one that
matches the work that dominates its jobs.  None of them runs code of the
program under test.
"""

from __future__ import annotations

import os
import sys
import time

import jobs

PYTHON_REF_S = 0.0115
NUMPY_REF_S = 0.015
SPAWN_REF_S = 0.055


def python_probe() -> float:
    """Time a fixed interpreted loop."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - start


def numpy_probe():
    """Return a probe timing six boolean masks over 100 s of 16 kHz sample times."""
    import numpy as np

    times = np.arange(1_600_000, dtype=np.float64) / 16000

    def probe() -> float:
        start = time.perf_counter()
        for k in range(6):
            (times > k) & (times <= k + 50.0)
        return time.perf_counter() - start

    return probe


def spawn_probe(env: dict[str, str]):
    """Return a probe timing a bare interpreter start, ``python -c pass``, in ``env``."""

    def probe() -> float:
        argv = [sys.executable, "-c", "pass"]
        code, wall, _ = jobs.spawn(argv, env, os.devnull, 10.0)
        if code != 0:
            raise RuntimeError(f"'python -c pass' exited {code}")
        return wall

    return probe


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to its lowest usable CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Scaler:
    """Scales each measurement by the mean of the probes on either side of it."""

    def __init__(self, probe_fn, ref_s: float) -> None:
        self._probe = probe_fn
        self.ref_s = ref_s
        self._before = probe_fn()
        self.probes = [self._before]

    def scale(self, wall_s: float) -> float:
        after = self._probe()
        self.probes.append(after)
        factor = self.ref_s / ((self._before + after) / 2)
        self._before = after
        return wall_s * factor


def scaler(kind: str, env: dict[str, str]) -> Scaler:
    if kind == "python":
        return Scaler(python_probe, PYTHON_REF_S)
    if kind == "numpy":
        return Scaler(numpy_probe(), NUMPY_REF_S)
    if kind == "spawn":
        return Scaler(spawn_probe(env), SPAWN_REF_S)
    raise ValueError(f"unknown probe {kind!r}")
