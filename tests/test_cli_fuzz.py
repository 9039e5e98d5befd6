"""Fuzzing the command line in-process: documented exit codes, no traceback.

Hypothesis drives ``cli.main`` with valid and mutated circuit and scenario
text, sometimes saved as UTF-16 rather than UTF-8, and with odd
``--sample-rate``, ``--ideal-pair``, ``--runs``, ``--tol`` and ``verify
--tolerance`` values.  The work budgets are made small so that every example
stays quick, and the input budgets are sometimes made smaller than the
drawn files.
"""

import contextlib
import io
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from touchalarm import cli, design, simulator
from touchalarm.cli import main

ODD_NUMBERS = ["0", "-1", "nan", "inf", "1e308", "1e-308", "5e-324", "1e400", "abc", "", "1p",
               "10meg", "4.7k", "2n", "100u", "0x10", "1_000"]
TOLERANCES = ["nan", "inf", "-0", "0", "1e-300", "0.05"]
TIMING_KEYS = ["r3", "c2", "r7", "r8", "c4", "r9", "r11", "r12", "c6", "vcc", "v_be", "tr2_hfe"]
TOGGLE = {"touch": ("touch_start", "touch_end"), "mains": ("mains_fail", "mains_restore")}


def numbers():
    return st.one_of(st.sampled_from(ODD_NUMBERS), st.floats(allow_nan=False).map(repr))


@st.composite
def mutated(draw, lines):
    """``lines`` with up to two lines replaced by a token swap or junk text."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(numbers())
            lines[i] = " ".join(tokens)
        else:
            lines[i] = draw(st.text(max_size=20))
    return lines


@st.composite
def circuit_text(draw):
    keys = draw(st.lists(st.one_of(st.sampled_from(TIMING_KEYS), st.sampled_from(sorted(design.FIELD_UNITS))),
                         max_size=3))
    lines = [f"{key} = {draw(numbers())}" for key in keys]
    return "\n".join(draw(mutated(lines))) + "\n"


@st.composite
def scenario_text(draw):
    lines, time, held = [], 0.0, {"touch": False, "mains": False}
    for _ in range(draw(st.integers(0, 6))):
        time += draw(st.sampled_from([0.0, 0.001, 0.2, 1.0, 3.0, 12.0]))
        group = draw(st.sampled_from(sorted(TOGGLE)))
        lines.append(f"{time:g} {TOGGLE[group][held[group]]}")
        held[group] = not held[group]
    if draw(st.booleans()):
        lines.append(f"duration {time + draw(st.sampled_from([0, 0.5, 15, 40, 1e300]))!r}")
    return "\n".join(draw(mutated(lines))) + "\n"


@st.composite
def command(draw):
    """An argv list; CIRCUIT, SCENARIO and OUT/ stand for files in a temp directory."""
    circuit = draw(st.one_of(st.none(), circuit_text()))
    circuit_args = [] if circuit is None else ["--circuit", "CIRCUIT"]
    name = draw(st.sampled_from(["design", "verify", "simulate", "tolerance", "snap"]))
    if name == "design":
        argv = ["design", *(["CIRCUIT"] if circuit is not None else []),
                *draw(st.sampled_from([[], ["--format", "kv"]]))]
    elif name == "verify":
        tolerance = st.one_of(st.sampled_from(TOLERANCES), numbers())
        argv = ["verify", *circuit_args,
                *draw(st.one_of(st.just([]), tolerance.map(lambda t: ["--tolerance", t])))]
    elif name == "simulate":
        rate = draw(st.one_of(
            st.sampled_from(["2000", "8000", "16000", "44100", "1", "0", "-5", "1e3", "1" + "0" * 400]),
            st.integers(1, 10**6).map(str),
            st.just("8000"),
        ))
        outputs = draw(st.sampled_from([["--csv", "OUT/x.csv"], ["--wav", "OUT/x.wav"],
                                        ["--csv", "OUT/x.csv", "--wav", "OUT/x.wav"]]))
        ideal_pair = st.tuples(numbers(), numbers()).map(lambda pair: ["--ideal-pair", ",".join(pair)])
        flags = draw(st.lists(st.one_of(st.sampled_from([["--one-shot"], ["--ideal-pair", "470,490"],
                                                         ["--ideal-pair", "1e9,-1"]]), ideal_pair),
                              max_size=2))
        argv = ["simulate", "--scenario", "SCENARIO", *circuit_args, "--sample-rate", rate,
                *outputs, *sum(flags, [])]
    elif name == "tolerance":
        argv = ["tolerance", *circuit_args,
                "--tol", draw(st.one_of(
                    st.sampled_from(["0.1", "0.999999", "1e-300", "nan", "inf", "1", "-0.1", "x"]),
                    st.floats(0.0, 1.0).map(repr))),
                "--runs", draw(st.sampled_from(["1", "100", "2000", "2001", "0", "-3", "1e3",
                                                "9" * 30])),
                "--seed", str(draw(st.integers(-(2**80), 2**80)))]
    else:
        argv = ["snap", draw(numbers()), "--series", draw(st.sampled_from(["E6", "E12", "E96"]))]
    encodings = draw(st.lists(st.sampled_from(["utf-8", "utf-8", "utf-8", "utf-16"]),
                              min_size=2, max_size=2))
    return argv, circuit, draw(scenario_text()), encodings


@given(case=command(), max_input_bytes=st.sampled_from([cli.MAX_INPUT_BYTES, 40]),
       max_events=st.sampled_from([simulator.MAX_EVENTS, 3]))
@settings(max_examples=300, deadline=timedelta(seconds=2))
def test_cli_exits_cleanly(case, max_input_bytes, max_events):
    argv, circuit, scenario, (circuit_encoding, scenario_encoding) = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "MAX_SAMPLES", 2**18)
        mp.setattr(simulator, "MAX_LOG_EVENTS", 2000)
        mp.setattr(simulator, "MAX_RUNS", 2000)
        mp.setattr(simulator, "MAX_EVENTS", max_events)
        mp.setattr(cli, "MAX_INPUT_BYTES", max_input_bytes)
        Path(tmp, "c.circ").write_text(circuit or "", encoding=circuit_encoding)
        Path(tmp, "s.scn").write_text(scenario, encoding=scenario_encoding)
        files = {"CIRCUIT": str(Path(tmp, "c.circ")), "SCENARIO": str(Path(tmp, "s.scn"))}
        utf16 = {name for name, encoding in [("CIRCUIT", circuit_encoding),
                                             ("SCENARIO", scenario_encoding)]
                 if encoding != "utf-8" and name in argv}
        oversized = {name for name in files
                     if name in argv and Path(files[name]).stat().st_size > max_input_bytes}
        argv = [files.get(arg, arg.replace("OUT/", tmp + "/")) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4) or (code == 1 and argv[0] == "verify"), (code, err)
    assert "Traceback" not in err and "Warning" not in err, err
    assert err.count("\n") == (0 if code in (0, 1) else 1), err
    if oversized:
        event("oversized input")
    if utf16 or oversized:  # refused as an input error, unless a usage error comes first
        assert code in (2, 3), (code, err)
