"""Every circuit field at extreme values, through the four commands that read a circuit.

Each ``CircuitSpec`` field is set alone to each of ``VALUES`` and run in-process
through ``design``, ``verify``, ``simulate`` (a 1 s scenario, ``--wav``) and
``tolerance --runs 200``; so is each circuit of ``SEVERAL_FIELDS``.  Each run
must end with a documented exit code (1 only from ``verify``) and, when it
fails, exactly one short stderr line that names the problem: never
``cli.main``'s last-resort ``<Class>Error:`` form and never a ``nan`` that the
input did not hold.
"""

import contextlib
import io
import re

import pytest

from touchalarm.cli import main
from touchalarm.design import CircuitSpec

VALUES = ["5e-324", "1e-320", "1e-300", "1e-30", "0.5", "1", "12", "1e30", "1e300", "1.7e308"]
COMMANDS = {
    "design": ["design", "CIRCUIT"],
    "verify": ["verify", "--circuit", "CIRCUIT"],
    "simulate": ["simulate", "--scenario", "SCENARIO", "--circuit", "CIRCUIT", "--wav", "OUT"],
    "tolerance": ["tolerance", "--circuit", "CIRCUIT", "--runs", "200"],
}
MAX_LINE_BYTES = 200


def _problem(command: str, code: int, err: str) -> str | None:
    """What is wrong with one run's exit code and stderr, or None."""
    if code not in (0, 2, 3, 4) and not (code == 1 and command == "verify"):
        return f"exit {code}"
    if code in (0, 1):
        return None if err == "" else "stderr on success"
    if err.count("\n") != 1 or not err.endswith("\n"):
        return "not one stderr line"
    size = len(err.encode("utf-8")) - 1
    if size > MAX_LINE_BYTES:
        return f"{size}-byte line"
    if re.match(r"computation error: [A-Z]\w*(Error|Exception): ", err):
        return "last-resort handler"
    if "got nan" in err:
        return "nan not in the input"
    return None


@pytest.mark.parametrize("field", CircuitSpec._fields)
def test_extreme_field_values(field, tmp_path):
    scenario = tmp_path / "s.scn"
    scenario.write_text("0.1 touch_start\n0.2 touch_end\nduration 1\n")
    circuit = tmp_path / "c.circ"
    files = {"SCENARIO": str(scenario), "CIRCUIT": str(circuit), "OUT": str(tmp_path / "out.wav")}
    failures = []
    for value in VALUES:
        circuit.write_text(f"{field} = {value}\n")
        for command, argv in COMMANDS.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([files.get(arg, arg) for arg in argv])
            problem = _problem(command, code, err.getvalue())
            if problem:
                failures.append(f"{field} = {value}, {command}: {problem}: {err.getvalue()[:300]!r}")
    assert not failures, "\n".join(failures)


# (circuit that sets several fields, the one stderr line of design and verify)
SEVERAL_FIELDS = [
    # vcc / relay_coil_resistance underflows to a base current of 0
    ("vcc = 1e-300\nv_be = 0\nv_led = 0\nrelay_coil_resistance = 1e300\n",
     "computation error: r5_ideal: i_b: must be > 0, got 0.0\n"),
]


@pytest.mark.parametrize("circuit, message", SEVERAL_FIELDS, ids=["base-current-underflow"])
def test_several_fields_at_once(circuit, message, tmp_path):
    scenario = tmp_path / "s.scn"
    scenario.write_text("0.1 touch_start\n0.2 touch_end\nduration 1\n")
    (tmp_path / "c.circ").write_text(circuit)
    files = {"SCENARIO": str(scenario), "CIRCUIT": str(tmp_path / "c.circ"), "OUT": str(tmp_path / "out.wav")}
    for command, argv in COMMANDS.items():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([files.get(arg, arg) for arg in argv])
        assert _problem(command, code, err.getvalue()) is None, (command, err.getvalue())
        expected = (4, message) if command in ("design", "verify") else (0, "")
        assert (code, err.getvalue()) == expected, command
