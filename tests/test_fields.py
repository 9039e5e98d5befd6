"""Each circuit key: its stock value, and which keys drive an output.

``design.FIELDS`` is the one table of circuit keys.  The stock roster golden
pins every stock value, so a changed default is noticed even for a key that
no output reads.  The influence test raises each key 5 % on its own and
compares every output a circuit reaches with the stock circuit's: the kv
design report, the ``verify`` table, the diode PIV check, the timeline of a
touch-plus-outage scenario and a 200-run tolerance study.
"""

from pathlib import Path

import pytest

from touchalarm.design import (FIELDS, CircuitSpec, compute_report, parse_circuit, peak_inverse_voltage,
                               verify_reference_values, write_report)
from touchalarm.simulator import monte_carlo_timeout, parse_scenario, timeline

STOCK_CIRCUIT = Path(__file__).parent / "golden" / "stock_circuit.txt"

# The keys that no output reads, by why they are carried.
SIZED_PARTS = {"r1", "r2", "r5", "c1"}  # installed parts the equations size, never compared
RATINGS = {"diode_piv_rating", "speaker_power_rating"}  # ratings that no output checks
ROSTER_ONLY = {"mains_voltage", "fuse_rating", "r4", "r6", "r10", "c3", "c5"}  # drive no equation
INERT = SIZED_PARTS | RATINGS | ROSTER_ONLY

SCENARIO = parse_scenario("1.0 touch_start\n1.2 touch_end\n3.0 mains_fail\n4.5 mains_restore\n"
                          "6.0 touch_start\n6.5 touch_end\nduration 20\n")


def _outputs(spec: CircuitSpec) -> tuple:
    report = compute_report(spec)
    return (write_report(report, "kv"),
            write_report(verify_reference_values(report), "text"),
            peak_inverse_voltage(spec.transformer_secondary, spec.diode_piv_rating).within_rating,
            tuple(timeline(spec, SCENARIO)),
            monte_carlo_timeout(spec, 0.05, 200, 7))


STOCK_OUTPUTS = _outputs(CircuitSpec())


def test_stock_roster_golden():
    text = STOCK_CIRCUIT.read_text(encoding="utf-8")
    keys = [line.partition("=")[0].strip() for line in text.splitlines() if not line.startswith("#")]
    assert tuple(keys) == tuple(FIELDS) == CircuitSpec._fields
    assert parse_circuit(text) == CircuitSpec()


@pytest.mark.parametrize("key", FIELDS)
def test_field_influence(key):
    raised = _outputs(CircuitSpec(**{key: FIELDS[key][1] * 1.05}))
    moved = [name for name, stock, out in zip(["kv report", "verify", "piv check", "timeline", "tolerance"],
                                              STOCK_OUTPUTS, raised) if out != stock]
    if key in INERT:
        assert moved == [], f"{key} is listed as driving no output, yet moves {moved}"
    else:
        assert moved, f"{key} drives no output"
