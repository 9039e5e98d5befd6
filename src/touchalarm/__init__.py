"""Design toolkit and behavioral simulator for a 555-timer touch alarm."""

from .design import (
    CircuitFileError,
    CircuitSpec,
    DesignError,
    DesignReport,
    ErrataReport,
    amplifier_power,
    astable_times,
    astable_times_cv,
    base_resistor,
    compute_report,
    filter_capacitor,
    led_resistor,
    modulation_voltages,
    monostable_period,
    parse_circuit,
    peak_inverse_voltage,
    trigger_threshold,
    verify_reference_values,
)
from .export import write_csv, write_report, write_wav
from .simulator import (
    Scenario,
    ScenarioError,
    ScenarioEvent,
    SimConfig,
    SimulationError,
    Timeline,
    Trace,
    monte_carlo_timeout,
    parse_scenario,
    run,
    timeline,
)
from .units import (
    E6,
    E12,
    E24,
    E96,
    ESeries,
    Quantity,
    QuantityError,
    format_quantity,
    parse_quantity,
    snap_preferred,
)

__version__ = "0.1.0"

__all__ = [
    "CircuitFileError", "CircuitSpec", "DesignError", "DesignReport", "ErrataReport",
    "amplifier_power", "astable_times", "astable_times_cv", "base_resistor",
    "compute_report", "filter_capacitor", "led_resistor", "modulation_voltages",
    "monostable_period", "parse_circuit", "peak_inverse_voltage",
    "trigger_threshold", "verify_reference_values",
    "write_csv", "write_report", "write_wav",
    "Scenario", "ScenarioError", "ScenarioEvent", "SimConfig", "SimulationError",
    "Timeline", "Trace", "monte_carlo_timeout", "parse_scenario", "run", "timeline",
    "E6", "E12", "E24", "E96", "ESeries", "Quantity", "QuantityError",
    "format_quantity", "parse_quantity", "snap_preferred",
    "__version__",
]
