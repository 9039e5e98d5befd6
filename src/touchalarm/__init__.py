"""Design toolkit and behavioral simulator for a 555-timer touch alarm.

Package attributes resolve lazily (PEP 562): ``touchalarm.run`` imports
``simulator`` on first use, so the design calculator never loads numpy.
"""

from importlib import import_module

# exported name -> submodule that defines it
_LAZY = {
    name: module
    for module, names in {
        "design": """CircuitSpec DesignReport ErrataReport amplifier_power astable_times
            astable_times_cv base_resistor compute_report filter_capacitor led_resistor
            modulation_voltages monostable_period parse_circuit peak_inverse_voltage
            trigger_threshold verify_reference_values write_report""",
        "export": "write_csv write_wav",
        "simulator": """Scenario ScenarioEvent SimConfig Timeline Trace monte_carlo_timeout
            parse_scenario run timeline timeout_samples""",
        "units": """CircuitFileError DesignError E6 E12 E24 E96 ESeries ExportError Quantity
            QuantityError ScenarioError SimulationError format_quantity parse_quantity
            snap_preferred""",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = [*_LAZY, "__version__"]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
