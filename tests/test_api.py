"""The public API: every name the package exports resolves, lazily."""

import ast
from pathlib import Path

import pytest

import touchalarm
from touchalarm import design, export, simulator, units


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from touchalarm import *", namespace)
    for name in touchalarm.__all__:
        assert hasattr(touchalarm, name), name
        assert namespace[name] is getattr(touchalarm, name)


def test_all_is_the_lazy_table_plus_version():
    assert sorted(touchalarm.__all__) == sorted([*touchalarm._LAZY, "__version__"])
    assert len(set(touchalarm.__all__)) == len(touchalarm.__all__)


def test_dir_lists_every_exported_name():
    assert set(touchalarm.__all__) <= set(dir(touchalarm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(touchalarm, "no_such_name")
    assert not hasattr(touchalarm, "MAX_SAMPLES")  # a submodule name that is not exported


def test_moved_exceptions_are_one_class_each():
    assert touchalarm.SimulationError is simulator.SimulationError is units.SimulationError
    assert touchalarm.ScenarioError is simulator.ScenarioError is units.ScenarioError
    assert touchalarm.ExportError is export.ExportError is design.ExportError is units.ExportError
    assert touchalarm.DesignError is simulator.DesignError is design.DesignError is units.DesignError
    assert touchalarm.CircuitFileError is design.CircuitFileError is units.CircuitFileError
    assert touchalarm.write_report is export.write_report is design.write_report


def test_readme_streaming_import():
    namespace = {}
    exec("from touchalarm import export, timeline", namespace)
    assert namespace["export"] is export
    assert namespace["timeline"] is simulator.timeline


def test_no_module_imports_typing_pathlib_or_dataclasses():
    # Records are collections.namedtuple subclasses: a dataclass execs generated source at import, a
    # typing.NamedTuple turns each annotation into a ForwardRef, and pathlib would load only for names.
    for path in Path(touchalarm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not {"dataclasses", "typing", "pathlib"} & {m.split(".")[0] for m in modules}, path.name


def test_every_record_class_has_empty_slots():
    # A namedtuple subclass without ``__slots__ = ()`` gives each instance a dict (hundreds of TraceEvents a storm job).
    records = {cls.__name__: cls for module in (units, design, simulator, export) for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == module.__name__}
    assert set(records) >= {
        "Quantity", "ESeries", "CircuitSpec", "AstableTimes", "ModulationVoltages", "LedResistor",
        "FilterCapacitor", "PivCheck", "BaseResistor", "AmplifierPower", "DesignRecord", "DesignReport",
        "ErrataEntry", "ErrataReport", "ScenarioEvent", "Scenario", "SimConfig", "TraceEvent", "Trace",
        "Timeline", "ToleranceResult"}
    for name, cls in records.items():
        assert not hasattr(tuple.__new__(cls, [None] * len(getattr(cls, "_fields", ()))), "__dict__"), name
