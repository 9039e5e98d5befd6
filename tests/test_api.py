"""The public API: every name the package exports resolves, lazily."""

import pytest

import touchalarm
from touchalarm import design, export, simulator


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
    assert touchalarm.SimulationError is simulator.SimulationError is design.SimulationError
    assert touchalarm.ScenarioError is simulator.ScenarioError is design.ScenarioError
    assert touchalarm.ExportError is export.ExportError is design.ExportError
    assert touchalarm.write_report is export.write_report is design.write_report


def test_readme_streaming_import():
    namespace = {}
    exec("from touchalarm import export, timeline", namespace)
    assert namespace["export"] is export
    assert namespace["timeline"] is simulator.timeline
