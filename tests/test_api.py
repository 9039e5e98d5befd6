"""The public API: every name the package exports resolves."""

import touchalarm


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from touchalarm import *", namespace)
    for name in touchalarm.__all__:
        assert hasattr(touchalarm, name), name
        assert namespace[name] is getattr(touchalarm, name)

