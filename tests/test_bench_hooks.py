"""Every name that ``bench/run.py --trace 1`` wraps exists in the package.

The benchmark times each layer by replacing module attributes by name, so a
renamed or deleted function would leave its layer unmeasured, or fail only
when someone runs the benchmark.  ``bench/run.py`` is read with ``ast``, not
imported: ``install(tracer, pkg)`` unpacks ``pkg`` into the ``touchalarm``
modules of the same names and calls ``tracer.wrap(module, name, ...)``, with
``name`` a string or the variable of a loop over a module-level tuple.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _wrapped_names() -> list[tuple[str, str]]:
    """(module, attribute) for each ``tracer.wrap`` call in ``install``."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    assigned = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    install = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install")
    unpack = next(node for node in install.body if isinstance(node, ast.Assign) and ast.unparse(node.value) == "pkg")
    modules = {name.id for name in unpack.targets[0].elts}
    loops = {node.target.id: ast.literal_eval(assigned[node.iter.id])
             for node in ast.walk(install) if isinstance(node, ast.For)}
    wrapped = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap":
            owner, attr = node.args[:2]
            assert owner.id in modules, ast.unparse(node)
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            wrapped += [(owner.id, name) for name in names]
    return wrapped


def test_every_wrapped_name_exists():
    wrapped = _wrapped_names()
    assert ("cli", "snap_preferred") in wrapped and ("export", "write_report") in wrapped
    missing = [f"touchalarm.{module}.{name}" for module, name in wrapped
               if not hasattr(importlib.import_module(f"touchalarm.{module}"), name)]
    assert not missing, f"bench/run.py wraps names that do not exist: {missing}"
