"""Every name a homgrow module exports in __all__ must exist, every name the
package imports from a module must be in that module's __all__, and every
entry point the benchmark's tracer wraps must exist."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import homgrow

MODULES = ["homgrow"] + sorted(
    m.name for m in pkgutil.iter_modules(homgrow.__path__, "homgrow."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_module_exports():
    # a name deleted from a module fails the package import, but a name kept
    # while dropped from its module's __all__ would leave a stale export
    tree = ast.parse(Path(homgrow.__file__).read_text())
    stale = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"homgrow.{node.module}")
            stale += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in getattr(module, "__all__", ())]
    assert stale == []


def test_traced_entry_points_exist():
    # The tracer looks methods up in the class __dict__ and functions by
    # module attribute; a missing name breaks traced benchmark runs only.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, qualname in tracer.ENTRY_POINTS:
        owner = importlib.import_module(f"homgrow.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            found = attr in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, qualname, None))
        if not found:
            missing.append(f"{module}.{qualname}")
    assert missing == []
