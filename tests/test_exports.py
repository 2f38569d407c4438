"""Every name a homgrow module exports in __all__ must exist, every name the
package imports from a module must be in that module's __all__, every
entry point the benchmark's tracer wraps must exist, and no module imports
a test-only dependency or imports numpy at import time."""

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


SOURCES = sorted(Path(homgrow.__file__).parent.rglob("*.py"))
TEST_ONLY = {"sympy", "hypothesis", "pytest"}


def _imports(tree):
    """(top-level package, inside a function) of each absolute import."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((a.name.split(".")[0], in_function)
                             for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module.split(".")[0], in_function))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_test_only_or_eager_numpy_imports(path):
    # sympy, hypothesis and pytest are test dependencies only; numpy is
    # imported where a float routine needs it, so `import homgrow` stays
    # cheap
    found = _imports(ast.parse(path.read_text()))
    assert [m for m, _ in found if m in TEST_ONLY] == []
    assert [m for m, in_function in found
            if m == "numpy" and not in_function] == []


def _unread_imports(tree):
    """Names bound by module-level imports that the module never reads and
    does not list in its __all__."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read | exported]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_every_import_is_read_or_exported(path):
    # a deletion that leaves its imports behind fails here; the package
    # imports are its public names, held to the module exports above
    assert _unread_imports(ast.parse(path.read_text())) == []


def test_unread_import_detected():
    tree = ast.parse("import os\nfrom math import pi, tau as t\n"
                     "__all__ = ['pi']\nprint(os.sep)\n")
    assert _unread_imports(tree) == ["t"]
