"""The package runtime imports only the standard library and itself, never
the random module (every computation is deterministic), and imports at
module top except where the package imports an upper layer on first use.
No import statement sits inside a function: the package has no import
cycle to break."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extbound"

# (file, function) pairs that import by call: the package's __getattr__
# imports an upper layer on first use of one of its names
DEFERRED_IMPORTS = {("__init__.py", "__getattr__")}
IMPORT_CALLS = {"__import__", "import_module"}


def _trees():
    """(path, parsed module) for every source file of the package."""
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        yield path, ast.parse(path.read_text(), filename=str(path))


def _absolute_imports():
    """(location, top-level module name) for every absolute import."""
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno} {name}", name.split(".")[0]


def test_runtime_imports_are_stdlib_or_relative():
    outside = [where for where, top in _absolute_imports()
               if top not in sys.stdlib_module_names]
    assert not outside, f"non-stdlib imports: {outside}"


def test_runtime_never_imports_random():
    found = [where for where, top in _absolute_imports() if top == "random"]
    assert not found, f"random imported: {found}"


def _is_import_call(node) -> bool:
    """importlib.import_module(...), import_module(...) or __import__(...)"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in IMPORT_CALLS


def test_imports_are_at_module_top():
    local = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = (path.name, fn.name)
            for node in ast.walk(fn):
                statement = isinstance(node, (ast.Import, ast.ImportFrom))
                call = _is_import_call(node) and where not in DEFERRED_IMPORTS
                if statement or call:
                    local.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert not local, f"function-local imports: {local}"
