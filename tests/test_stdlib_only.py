"""The package runtime imports only the standard library and itself, and
never the random module: every computation is deterministic."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extbound"


def _absolute_imports():
    """(location, top-level module name) for every absolute import."""
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
