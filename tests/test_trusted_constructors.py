"""Representation._trusted and ModuleMap._trusted skip the checks that make a
module or a module map valid, so the package calls them only from the
functions listed here, each of which states in its docstring or comments
why its result is valid.  A new unchecked construction fails this test
until its argument is written down and the function is listed."""

import ast
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extbound"

TRUSTED_CLASSES = {"Representation", "ModuleMap"}

ALLOWED = {
    ("algebra.py", "direct_sum"),
    ("algebra.py", "dual_module"),
    ("modules.py", "hom_basis"),
    ("modules.py", "projective_cover"),
    ("modules.py", "_subrepresentation"),
    ("modules.py", "cokernel"),
    ("modules.py", "identity"),
    ("modules.py", "zero"),
    ("modules.py", "__matmul__"),
    ("modules.py", "__add__"),
    ("modules.py", "scale"),
}


def _trusted_callers():
    """{(file, function): function node} for every function in the package
    that calls _trusted on Representation or ModuleMap, directly or through
    cls inside one of those classes."""
    found = {}

    def visit(node, path, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "_trusted" and isinstance(node.func.value, ast.Name):
            receiver = node.func.value.id
            if receiver == "cls":
                receiver = cls
            if receiver in TRUSTED_CLASSES:
                found[(path.name, fn.name if fn else "<module>")] = fn
        for child in ast.iter_child_nodes(node):
            visit(child, path, cls, fn)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None, None)
    return found


def _comments(path: Path, first: int, last: int) -> str:
    """The comment text on source lines first..last of path."""
    with path.open() as fh:
        return " ".join(tok.string for tok in tokenize.generate_tokens(fh.readline)
                        if tok.type == tokenize.COMMENT and first <= tok.start[0] <= last)


def test_trusted_constructors_are_called_only_from_the_allowlist():
    callers = _trusted_callers()
    assert set(callers) - ALLOWED == set(), "unlisted trusted constructions"
    # a stale entry would let a new function of the same name in without review
    assert ALLOWED - set(callers) == set(), "allowlisted functions no longer construct"


def test_every_trusted_construction_states_why_it_is_valid():
    for (name, _), fn in _trusted_callers().items():
        text = (ast.get_docstring(fn) or "") + " " + \
            _comments(SRC / name, fn.lineno, fn.end_lineno)
        assert re.search(r"\bvalid\b", text), f"{name}:{fn.name} states no argument"

