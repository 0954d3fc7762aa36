"""The per-algebra memos have one writer.  algebra._memoized reads and stores
every memo that a decorated function fills, algebra._canonical_module keeps
the module table, and Algebra.__init__ and Algebra.clear_caches create and
empty the memos.  A memo read or written anywhere else fails this test, so a
change of the memo policy (its key, its equality, its race rule) is made in
one function."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extbound"

ALLOWED = {
    ("algebra.py", "_memoized"),
    ("algebra.py", "_canonical_module"),
    ("algebra.py", "Algebra.__init__"),
    ("algebra.py", "Algebra.clear_caches"),
}


def _memo_name(node) -> str | None:
    """The memo a node names: an attribute x.<name>_memo, or the constant
    name argument of getattr, setattr or delattr."""
    if isinstance(node, ast.Attribute) and node.attr.endswith("_memo"):
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in {"getattr", "setattr", "delattr"} and len(node.args) >= 2:
        arg = node.args[1]
        if isinstance(arg, ast.Constant) and str(arg.value).endswith("_memo"):
            return arg.value
    return None


def _memo_accesses():
    """{(file, scope): memo names} for every memo named in the package, the
    scope being the dotted classes and functions around it."""
    found: dict = {}

    def visit(node, path, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        name = _memo_name(node)
        if name is not None:
            found.setdefault((path.name, ".".join(scope) or "<module>"), set()).add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    return found


def _within(site, allowed) -> bool:
    (file, scope), (allowed_file, allowed_scope) = site, allowed
    return file == allowed_file and (scope == allowed_scope
                                     or scope.startswith(allowed_scope + "."))


def _memoized_names():
    """The memo names passed to @_memoized(...), in source order."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if isinstance(deco, ast.Call) and isinstance(deco.func, ast.Name) \
                            and deco.func.id == "_memoized":
                        names.append(deco.args[0].value)
    return names


def test_memos_are_read_and_written_only_by_the_memo_functions():
    outside = {site: names for site, names in _memo_accesses().items()
               if not any(_within(site, allowed) for allowed in ALLOWED)}
    assert outside == {}, "memo access outside _memoized and the algebra's own methods"


def test_every_memo_has_one_decorated_writer_and_is_cleared():
    accesses = _memo_accesses()
    created = accesses[("algebra.py", "Algebra.__init__")]
    decorated = _memoized_names()
    assert len(decorated) == len(set(decorated)), "two functions share a memo"
    assert created == set(decorated) | {"_module_memo"}
    assert accesses[("algebra.py", "Algebra.clear_caches")] == created
