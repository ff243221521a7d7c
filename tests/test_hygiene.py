"""Source hygiene: no module of the package or of the tests imports a name
it never uses. An AST scan stands in for a linter."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/ellfrob/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """Names bound by import statements that the module never reads; a
    name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        (1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
