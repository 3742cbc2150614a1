"""Checks on the package's own source, read as syntax trees."""

import ast
import pathlib

import grasp

SOURCES = sorted(pathlib.Path(grasp.__file__).parent.rglob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a library invariant must raise
    hits = [f"{path}:{node.lineno}" for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert hits == []


def test_no_unused_imports():
    # a module-level import its module never reads is a leftover; names in
    # __all__ are read
    hits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        hits.append(f"{path}:{node.lineno}: {name} is imported and never read")
    assert hits == []
