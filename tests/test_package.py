"""The package exports nothing that only the tests would call."""

import ast
import functools
import types
from pathlib import Path

import framelocal

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(framelocal.__file__).resolve().parent


def exported_names() -> set:
    """Names that framelocal/__init__.py re-exports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def exported_members() -> set:
    """(class, member) for the public methods, classmethods and properties
    that the exported classes define themselves."""
    kinds = (types.FunctionType, classmethod, staticmethod, property, functools.cached_property)
    return {
        (name, member)
        for name in exported_names()
        if isinstance(cls := getattr(framelocal, name), type)
        for member, value in vars(cls).items()
        if not member.startswith("_") and isinstance(value, kinds)
    }


def loaded_names(tree: ast.AST) -> set:
    """Names read as a variable or an attribute anywhere in tree.

    A read inside a def or class does not count for the name that def or
    class defines, so recursion is not a caller.
    """
    found = set()

    def visit(node, inside: frozenset):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr not in inside:
                found.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_outside_the_tests():
    # a caller is the package itself, the acceptance suite or the benchmark;
    # code only the unit tests reach belongs in the tests as an oracle
    sources = [*PACKAGE.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    callers = set()
    for path in sources:
        callers |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = sorted(exported_names() - callers)
    unused += sorted(f"{cls}.{m}" for cls, m in exported_members() if m not in callers)
    assert unused == []
