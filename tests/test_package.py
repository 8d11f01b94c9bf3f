"""The package exports and defines nothing that only the tests would call."""

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


def defined_names() -> set:
    """(qualified name, name) of every module-level function of the package
    and every method, classmethod or property its classes define, dunders aside."""
    found = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, defs):
                found.add((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                found |= {
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, defs) and not item.name.startswith("__")
                }
    return found


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
    # and no function or method the package defines waits for a caller
    unused += sorted(where for where, name in defined_names() if name not in callers)
    assert unused == []


def private_reads(tree: ast.AST) -> set:
    """Single-underscore attributes read in tree (obj._name), dunders aside."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
    }


def own_names(tree: ast.AST) -> set:
    """Names tree defines: its functions and classes at any depth, and the
    variables and attributes it assigns."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            found.add(node.attr)
    return found


def test_no_module_reads_another_modules_private_attributes():
    # a module's private state is read where it is defined; another module
    # asks through a public name, so the owner can change its storage alone
    foreign = sorted(
        f"{path.stem}: .{attr}"
        for path in PACKAGE.glob("*.py")
        for tree in [ast.parse(path.read_text(encoding="utf-8"))]
        for attr in private_reads(tree) - own_names(tree)
    )
    assert foreign == []


# the private names one module still imports from another, as importer <- owner.name
PRIVATE_IMPORTS = {
    "cli <- simulation._PoseStack",
    "cli <- simulation._TwistStack",
    "simulation <- se3._freeze",
}


def test_no_module_imports_another_modules_private_names():
    # `from .x import _name` reaches into x as obj._name does, but is not an
    # attribute read; past the few listed, a module asks through a public name
    imported = sorted(
        f"{path.stem} <- {(node.module or '').removeprefix('framelocal.')}.{alias.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("framelocal"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert [name for name in imported if name not in PRIVATE_IMPORTS] == []


def test_no_module_builds_an_object_past_its_checks():
    # object.__new__ makes an instance without running __init__, and so
    # without a validated class's __post_init__ checks
    bypass = sorted(
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    )
    assert bypass == []


# what the package may raise: a refused value (ValueError and the package's
# subclasses of it) and Topology's refusal to be changed
RAISABLE = {"ValueError", "ConfigurationError", "DegenerateInputError", "AttributeError"}


def raised_name(node: ast.Raise) -> str | None:
    """The class a raise statement names, as in `raise Name(...)` or `raise Name`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_every_failure_takes_one_path():
    # every raise is a refused value, so each failure ends in one error line,
    # never in an internal-error traceback; nor does an assert stand in for one
    strays = sorted(
        f"{path.stem}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and raised_name(node) not in RAISABLE)
    )
    assert strays == []
