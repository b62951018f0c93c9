"""Invariants checked on the source.

Exactness: no float decides a verdict. Every float(...) call,
math.log/sqrt/exp use and float literal in src/fibnest must lie inside
bounds.star_discrepancy, whose logarithmic cap is the one documented
exception (a rational snapshot of cap * ln(count + 1), recorded in the
notes).

Trust: a certified bound takes a nest.Verified, and only nest.verify makes
one, after verify_certificate passes.

Callers: every top-level name in src/fibnest is used by src/fibnest, so
what only the tests use lives in tests/oracles.py.
"""

import ast
from pathlib import Path

import fibnest

SRC = Path(fibnest.__file__).resolve().parent
ALLOWED = {("bounds.py", "star_discrepancy")}
FLOAT_MATH = {"log", "sqrt", "exp"}


def _float_uses(tree: ast.AST):
    """Yield (line, enclosing top-level function or None, what) for every
    float-producing construct in a module."""

    def visit(node: ast.AST, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, owner, "float()"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            yield node.lineno, owner, f"math.{node.attr}"
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH or alias.name == "*":
                    yield node.lineno, owner, f"from math import {alias.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, owner, f"literal {node.value!r}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_floats_only_in_star_discrepancy():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    stray = []
    allowed_hits = 0
    for path in sources:
        for line, owner, what in _float_uses(ast.parse(path.read_text(), str(path))):
            if (path.name, owner) in ALLOWED:
                allowed_hits += 1
            else:
                stray.append(f"{path.name}:{line} {what} in {owner or 'module scope'}")
    assert stray == []
    assert allowed_hits > 0  # the exception is still where this test says it is


def _constructions(tree: ast.AST, name: str):
    """Yield the enclosing top-level function (or None) of every call to
    `name` or `<anything>.name` in a module."""

    def visit(node: ast.AST, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_only_verify_makes_verified():
    makers = [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner in _constructions(ast.parse(path.read_text(), str(path)), "Verified")
    ]
    assert makers == [("nest.py", "verify")]


def test_all_exports_resolve():
    assert len(set(fibnest.__all__)) == len(fibnest.__all__)
    missing = [name for name in fibnest.__all__ if not hasattr(fibnest, name)]
    assert missing == []


# names no src module loads, each with its reason
UNLOADED = {
    # held by perfbench/spans.py, which looks them up until ROADMAP item 5
    ("search.py", "RangeTooLarge"),
    ("bounds.py", "star_discrepancy_of_points"),
}


def _top_level_names(tree: ast.Module):
    """The functions, classes and constants a module defines at top level,
    dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not (name.startswith("__") and name.endswith("__")))


def test_every_src_name_has_a_src_caller():
    # a name that only the tests use belongs in tests/oracles.py; a Load is
    # a use of the name, or of module.name, outside __init__.py's re-exports
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    module_names = {name.removesuffix(".py") for name in modules}
    loaded = set()
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in module_names
            ):
                loaded.add(node.attr)
    unloaded = {
        (name, defined)
        for name, tree in modules.items()
        for defined in _top_level_names(tree)
        if defined not in loaded
    }
    assert unloaded == UNLOADED
