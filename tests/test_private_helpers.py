"""No private helper in the package lives only for the tests.

Every module-level function, class and assigned name in src/subuniform
whose name starts with an underscore must be read, as a name or an
attribute, by package code outside its own definition.  Imports,
assignments, docstrings and comments do not count, so a helper or a
constant that only tests read fails here and should go.  The same holds
for each method of a module-level private class, other than dunders: it
must be read as an attribute somewhere in the package outside its own
body.

Every function cached with functools.lru_cache hands the same object
to every caller, so it must return an immutable value: its return
annotation is int or tuple[...].
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subuniform"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def, a class or assignments."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_private_helper_has_a_caller_in_the_package():
    helpers, kinds = set(), set()
    # (name read, the names defined by the module-level statement it is read in)
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owners = tuple(_defined(stmt))
            for name in filter(_private, owners):
                helpers.add((path.name, name))
                kinds.add(type(stmt).__name__)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, owners))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, owners))
    assert {"FunctionDef", "ClassDef", "Assign"} <= kinds
    unused = sorted(
        f"{module}: {name}"
        for module, name in helpers
        if not any(read == name and name not in owners for read, owners in reads)
    )
    assert not unused, f"private helpers with no caller in the package: {unused}"


def _attribute_reads(tree: ast.AST) -> Counter:
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_private_class_method_has_a_caller_in_the_package():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    reads = sum(map(_attribute_reads, trees), Counter())
    methods = [
        (cls.name, stmt)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _private(cls.name)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.endswith("__")
    ]
    assert methods
    unused = sorted(
        f"{cls}.{method.name}"
        for cls, method in methods
        if reads[method.name] == _attribute_reads(method)[method.name]
    )
    assert not unused, f"private-class methods with no caller in the package: {unused}"


def _cached(func: ast.FunctionDef) -> bool:
    """Whether a def carries lru_cache or cache, bare, called or as functools'."""
    for deco in func.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name in ("lru_cache", "cache"):
            return True
    return False


def _immutable(returns: ast.expr | None) -> bool:
    """Whether a return annotation reads int or tuple[...]."""
    if isinstance(returns, ast.Subscript):
        returns = returns.value
    return isinstance(returns, ast.Name) and returns.id in ("int", "tuple")


def test_every_cached_function_returns_an_immutable_value():
    # a cached list is shared by every caller: one caller's mutation
    # would corrupt every later call's result
    cached = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _cached(node)
    ]
    assert cached
    mutable = sorted(
        f"{module}: {node.name}" for module, node in cached if not _immutable(node.returns)
    )
    assert not mutable, f"cached functions without an int or tuple[...] return: {mutable}"
