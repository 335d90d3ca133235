"""No public name in the package lives only for the tests.

Every name in subuniform.__all__ must be read, as a name or an
attribute, by package code outside its own definition and outside
__init__.py, or by a script in scripts/.  Imports, docstrings and
comments do not count.  The names below have no such reader yet; the
test also fails when one of them gains a reader or leaves __all__, so
the list can only shrink.

The same holds for the methods and properties of the public classes in
src/: each must be read as an attribute, matched by name, in src/ or
scripts/ outside its own body, or stand on TEST_ONLY_METHODS, which can
only shrink in the same way.

The fields of the public classes, the annotated names in a class body,
are held to it as well: each must be read as an attribute, matched by
name, in src/ or scripts/, or stand on the shrink-only TEST_ONLY_FIELDS.

A public module-level function, class or constant in src/ that stays
out of __all__ is held to the same rule: it must be read in src/ or
scripts/ outside its own definition, or stand on the shrink-only
UNLISTED_TEST_ONLY.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import subuniform

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subuniform"

# name -> why it is still public with no reader in src/ or scripts/
TEST_ONLY = {
    "coset_reps": "bench/tracing.py LAYERS hooks it; goes with ROADMAP item 1",
    "enumerate_subspaces": "bench/tracing.py LAYERS hooks it; goes with ROADMAP item 1",
}

# Class.method -> why it is still there with no reader in src/ or scripts/
TEST_ONLY_METHODS: dict[str, str] = {}

# Class.field -> why it is still there with no reader in src/ or scripts/
TEST_ONLY_FIELDS = {
    "PipelineAttempt.colouring": "tests/test_pipeline.py::test_pipeline_reports_are_internally_consistent reads it",
    "PipelineReport.params": "tests/test_pipeline.py::test_pipeline_reports_are_internally_consistent reads it",
}

# module-level name outside __all__ -> why it is still there with no reader
UNLISTED_TEST_ONLY = {
    "packed_max_coef_sq": "bench/tracing.py LAYERS hooks it; goes with ROADMAP item 1",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def, a class or assignments."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _reads() -> set[tuple[str, tuple[str, ...]]]:
    """(name read, the names the module-level statement it is read in defines)."""
    reads = set()
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in files + sorted((ROOT / "scripts").glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = tuple(_defined(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, owner))
    return reads


def test_every_public_name_has_a_reader_outside_the_tests():
    reads = _reads()
    read = {name for name in subuniform.__all__ if any(r == name and name not in o for r, o in reads)}
    unread = sorted(set(subuniform.__all__) - read)
    assert unread == sorted(TEST_ONLY), (
        f"public names with no reader in src/ or scripts/: {unread}; "
        f"allowed: {sorted(TEST_ONLY)}"
    )


def test_every_public_name_outside_all_has_a_reader_outside_the_tests():
    reads = _reads()
    names = {
        name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(), str(path)).body
        for name in _defined(stmt)
        if not name.startswith("_") and name not in subuniform.__all__
    }
    assert names
    unread = sorted(
        name for name in names if not any(r == name and name not in o for r, o in reads)
    )
    assert unread == sorted(UNLISTED_TEST_ONLY), (
        f"module-level names outside __all__ with no reader in src/ or scripts/: "
        f"{unread}; allowed: {sorted(UNLISTED_TEST_ONLY)}"
    )


def _attribute_reads(tree: ast.AST) -> Counter:
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_method_has_a_reader_outside_the_tests():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    scripts = [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "scripts").glob("*.py"))]
    reads = sum(map(_attribute_reads, trees + scripts), Counter())
    methods = [
        (cls.name, stmt)
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.endswith("__")
    ]
    assert methods
    unread = sorted(
        f"{cls}.{method.name}"
        for cls, method in methods
        if reads[method.name] == _attribute_reads(method)[method.name]
    )
    assert unread == sorted(TEST_ONLY_METHODS), (
        f"public methods with no reader in src/ or scripts/: {unread}; "
        f"allowed: {sorted(TEST_ONLY_METHODS)}"
    )


def test_every_public_field_has_a_reader_outside_the_tests():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    scripts = [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "scripts").glob("*.py"))]
    reads = sum(map(_attribute_reads, trees + scripts), Counter())
    fields = [
        f"{cls.name}.{stmt.target.id}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert fields
    unread = sorted(field for field in fields if not reads[field.split(".")[1]])
    assert unread == sorted(TEST_ONLY_FIELDS), (
        f"public fields with no reader in src/ or scripts/: {unread}; "
        f"allowed: {sorted(TEST_ONLY_FIELDS)}"
    )
