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
    # independent routes of the acceptance oracles; bench/tracing.py
    # also hooks coset_reps and enumerate_subspaces
    "check_union_structure": "ROADMAP item 4",
    "coset_reps": "ROADMAP item 4",
    "enumerate_subspaces": "ROADMAP item 4",
    "partition_energy": "ROADMAP item 4",
    "quotient_index": "ROADMAP item 4",
}

# Class.method -> why it is still there with no reader in src/ or scripts/
TEST_ONLY_METHODS = {
    "AlmostColouring.colour_of": "ROADMAP item 4",
    "AlmostColouring.coloured_fraction": "ROADMAP item 4",
    "Coset.points": "ROADMAP item 4",
    "Eisenstein.conj": "ROADMAP item 4",
    "PointSet.complement": "ROADMAP item 4",
    "PointSet.from_vectors": "ROADMAP item 4",
    "PointSet.members": "ROADMAP item 4",
    "Spectrum.complex_value_at": "ROADMAP item 4",
    "Spectrum.magnitude_sq": "ROADMAP item 4",
    "Spectrum.signed_value_at": "ROADMAP item 4",
    "Subspace.contains_subspace": "ROADMAP item 4",
    "Subspace.points": "ROADMAP item 4",
}


def _reads() -> set[tuple[str, str]]:
    """(name read, the module-level def or class it is read in, or "")."""
    reads = set()
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in files + sorted((ROOT / "scripts").glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = ""
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, owner))
    return reads


def test_every_public_name_has_a_reader_outside_the_tests():
    reads = _reads()
    read = {name for name in subuniform.__all__ if any(r == name and o != name for r, o in reads)}
    unread = sorted(set(subuniform.__all__) - read)
    assert unread == sorted(TEST_ONLY), (
        f"public names with no reader in src/ or scripts/: {unread}; "
        f"allowed: {sorted(TEST_ONLY)}"
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
