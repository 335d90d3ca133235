"""No public name in the package lives only for the tests.

Every name in subuniform.__all__ must be read, as a name or an
attribute, by package code outside its own definition and outside
__init__.py, or by a script in scripts/.  Imports, docstrings and
comments do not count.  The names below have no such reader yet; the
test also fails when one of them gains a reader or leaves __all__, so
the list can only shrink.
"""

from __future__ import annotations

import ast
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
