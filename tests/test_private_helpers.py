"""No private helper in the package lives only for the tests.

Every module-level function in src/subuniform whose name starts with an
underscore must be read, as a name or an attribute, by package code
outside its own definition.  Imports, docstrings and comments do not
count, so a helper that only tests call fails here and should go.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "subuniform"


def test_every_private_helper_has_a_caller_in_the_package():
    helpers = set()
    # (name read, the module-level function it is read in, or None)
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.endswith("__"):
                    helpers.add((path.name, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    reads.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.attr, owner))
    assert helpers
    unused = sorted(
        f"{module}: {name}"
        for module, name in helpers
        if not any(read == name and owner != name for read, owner in reads)
    )
    assert not unused, f"private helpers with no caller in the package: {unused}"
