"""No module imports a name that it never reads, or another's private constant.

Every name that an import binds in src/subuniform, tests/ or scripts/
must be loaded somewhere in the same module, as a name or as the root
of an attribute chain.  Names in a module's __all__ count as read, as
__init__.py imports them to re-export them; `from __future__` imports
bind nothing to read.

A private ALL-CAPS constant (_SPAN_CELLS, ...) of a module in
src/subuniform is read by that module alone: no other module of the
package imports it or reads it as an attribute of an imported name.
Tests may still read and monkeypatch such constants.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "subuniform").glob("*.py"))
PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "subuniform", ROOT / "tests", ROOT / "scripts")
    for path in folder.glob("*.py")
)


def _unused_imports(path: Path) -> list[str]:
    """'path:line: name' for each name an import in the module binds and it never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                # `import a.b` binds a
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: item[1])
        if name not in read
    ]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"__init__.py", "pipeline.py", "conftest.py", "test_imports.py", "f3_scan.py"} <= names


def test_no_module_imports_a_name_it_never_reads():
    unused = [entry for path in MODULES for entry in _unused_imports(path)]
    assert not unused, f"imported names never read: {unused}"


def _foreign_constants(tree: ast.Module) -> list[str]:
    """'line: name' for each private constant the module takes from another.

    That is a `from .mod import _NAME` of the package (relative, or from
    subuniform), or `name._NAME` with name bound by an import.
    """
    imported: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {alias.asname or alias.name for alias in node.names}
            if node.level or (node.module or "").split(".")[0] == "subuniform":
                found += [
                    f"{node.lineno}: {alias.name}"
                    for alias in node.names
                    if PRIVATE_CONSTANT.fullmatch(alias.name)
                ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and PRIVATE_CONSTANT.fullmatch(node.attr)
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_check_sees_both_forms():
    source = "from . import gf_core\nfrom .gf_core import _SPAN_CELLS, _span_ranks\nx = gf_core._SPAN_CELLS\n"
    assert _foreign_constants(ast.parse(source)) == ["2: _SPAN_CELLS", "3: gf_core._SPAN_CELLS"]
    own = "_CAP = 4\nclass C:\n    _CAP = 5\nx = C._CAP + _CAP\n"
    assert _foreign_constants(ast.parse(own)) == []


def test_no_module_reads_another_modules_private_constant():
    found = [
        f"{path.relative_to(ROOT)}:{entry}"
        for path in PACKAGE
        for entry in _foreign_constants(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, f"private constants read outside their module: {found}"
