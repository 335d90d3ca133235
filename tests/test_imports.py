"""No module imports a name that it never reads.

Every name that an import binds in src/subuniform, tests/ or scripts/
must be loaded somewhere in the same module, as a name or as the root
of an attribute chain.  Names in a module's __all__ count as read, as
__init__.py imports them to re-export them; `from __future__` imports
bind nothing to read.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
