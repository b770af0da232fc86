"""Every import is used: a stdlib-ast scan of src/symvert and tests/."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "symvert"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for a in node.names:
                imported[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def _unused_in(folder: Path) -> list[str]:
    files = sorted(folder.glob("*.py"))
    assert files
    return [u for f in files for u in _unused_imports(f)]


def test_no_unused_imports_in_src():
    assert _unused_in(SRC) == []


def test_no_unused_imports_in_tests():
    assert _unused_in(TESTS) == []
