"""Every import in the library is used: a stdlib-ast scan of src/symvert."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symvert"


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


def test_no_unused_imports_in_src():
    files = sorted(SRC.glob("*.py"))
    assert files
    unused = [u for f in files for u in _unused_imports(f)]
    assert unused == []
