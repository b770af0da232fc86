"""Every import is used and every function is called: stdlib-ast scans of
src/symvert, tests/ and perfbench/."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "symvert"


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


def _unreferenced_functions() -> list[str]:
    """Functions and methods defined in src/symvert whose name appears
    nowhere in src/, tests/ or perfbench/ as a name, an attribute or a
    dotted string (the benchmark's tracer names its targets in strings).
    Dunder methods are called by Python itself."""
    defined = {}
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not re.fullmatch(r"__\w+__", node.name):
                    defined.setdefault(node.name, f"{f.name}:{node.lineno}")
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for f in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(f.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                        used.update(node.value.split("."))
    return [f"{where} {name}" for name, where in defined.items() if name not in used]


def test_no_unreferenced_functions_in_src():
    assert _unreferenced_functions() == []
