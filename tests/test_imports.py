"""Every import is used, every function is called, and src/symvert imports
inside functions only where it must: stdlib-ast scans of src/symvert,
tests/ and perfbench/."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced_functions() -> list[str]:
    """Functions and methods defined in src/symvert that nothing in src/,
    tests/ or perfbench/ refers to.  A module-level function f of module
    mod counts as referenced only through mod: as the attribute mod.f
    (under any alias of mod), imported by `from ...mod import f`, as a bare
    name inside mod itself, or by a string naming it ("f" or a dotted path
    ending in ".f": the benchmark's tracer names its targets so).  A method
    or nested function counts as referenced when its name appears anywhere
    as a name, an attribute or a dotted string.  Dunder methods are called
    by Python itself."""
    modules = {f.stem for f in SRC.glob("*.py")}
    top, inner = {}, {}
    for f in sorted(SRC.glob("*.py")):
        tree = ast.parse(f.read_text())
        top_nodes = [n for n in tree.body if isinstance(n, FUNCTIONS)]
        for node in top_nodes:
            top[(f.stem, node.name)] = f"{f.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS) and node not in top_nodes:
                if not re.fullmatch(r"__\w+__", node.name):
                    inner.setdefault(node.name, f"{f.name}:{node.lineno}")
    through_module, strings, anywhere = set(), set(), set()
    for folder in ("src", "tests", "perfbench"):
        for f in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(f.read_text())
            alias = {}  # local name -> symvert module it stands for
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    mod = (node.module or "").split(".")[-1]
                    for a in node.names:
                        if mod in modules:
                            through_module.add((mod, a.name))
                        elif a.name in modules:
                            alias[a.asname or a.name] = a.name
                elif isinstance(node, ast.Import):
                    for a in node.names:
                        if a.asname and a.name.split(".")[-1] in modules:
                            alias[a.asname] = a.name.split(".")[-1]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    anywhere.add(node.id)
                    if f.parent == SRC:
                        through_module.add((f.stem, node.id))
                elif isinstance(node, ast.Attribute):
                    anywhere.add(node.attr)
                    owner = node.value
                    if isinstance(owner, ast.Name) and owner.id in alias:
                        through_module.add((alias[owner.id], node.attr))
                    elif isinstance(owner, ast.Attribute) and owner.attr in modules:
                        through_module.add((owner.attr, node.attr))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                        anywhere.update(node.value.split("."))
                        strings.add(node.value.split(".")[-1])
    return [
        f"{where} {mod}.{name}" for (mod, name), where in top.items()
        if (mod, name) not in through_module and name not in strings
    ] + [f"{where} {name}" for name, where in inner.items() if name not in anywhere]


def test_no_unreferenced_functions_in_src():
    assert _unreferenced_functions() == []


# The only imports src/symvert makes inside a function, by (module, innermost
# function): every other import sits at the top of its module.
FUNCTION_IMPORTS = {
    # the BLAS thread variables must be set before numpy loads
    ("__main__", "main"): ["cli"],
}


def _function_imports() -> dict:
    found = {}

    def visit(node, mod, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                visit(child, mod, child.name)
                continue
            if fn and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.setdefault((mod, fn), []).extend(a.name for a in child.names)
            visit(child, mod, fn)

    for f in sorted(SRC.glob("*.py")):
        visit(ast.parse(f.read_text()), f.stem, None)
    return found


def test_imports_inside_functions_are_the_known_ones():
    assert _function_imports() == FUNCTION_IMPORTS
