"""The package depends on the Python standard library alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "equiconf"


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    outside = {(path.name, name) for path in files for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside


def test_size_bounds_live_in_charclasses():
    # one module decides how big a basis may grow before it is built
    bounds, checks = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
            bounds |= {(path.name, t.id) for t in targets
                       if isinstance(t, ast.Name) and t.id.endswith("_BOUND")}
        checks |= {path.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name == "check_basis_size"}
    assert {name for name, _ in bounds} == {"charclasses.py"}
    assert ("charclasses.py", "MODEL_BOUND") in bounds
    assert checks == {"charclasses.py"}


def referenced_names(path):
    """Every name that one source file loads, bare or as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_exactalg_transposes():
    # `Matrix` stores sparse columns and `exactalg` alone turns them into
    # rows: no other module imports or references `_transpose`, so the
    # storage orientation stays one module's decision
    users = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        if "_transpose" in imported | set(referenced_names(path)):
            users.add(path.stem)
    assert users == {"exactalg"}


def test_no_api_is_used_only_by_tests():
    # every module-level function and class of the package but the test
    # oracles, and every public method of those classes, is referenced by
    # the package, the benchmark or the demos, not by tests alone; a name
    # matches any load of it, so this catches a definition whose name no
    # such file mentions
    root = SRC.parent.parent
    users = [path for path in (*SRC.glob("*.py"), *root.glob("bench/*.py"),
                               *root.glob("demos/*.py"))
             if path.stem != "oracles" and not path.stem.startswith("test_")]
    used = {name for path in users for name in referenced_names(path)}
    assert len(users) > 10
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined, methods = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "oracles":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, defs):
                defined.add((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                methods |= {(path.stem, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, defs) and not item.name.startswith("_")}
    assert len(defined) > 100 and len(methods) > 50
    assert sorted(item for item in defined | methods
                  if item[1].rpartition(".")[2] not in used) == []
