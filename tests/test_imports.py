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
