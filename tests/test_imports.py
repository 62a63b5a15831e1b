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
