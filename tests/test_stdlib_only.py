"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weyldeform"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        roots = set(imported_roots(ast.parse(path.read_text(), str(path))))
        foreign = {r for r in roots if r != "weyldeform" and r not in sys.stdlib_module_names}
        assert not foreign, (path.name, sorted(foreign))
