"""The package runs on the standard library alone, and its modules
import no name they do not use."""

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


def unused_imports(tree):
    """Names an import binds that the module never reads; __future__
    imports bind nothing the module reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_modules_use_every_name_they_import():
    paths = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert paths
    for path in paths:
        unused = unused_imports(ast.parse(path.read_text(), str(path)))
        assert not unused, (path.name, unused)


def private_definitions(tree):
    """Functions, methods and classes whose names start with a single
    underscore."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, defs)
            and node.name.startswith("_") and not node.name.startswith("__")}


def read_names(tree):
    """Names the module reads, as a name, an attribute or an imported
    name; a mention in a docstring is no read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert trees
    read = {name for tree in trees.values() for name in read_names(tree)}
    for name, tree in trees.items():
        unread = sorted(private_definitions(tree) - read)
        assert not unread, (name, unread)


def test_every_conftest_definition_is_read():
    # each function, class, fixture and constant conftest defines is read
    # by a test module, or by another of conftest's definitions; a fixture
    # is read through the argument names of the functions that take it
    tests = Path(__file__).resolve().parent
    nodes = ast.parse((tests / "conftest.py").read_text()).body
    reads = [set(read_names(node)) | {a.arg for a in ast.walk(node) if isinstance(a, ast.arg)}
             for node in nodes]
    for path in sorted(tests.glob("test_*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reads.append({*read_names(tree), *(a.arg for a in ast.walk(tree) if isinstance(a, ast.arg))})
    unread = []
    for k, node in enumerate(nodes):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        elsewhere = set().union(*(r for j, r in enumerate(reads) if j != k))
        unread += [name for name in names if name not in elsewhere]
    assert not unread, unread


def test_every_export_resolves():
    import weyldeform
    from weyldeform import weyl

    for module in (weyldeform, weyl):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_exports_exactly_what_it_imports():
    import weyldeform

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(weyldeform.__all__) == sorted(imported | {"__version__"})


def top_level_definitions(tree):
    """Names a module's own top-level statements define: functions,
    classes and assigned names, not the names it imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_names_come_from_the_module_that_defines_them():
    # a name taken through a module that only imports it hides where it
    # lives, and keeps working there after it moves
    defined = {path.stem: top_level_definitions(ast.parse(path.read_text(), str(path)))
               for path in PACKAGE.glob("*.py")}
    relayed = []
    for path in sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                relayed += [(path.name, node.module, alias.name) for alias in node.names
                            if alias.name not in defined[node.module]]
    assert not relayed, relayed
