"""Every definition in the package is used somewhere, and every import is
used in its module.

Collects the module-level functions and classes of ``src/enveloping`` and
the methods of those classes, and asserts that each name is referenced in
``src/``, ``tests/`` or ``perfbench/``: as a name, an attribute, an import or
a string (the benchmark patches some attributes by name).  Dunder methods
are called by the language and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "enveloping"
SEARCHED = ("src", "tests", "perfbench")


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path.stem, "%s.%s" % (node.name, item.name)


def _sources():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _references():
    names = set()
    for _, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_definition_is_referenced():
    used = _references()
    dead = [
        "%s.%s" % (module, name)
        for module, name in _definitions()
        if name.split(".")[-1] not in used
    ]
    assert dead == []


def test_every_import_is_used():
    # an imported name counts as used if it is read as a name anywhere in its
    # module; ``from __future__`` is exempt
    unused = []
    for path, tree in _sources():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s: %s" % (path.relative_to(ROOT), name))
    assert unused == []
