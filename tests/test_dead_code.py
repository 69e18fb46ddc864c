"""Every definition in the package is used somewhere.

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


def _references():
    names = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
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
