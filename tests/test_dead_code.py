"""Every definition in the package is used by the package or the benchmark,
every import is used in its module, and no cache outlives the objects it
belongs to.

Collects the module-level functions and classes of ``src/enveloping`` and
the methods of those classes, and asserts that each name is referenced in
``src/`` or ``perfbench/``: a module-level name as a name, an import or an
attribute of a package module (``hpt.name``; ``x.name`` of any other ``x``
is no use of it, so an instance attribute of the same name keeps nothing
alive), a method only as an attribute (``x.name``; a local variable of the
same name is no use of it), and either, in ``perfbench/``, as a string (the
benchmark patches some attributes by name).
A reference from ``tests/`` does not count: what only the tests reach lives
in the tests.  Dunder methods are called by the language and are not
checked.  Every parameter of a function or method is read in its body
(a method's ``self`` or ``cls`` aside), and every parameter default is
overridden by some call in ``src/`` or ``perfbench/`` outside the function.

A process-global cache survives a test's monkeypatch of what it was built
from, so state computed from a contraction lives on the contraction; the
module-level caches, and the dict or set attributes of a class body that
a method fills, are held to a short allowlist.

No map closes a reference cycle through its owner or itself, so that a
run's state is freed by reference counting: no ``x.name = memo_op(x.name)``
(a memoized method is an ``exactlin.memo_method``), and no nested function
or lambda that calls itself by name.  A per-instance memo filled by hand,
``self.X[key] = ...`` outside ``__init__``, is held to an allowlist, and no
map of a built contraction is assigned after it is built.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "enveloping"
SEARCHED = ("src", "tests", "perfbench")
# where a reference makes a definition used, and whether a string counts
USERS = {"src": False, "perfbench": True}
# definitions kept although nothing in USERS references them: name -> reason
UNREFERENCED = {}


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


def _sources(tops=SEARCHED):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _references():
    """(names, attributes): what a module-level definition and what a method
    may be referenced by."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    names, attributes = set(), set()
    for top, strings in USERS.items():
        for _, tree in _sources((top,)):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in modules:
                        names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
                    attributes.add(node.value)
    return names, attributes


def test_every_definition_is_referenced():
    names, attributes = _references()
    dead = [
        "%s.%s" % (module, name)
        for module, name in _definitions()
        if name.split(".")[-1] not in (attributes if "." in name else names)
    ]
    assert sorted(dead) == sorted(UNREFERENCED)


# the conversions between a Fraction-dict vector and the exact pair, which
# went with the second vector type
RETIRED_CONVERSIONS = {"to_vector", "to_pair", "vector_view"}


def test_one_vector_type():
    # no conversion between two vector types is named in src/ or perfbench/,
    # as a name, an attribute, an import or a definition, and in the package
    # only exactlin imports fractions: a second vector type does not return
    named = []
    for path, tree in _sources(("src", "perfbench")):
        for node in ast.walk(tree):
            names = {getattr(node, attr, None) for attr in ("id", "attr", "name", "asname")}
            named += ["%s: %s" % (path.relative_to(ROOT), name)
                      for name in names & RETIRED_CONVERSIONS]
    assert named == []
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in modules:
                importers.append(path.name)
    assert importers == ["exactlin.py"]


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


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {item for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if fn in methods:
                params = params[1:]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += ["%s.%s(%s)" % (path.stem, fn.name, p) for p in params if p not in read]
    assert unread == []


# the process-global caches: one contraction per n, which the tests that
# inject a fault replace as a whole; and the word intern table, a weak table
# of immutable values, which cannot go stale and keeps no word alive
GLOBAL_CACHES = {"permutahedra.build_contraction", "exactlin.Word._table"}
CACHE_DECORATORS = {"cache", "lru_cache"}
MUTATORS = {"add", "update", "setdefault", "pop", "popitem", "clear", "discard", "remove"}


def _name_of(node):
    """The last name of ``f``, ``a.f``, ``f(...)`` or ``a.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


TABLE_TYPES = {"dict", "set", "defaultdict", "OrderedDict", "Counter",
               "WeakValueDictionary", "WeakKeyDictionary", "WeakSet"}


def _is_dict_or_set(node):
    """A display, a comprehension, or a call of a table type, by its bare
    name or as an attribute (``weakref.WeakSet()``)."""
    if isinstance(node, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _name_of(node.func) in TABLE_TYPES


def _mutated_names(function, owner=None):
    """The names that ``function`` fills by item assignment or a mutator
    call, and ``Cls.X`` for an attribute of a name; in a method of class
    ``owner``, the first parameter (``self`` or ``cls``) stands for it."""
    first = function.args.args[0].arg if owner and function.args.args else None
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            name = target.value.id
            names.add("%s.%s" % (owner if name == first else name, target.attr))
    return names


def _global_caches():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in tree.body:
            defs = [node] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [n for n in node.body if isinstance(n, ast.FunctionDef)]
            for fn in defs:
                if any(_name_of(d) in CACHE_DECORATORS for d in fn.decorator_list):
                    yield "%s.%s" % (path.stem, fn.name)
        mutated = set().union(*map(_mutated_names, functions))
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for cls in classes:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    mutated |= _mutated_names(fn, cls.name)
        # module-level tables, then class-level ones, plain (``_seen = {}``)
        # or annotated (``_seen: dict = {}``)
        for prefix, body in [("", tree.body)] + [(cls.name + ".", cls.body) for cls in classes]:
            for node in body:
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                else:
                    continue
                if _is_dict_or_set(node.value):
                    for target in targets:
                        if isinstance(target, ast.Name) and prefix + target.id in mutated:
                            yield "%s.%s%s" % (path.stem, prefix, target.id)


def test_no_process_global_cache_outside_the_allowlist():
    assert set(_global_caches()) == GLOBAL_CACHES


def _calls():
    """(called name, call, (path, line) of the enclosing module-level
    function or method) for every call in ``src/`` and ``perfbench/``."""
    for path, tree in _sources(tuple(USERS)):
        tops = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        tops += [item for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for item in cls.body if isinstance(item, ast.FunctionDef)]
        inside = {}
        for top in tops:
            for node in ast.walk(top):
                inside.setdefault(node, (path, top.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield _name_of(node.func), node, inside.get(node)


def _passes(call, shift, index, name):
    """Whether ``call`` passes the parameter ``name``, the ``index``-th
    positional one (None when keyword-only); a bound call's arguments start
    ``shift`` places later.  A splat passes whatever it may hold."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if index is None:
        return False
    for position, arg in enumerate(call.args, shift):
        if isinstance(arg, ast.Starred) or position == index:
            return True
    return False


def test_every_default_is_overridden():
    # a default that every call takes is a constant: the parameter goes.
    # ``__init__`` is called by its class name, and only a call outside the
    # function itself counts, so a default passed on only by recursion is
    # reported
    calls = {}
    for name, call, within in _calls():
        calls.setdefault(name, []).append((call, within))
    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [(None, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
        functions += [(cls, item) for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for item in cls.body if isinstance(item, ast.FunctionDef)]
        for cls, fn in functions:
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = [(p, i) for i, p in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            name = cls.name if cls is not None and fn.name == "__init__" else fn.name
            shift = 0 if cls is None else 1  # self or cls
            for p, index in defaulted:
                if not any(within != (path, fn.lineno) and _passes(call, shift, index, p)
                           for call, within in calls.get(name, ())):
                    never.append("%s.%s(%s)" % (path.stem, fn.name, p))
    assert never == []


def _self_calls(function):
    """The nested functions and named lambdas in ``function`` that call
    themselves by name, as (name, line)."""
    found = []
    for node in ast.walk(function):
        if node is not function and isinstance(node, ast.FunctionDef):
            name, body = node.name, node
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
              and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
            name, body = node.targets[0].id, node.value
        else:
            continue
        if any(isinstance(call, ast.Call) and _name_of(call.func) == name
               and isinstance(call.func, ast.Name) for call in ast.walk(body)):
            found.append((name, node.lineno))
    return found


def test_no_map_closes_a_cycle():
    # a map stored on its own owner, or a closure that calls itself, keeps
    # everything it reaches alive until the cyclic collector runs
    cycles = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                cycles.update("%s:%d nested %s calls itself" % (path.stem, line, name)
                              for name, line in _self_calls(node))
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and _name_of(node.value.func) == "memo_op" and node.value.args):
                continue
            arg = node.value.args[0]
            for target in node.targets:
                if (isinstance(target, ast.Attribute) and isinstance(arg, ast.Attribute)
                        and ast.dump(target.value) == ast.dump(arg.value)):
                    cycles.add("%s:%d %s memoized on its owner"
                               % (path.stem, node.lineno, ast.unparse(arg)))
    assert sorted(cycles) == []


CONTRACTION_MAPS = {"F", "G", "H", "d_big", "d_small"}


def test_no_map_of_a_built_contraction_is_replaced():
    # a contraction's maps are the ones it was built with: no ``x.y.G = ...``
    # patches one after the fact
    patched = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            patched += ["%s:%d %s" % (path.stem, node.lineno, ast.unparse(target))
                        for target in targets
                        if isinstance(target, ast.Attribute) and target.attr in CONTRACTION_MAPS
                        and isinstance(target.value, ast.Attribute)]
    assert patched == []


# the instance dicts that a method other than ``__init__`` fills, through
# ``self.X[key] = ...``, a mutator call or a local name bound to ``self.X``,
# with the reason each is not a ``memo_method``
HAND_FILLED = {
    "exactlin.Echelon.pivots": "the reduction's pivot rows, not a memo",
    "permutahedra.HomotopyColumns.columns": "the tracer reads the built columns by name",
    "permutahedra.PermutahedronContraction._letters":
        "keyed by a block of generators that cobar_homotopy derives from its word",
    "permutahedra.PermutahedronContraction._plans":
        "keyed by the shape that cobar_homotopy derives from its word",
    "permutahedra.PermutahedronContraction._pickers":
        "keyed by the block indices that _compile_plan derives from a face",
    "permutahedra.HomotopySolve.raw":
        "the raw columns by orbit, filled in __init__ and popped as each is averaged",
    "uea.AInftyStructure._tables": "the tracer reads the product tables by name",
}


def _instance_fills(method, owner):
    """The attributes ``owner.X`` of a method's first parameter that it
    fills by item assignment or a mutator call (``_mutated_names``),
    directly or through a local name bound to the attribute."""
    first = method.args.args[0].arg
    aliases = {target.id: "%s.%s" % (owner, node.value.attr)
               for node in ast.walk(method) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute)
               and isinstance(node.value.value, ast.Name) and node.value.value.id == first
               for target in node.targets if isinstance(target, ast.Name)}
    filled = {aliases.get(name, name) for name in _mutated_names(method, owner)}
    return {name for name in filled if name.startswith(owner + ".")}


def test_hand_filled_instance_dicts_are_the_allowlist():
    # a one-argument memo of a method is a ``memo_method``; a class-body
    # table (``Word._table``) is a process-global cache, held to its own list
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            class_names = {"%s.%s" % (cls.name, target.id) for node in cls.body
                           if isinstance(node, ast.Assign)
                           for target in node.targets if isinstance(target, ast.Name)}
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and fn.args.args
                        and fn.name != "__init__"):
                    found |= {"%s.%s" % (path.stem, name)
                              for name in _instance_fills(fn, cls.name) - class_names}
    assert found == set(HAND_FILLED)
