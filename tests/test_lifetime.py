"""A run's state dies with the run, by reference counting alone.

The transfer, its structures, contractions, series memos and product tables
are reachable only from their owners, so none of them waits for the cyclic
collector once ``cli.main`` returns.  With the collector paused, a
collection after the runs finds no object whose type or function comes from
the package.  Cycles made by the standard library (``argparse``, ``json``)
are not counted.
"""

import gc
from collections import Counter
from pathlib import Path

from enveloping.cli import main
from enveloping.permutahedra import PermutahedronContraction

PACKAGE = str(Path(__file__).resolve().parents[1] / "src" / "enveloping")

RUNS = [
    ["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "3", "check", "--suite", "all"],
    ["--input", "bundled:l3only", "--arity-cap", "3", "--weight-cap", "3",
     "check", "--suite", "all"],
    ["--input", "bundled:ci_cubic", "products"],
    ["--n-cap", "4", "permutahedron"],
]


def engine_name(obj):
    """The name of an object's type, or of its function or generator, when
    that comes from the package; otherwise None."""
    kind = type(obj)
    if kind.__module__.startswith("enveloping"):
        return kind.__qualname__
    code = getattr(obj, "__code__", None) or getattr(obj, "gi_code", None)
    if code is not None and code.co_filename.startswith(PACKAGE):
        return "%s %s" % (kind.__name__, obj.__qualname__)
    return None


def left_for_the_collector(work):
    """The package objects that a collection finds after ``work()`` runs
    with the collector paused, counted by ``engine_name``."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(filter(None, map(engine_name, gc.garbage)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def describe(leaked):
    return "left for the cyclic collector: %s" % (
        ", ".join("%d %s" % (n, name) for name, n in leaked.most_common()))


def test_a_run_leaves_nothing_for_the_cyclic_collector(capsys):
    def runs():
        for argv in RUNS:
            assert main(argv) == 0, argv
            assert capsys.readouterr().out

    leaked = left_for_the_collector(runs)
    assert not leaked, describe(leaked)


def test_a_contraction_outside_the_cache_is_freed_by_reference_counting():
    # its F, G and H close over its columns, not over the contraction
    def check():
        con = PermutahedronContraction(4)
        numbers = range(len(con.faces.faces))
        assert con.verify_on(numbers, [()])

    leaked = left_for_the_collector(check)
    assert not leaked, describe(leaked)
