"""The benchmark's workloads: the fixed work of one repetition, and why.

Every workload runs its operations in one fresh Python process per
repetition, with the engine on one thread, in a closed loop: one client, and
each operation starts when the previous one ends.  An operation is one call of the
command-line entry point ``enveloping.cli.main``; the program only ever
receives bundled inputs or the generated JSON files.

rank5
    ``products --format json`` on ``bundled:sl2`` at arity cap 3 and weight
    cap 5, in a cold process.  It is the only finishable user command that
    needs the rank-5 permutahedron contraction, and that build is most of
    its time, so it is where work on the equivariant homotopy solve shows.
    Its product tables are fixed, so their digest is also checked against a
    stored reference.

sweep
    ``products`` at arity cap 4 and weight cap 4 on thirteen seeded
    complete intersections (see ``inputs.py``).  The n <= 4 contraction is
    built once and is a small share, so the time goes to the perturbation
    series, the product tables, words and exact vectors.  It is the control
    for ``rank5``: a change to the contraction should not move it.

verify
    ``check --suite all`` at arity cap 4 and weight cap 4 on each of the ten
    bundled inputs, in a seed-shuffled order.  The checkers mostly read
    memoized product tables, which ``sweep`` writes, and they exercise exact
    row reduction and homology, the BGG and tableaux code and the n <= 4
    permutahedron checks.  A gain in one use of the tables or of the linear
    algebra that costs the other shows here.  Two operations failed with a
    known defect when the benchmark was defined (listed in
    ``KNOWN_FAILURES``); they stay in and are counted.
"""

from __future__ import annotations

import os
import random

import inputs

# pinned here rather than read from the engine, so that a new bundled input
# does not silently change the workload
BUNDLED = (
    "abelian1",
    "abelian2",
    "abelian3",
    "sl2",
    "sl2_adjoint",
    "heisenberg",
    "odd1",
    "odd2",
    "l3only",
    "ci_cubic",
)

# Failures present when the benchmark was defined.  They count as failed
# operations, but the run stays correct as long as no other operation fails.
KNOWN_FAILURES = {
    ("verify", "l3only"): "ValueError: differential does not square to zero",
    ("verify", "ci_cubic"): "ValueError: differential does not square to zero",
}


def _op(name, source, arity_cap, weight_cap, *command):
    argv = ["--input", source, "--arity-cap", str(arity_cap),
            "--weight-cap", str(weight_cap), "--format", "json", *command]
    return {"name": name, "input": source, "argv": argv}


def operations(workload, seed, input_dir):
    """The operations of one repetition of ``workload`` for ``seed``."""
    if workload == "rank5":
        return [_op("sl2", "bundled:sl2", 3, 5, "products")]
    if workload == "sweep":
        return [_op(name[: -len(".json")], os.path.join(input_dir, name), 4,
                    inputs.WEIGHT_CAP, "products")
                for name in inputs.names()]
    if workload == "verify":
        order = list(BUNDLED)
        random.Random(seed).shuffle(order)
        return [_op(name, "bundled:" + name, 4, 4, "check", "--suite", "all")
                for name in order]
    raise KeyError(workload)


NAMES = ("sweep", "verify", "rank5")

# Workloads whose inputs are generated from the seed by the set-up phase.
GENERATED = {"sweep"}
