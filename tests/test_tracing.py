"""The benchmark's traced run still fits the engine.

``perfbench/tracing.py`` wraps engine names (``build_contraction``,
``cobar_h``, ``theta``, ``perturbation_series``, ``bpl``, the checkers, ...)
by attribute.  A rename in the engine breaks the traced benchmark run; this
test runs the tracer against the engine in a subprocess, because ``install``
patches the modules for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from enveloping import cli, uea

tracer = tracing.Tracer()
tracing.install(tracer)
main = tracer.span("cli.main", cli.main)
code = main(["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "3",
             "check", "--suite", "all"])
structure = uea.AInftyStructure(cli.load_input("bundled:sl2")[0], 2, 2)
structure.export_tables()
tracer.note_tables([structure])
metrics = {name: value for name, (value, unit) in tracer.metrics().items()}
print(json.dumps({"exit": code, "metrics": metrics}))
"""


def test_traced_run_covers_every_layer_metric():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    metrics = result["metrics"]
    # every declared per-layer metric but the two timed around the whole run
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} - {"trace.wall_s", "trace.overhead_s"} == set(
        metrics)
    # each wrapper was reached through the name it patches
    for name in ("permutahedra.faces.n4", "permutahedra.h_columns_stored.n4",
                 "permutahedra.h_columns_read.n4", "permutahedra.cobar_h.calls",
                 "permutahedra.theta.calls", "permutahedra.cobar_gf.calls",
                 "hpt.X.calls", "hpt.lifted_h.calls", "hpt.d_small.calls",
                 "hpt.t.calls", "uea.bar_words", "uea.products_nonzero",
                 "uea.product.calls", "exactlin.echelon.calls",
                 "exactlin.coeff_max_bits", "trace.spans"):
        assert metrics[name] > 0, name
    for name in ("permutahedra.homology_s", "exactlin.homology_s", "linfty.check_s",
                 "words.enumerate_s", "uea.stasheff_s", "uea.pbw_s", "uea.alt_s",
                 "uea.involution_s", "uea.coproduct_s", "uea.truncation_s",
                 "uea.morphism_s", "bgg.cochain_s", "bgg.acyclicity_s",
                 "bgg.roundtrip_s", "tableaux.profile_s"):
        assert metrics[name] > 0, name
