"""One repetition of a workload, in a fresh interpreter.

Run by ``run.py`` as ``python3 worker.py PLAN SPAWNED``, where PLAN is a JSON
file written by the parent and SPAWNED is the parent's ``time.monotonic()``
just before the spawn (the clock is shared by all processes of the machine).

Set-up runs from the spawn to the first engine call: imports, installing the
tracing wrappers for a traced repetition, generating or loading the inputs.
Each operation then calls ``enveloping.cli.main`` with its output captured.
Only the calls are timed; parsing the report, the identity gates and the
digests come after each call, outside the timed region.  The result is
written as JSON to the plan's ``out`` path.

Every time is reported twice: as measured, and rescaled to the reference
speed of the machine (see ``Speedometer``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction

import inputs
import tracing


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Seconds one ``reference_chunk`` takes, by the CPU-time clock of its
# thread, on the machine the benchmark was defined on (2-vCPU Xeon under KVM,
# Python 3.11.7) at its fastest.  Rescaled times read as seconds on that
# machine in that state.
REFERENCE_CHUNK_S = 0.0045
SAMPLE_INTERVAL_S = 0.1


def reference_chunk():
    """A fixed piece of pure-Python work in the engine's style: exact
    rational arithmetic accumulated in a dict keyed by tuples, an integer
    loop, and building short-lived tuples, dicts and strings.  The mix tracks
    the engine's own slow-downs better than any one of its parts."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(300):
        key = (i % 97, i % 13)
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if x.denominator > 10 ** 12:
            x = Fraction(x.numerator % 1000 + 1, 7)
        acc[key] = acc.get(key, 0) + x
    total = 0
    for i in range(12000):
        total += i * i % 7
    built = []
    for i in range(2500):
        word = (i, i + 1, (i, str(i)))
        built.append([word, {i: word}])
    return len(acc) + total + len(built)


def chunk_s():
    start = time.thread_time()
    reference_chunk()
    return time.thread_time() - start


class Speedometer:
    """Samples the speed the machine gives this process, during the calls.

    On a shared host the same work can take nearly twice as long for
    minutes at a time, with no steal time: the process keeps its core and
    runs slower.  A daemon thread times a reference chunk every
    ``SAMPLE_INTERVAL_S`` by its own CPU-time clock, so a sample measures the
    speed at that moment and not the wait for the interpreter lock.  A call's
    rescaled time is its wall time times the reference chunk time over the
    median chunk time sampled during the call.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            dt = chunk_s()
            self.samples.append((time.perf_counter(), dt))

    def stop(self):
        self._stop.set()
        self._thread.join()

    def rescale(self, elapsed, start, end):
        """``elapsed`` at the reference speed; a call too short to hold a
        sample takes the median over all samples."""
        window = [dt for t, dt in self.samples if start <= t <= end]
        window = window or [dt for _, dt in self.samples]
        return elapsed * REFERENCE_CHUNK_S / statistics.median(window)


def run_op(main, op):
    """Call the entry point once; returns the timed record of the call."""
    out, err = io.StringIO(), io.StringIO()
    status = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(op["argv"])
    except SystemExit as exc:  # argparse rejected the arguments
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raise fails this operation, not the repetition
        error = "%s: %s" % (type(exc).__name__, exc)
    end = time.perf_counter()
    return {"name": op["name"], "start": start, "end": end, "elapsed_s": end - start,
            "status": status, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def judge(record):
    """Problems with one operation's output, and the digest of its payload.

    The digest covers the product tables for ``products`` and the whole
    report otherwise, so it must not depend on the hash seed.
    """
    if record["error"] is not None:
        return ["raised " + record["error"]], sha256(record["error"])
    problems = []
    if record["status"] != 0:
        problems.append("exit status %r: %s" % (record["status"], record["stderr"][-300:]))
    try:
        report = json.loads(record["stdout"])
    except ValueError:
        return problems + ["report is not JSON"], sha256(record["stdout"])
    problems += ["check failed: " + c["name"]
                 for c in report.get("checks", ()) if c.get("status") != "pass"]
    if "products" in report:
        payload = json.dumps(report["products"], sort_keys=True, separators=(",", ":"))
    else:
        payload = record["stdout"]
    return problems, sha256(payload)


def gate(uea, structure):
    """Identity gates on the operation's own structure.

    They run in a forked child, so that the memory they use stays out of the
    peak RSS of this process, which is measured after every operation.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            problems = []
            if not uea.m1_matches_l1(structure):
                problems.append("gate failed: m1_matches_l1")
            if structure.algebra.is_dg_lie() and not uea.pbw_compare(structure):
                problems.append("gate failed: pbw_compare")
        except Exception as exc:
            problems = ["gate raised %s: %s" % (type(exc).__name__, exc)]
        with os.fdopen(write, "w") as fh:
            json.dump(problems, fh)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not text:
        return ["gate process ended with status %d" % status]
    return json.loads(text)


def main(argv):
    plan_path, spawned = argv[1], float(argv[2])
    with open(plan_path) as fh:
        plan = json.load(fh)
    from enveloping import cli, uea

    tracer = None
    if plan["role"] == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    generated = None
    if plan["generate"]:
        generated = inputs.materialize(plan["seed"], plan["input_dir"])
    for op in plan["ops"]:
        cli.load_input(op["input"])
    setup = time.monotonic() - spawned
    result = {"setup_s": setup,
              "setup_ref_s": setup * REFERENCE_CHUNK_S / statistics.median(
                  chunk_s() for _ in range(5))}
    if plan["role"] == "setup":
        if plan["validate"]:
            inputs.validate(generated)
        _write(plan["out"], result)
        return 0

    # remember the structures each operation builds, for the gates and traces
    created = []
    init = uea.AInftyStructure.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    uea.AInftyStructure.__init__ = recording_init
    entry = tracer.span("cli.main", cli.main) if tracer else cli.main
    ops, windows = [], []
    rss_kb = 0
    speed = Speedometer()
    for op in plan["ops"]:
        record = run_op(entry, op)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        windows.append((record["start"], record["end"]))
        problems, digest = judge(record)
        if plan["gates"] and not problems and created:
            problems += gate(uea, created[0])
        if tracer is not None:
            tracer.note_tables(created)
        created.clear()
        ops.append({"name": op["name"], "elapsed_s": record["elapsed_s"],
                    "problems": problems, "digest": digest})
    speed.stop()
    for op, (start, end) in zip(ops, windows):
        op["ref_s"] = speed.rescale(op["elapsed_s"], start, end)
    result.update(wall_s=sum(op["elapsed_s"] for op in ops),
                  wall_ref_s=sum(op["ref_s"] for op in ops),
                  speed_samples=len(speed.samples),
                  peak_rss_mb=rss_kb / 1024.0, ops=ops)
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        tracer.write_spans(plan["spans"])
    _write(plan["out"], result)
    return 0


def _write(path, result):
    with open(path + ".tmp", "w") as fh:
        json.dump(result, fh)
    os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
