"""Benchmark of the enveloping engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``, nothing is installed.  The workloads are defined and explained in
``workloads.py``.

A run spawns fresh worker processes (``worker.py``), in which the engine runs
on one thread, each under its own ``PYTHONHASHSEED`` derived from the seed:

* nine set-up probes, which import the engine and generate or load the
  inputs and stop there; ``setup_s`` is the median over them and over the
  set-up of every measured repetition;
* timed repetitions of the workload's fixed work, repeated while the next
  batch fits in ``--seconds``: at least two, side by side on two cores, so
  that every run compares the digest of every operation across hash seeds,
  or at least one for a workload with a stored reference digest, which is
  compared instead;
* with ``--trace 1``, one untraced and one traced repetition side by side in
  place of the above.

``wall_s`` and ``setup_s`` are rescaled to a reference speed of the machine,
sampled while the work runs (``worker.Speedometer``); the raw times are
printed too.

Every operation must exit 0 with every check of its report passing, pass the
identity gates, and give the same digest under every hash seed (and the
stored reference digest where ``reference.json`` has one).  Failures listed
in ``workloads.KNOWN_FAILURES`` are counted but leave the run correct.

The last line of standard output is the result: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics.  Everything else a run produces (inputs, plans, worker results,
spans, ``result.json``) goes to ``.bench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0  # a run must end within 180 s


class Runner:
    """Spawns worker processes for one run and collects their results."""

    def __init__(self, workload, seed, run_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.input_dir = run_dir / "inputs"
        self.procs = []

    def start(self, role, ops, index):
        """Start one worker; returns a handle for ``collect``."""
        tag = "%s%d" % (role, index)
        out = self.run_dir / (tag + ".json")
        plan = {
            "role": role,
            "seed": self.seed,
            "ops": ops,
            "generate": self.workload in workloads.GENERATED,
            # the inputs are byte-identical in every probe; check them once
            "validate": role == "setup" and index == 0 and self.workload in workloads.GENERATED,
            "input_dir": str(self.input_dir),
            "gates": role != "traced",
            "out": str(out),
            "spans": str(self.run_dir / (tag + ".spans.json")),
        }
        plan_path = self.run_dir / (tag + ".plan.json")
        plan_path.write_text(json.dumps(plan, indent=1))
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONHASHSEED=str(hash_seed(self.seed, tag)))
        log_path = self.run_dir / (tag + ".log")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(plan_path), repr(spawned)],
                cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        self.procs.append(proc)
        return tag, proc, out, log_path

    def collect(self, handle):
        """Wait for a worker; returns its result, or {"error": ...}."""
        tag, proc, out, log_path = handle
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"error": "%s: killed at the run's deadline" % tag}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.exists():
            tail = log_path.read_text()[-600:]
            return {"error": "%s: exit %s: %s" % (tag, proc.returncode, tail)}
        return json.loads(out.read_text())

    def run(self, role, ops, index):
        return self.collect(self.start(role, ops, index))

    def close(self):
        """Stop every worker still running, and wait for it."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def hash_seed(seed, tag):
    digest = hashlib.sha256(("%s:%s" % (seed, tag)).encode()).hexdigest()
    return int(digest[:8], 16) % 4294967295 + 1


def environment(args):
    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_path = git / ref[5:]
            head = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            head = ref
    sources = hashlib.sha256()
    for path in sorted((SRC / "enveloping").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            sources.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": head,
        "sources_sha256": sources.hexdigest(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def describe(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = "median %.4f" % statistics.median(xs)
    if n > 10:
        text += ", p%d %.4f" % (100 * (n - 10) // n, xs[n - 11])
    else:
        text += ", no percentile with 10 samples beyond it"
    return text + " (n=%d)" % n


def judge_ops(timed, others, reference):
    """Per-operation verdicts over the timed repetitions.

    Returns (attempted, failures), where failures maps "rep/op" to its
    problems; an operation whose digest differs between any two processes,
    or from the reference, fails in every timed repetition.
    """
    digests = {}
    for result in timed + others:
        for op in result["ops"]:
            digests.setdefault(op["name"], set()).add(op["digest"])
    attempted = 0
    failures = {}
    for k, result in enumerate(timed):
        for op in result["ops"]:
            attempted += 1
            problems = list(op["problems"])
            if len(digests[op["name"]]) > 1:
                problems.append("digest differs between hash seeds")
            expected = reference.get(op["name"])
            if expected is not None and op["digest"] != expected:
                problems.append("digest differs from the stored reference")
            if problems:
                failures["%d/%s" % (k, op["name"])] = problems
    return attempted, failures


def is_known(workload, key, problems):
    """True for a failure listed in ``workloads.KNOWN_FAILURES``, alone."""
    known = workloads.KNOWN_FAILURES.get((workload, key.split("/", 1)[1]))
    return known is not None and len(problems) == 1 and (
        problems[0].startswith("raised " + known))


def measure(args, runner, ops, reference):
    """Spawn the run's workers; returns their results by role."""
    probes = [runner.run("setup", ops, k) for k in range(SETUP_PROBES)]
    if args.trace:
        # the untraced and the traced repetition share one time window, each
        # on its own core, so the overhead is measured on one machine state
        handles = [runner.start("timed", ops, 0), runner.start("traced", ops, 0)]
        timed, traced = (runner.collect(h) for h in handles)
        return probes, [timed], [traced]
    # Without a stored reference digest, two repetitions under different hash
    # seeds compare every operation's digest.  They run side by side, one per
    # core: on the machine the benchmark was defined on, a repetition takes
    # the same time beside another as alone.
    least = 1 if reference else 2
    width = min(least, len(os.sched_getaffinity(0)))
    timed = []
    measuring = time.monotonic()
    while True:
        batch = [runner.start("timed", ops, len(timed) + k) for k in range(width)]
        timed += [runner.collect(handle) for handle in batch]
        spent = time.monotonic() - measuring
        if len(timed) >= least and spent * (len(timed) + width) / len(timed) > args.seconds:
            break
    return probes, timed, []


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "enveloping" / "cli.py").is_file():
        print("error: no engine sources at %s" % (SRC / "enveloping"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    env = environment(args)
    run_dir = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, started + DEADLINE_S)
    ops = workloads.operations(args.workload, args.seed, str(runner.input_dir))
    signal.signal(signal.SIGTERM, _stop)
    try:
        probes, timed, others = measure(args, runner, ops, reference)
    finally:
        runner.close()

    crashed = [r["error"] for r in probes + timed + others if "error" in r]
    probes, timed, others = ([r for r in rs if "error" not in r]
                             for rs in (probes, timed, others))
    if not timed or (args.trace and not others):
        print("error: no repetition completed:\n" + "\n".join(crashed), file=sys.stderr)
        return 1
    attempted, failures = judge_ops(timed, others, reference)
    correct = not crashed and all(
        is_known(args.workload, key, problems) for key, problems in failures.items())

    walls = [r["wall_ref_s"] for r in timed]
    setups = [r["setup_ref_s"] for r in probes + timed + others]
    op_times = [op["ref_s"] for r in timed for op in r["ops"]]
    fail_ratio = len(failures) / attempted
    if args.trace:
        traced = others[0]
        values = {name: value for name, (value, _) in traced["metrics"].items()}
        values["trace.wall_s"] = traced["wall_ref_s"]
        values["trace.overhead_s"] = traced["wall_ref_s"] - walls[0]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "pass_ratio": 1.0 - fail_ratio,
        }
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("environment: " + json.dumps(env, sort_keys=True))
    print("wall_s: %s s" % describe(walls))
    print("setup_s: %s s" % describe(setups))
    print("op_s: %s s" % describe(op_times))
    print("as measured, before rescaling to the reference speed:")
    print("  wall_s: %s s" % describe(r["wall_s"] for r in timed))
    print("  setup_s: %s s" % describe(r["setup_s"] for r in probes + timed + others))
    print("  op_s: %s s" % describe(op["elapsed_s"] for r in timed for op in r["ops"]))
    print("fail_ratio: %.4f (%d failed / %d attempted)" % (fail_ratio, len(failures), attempted))
    for key, problems in sorted(failures.items()):
        known = " (known)" if is_known(args.workload, key, problems) else ""
        print("failed %s: %s%s" % (key, "; ".join(problems)[:300], known))
    for text in crashed:
        print("crashed: " + text[:300])
    for name, m in metrics.items():
        print("%s = %r %s" % (name, m["value"], m["unit"]))
    summary = {"correct": correct, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(dict(
        summary, environment=env, fail_ratio=fail_ratio, failures=failures,
        crashed=crashed, wall_samples=walls, setup_samples=setups,
        raw_wall_samples=[r["wall_s"] for r in timed],
        raw_setup_samples=[r["setup_s"] for r in probes + timed + others],
        op_samples=[[op["name"], op["elapsed_s"], op["ref_s"]]
                    for r in timed for op in r["ops"]],
        elapsed_s=time.monotonic() - started), indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
