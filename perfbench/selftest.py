"""Self-test of the traced run: every deterministic count repeats exactly.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload (all by default) it runs two traced repetitions side by
side, under different hash seeds, and compares every per-layer metric that is
not a time: face counts, homotopy entries, columns read, bar words, nonzero
products, call counts, ratios of counts and ``exactlin.coeff_max_bits``.
Exits 0 when every one of them repeats exactly, 1 otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import run
import workloads


def compare(name, seed):
    """Number of deterministic metrics that differ between two traced runs."""
    run_dir = run.OUT / ("selftest-%s-seed%d" % (name, seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = run.Runner(name, seed, run_dir, time.monotonic() + 600)
    ops = workloads.operations(name, seed, str(runner.input_dir))
    try:
        runner.run("setup", ops, 0)  # writes the generated inputs once
        handles = [runner.start("traced", ops, k) for k in (0, 1)]
        results = [runner.collect(h) for h in handles]
    finally:
        runner.close()
    errors = [r["error"] for r in results if "error" in r]
    if errors:
        print("%s: traced run failed: %s" % (name, errors[0][:300]))
        return 1
    first, second = (r["metrics"] for r in results)
    compared = differ = 0
    for metric, (value, unit) in sorted(first.items()):
        if unit == "s":
            continue
        compared += 1
        if second[metric][0] != value:
            differ += 1
            print("%s: %s differs: %r != %r" % (name, metric, value, second[metric][0]))
    print("%s: %d deterministic metrics compared, %d differ" % (name, compared, differ))
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    differ = sum(compare(name, args.seed) for name in args.workload or workloads.NAMES)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
