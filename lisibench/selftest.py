#!/usr/bin/env python3
"""Self-test of the LISI benchmark: exact counts repeat for a seed.

    python3 lisibench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs every workload (or those named) twice with the same seed in traced
mode and fails unless both runs are correct and every exact count —
iterations and V-cycles, float64 value bytes, halo bytes, halo-plan and
value-update deltas, slu factorization counts, tuner probes and cache
hits — reads the same.  The counts are taken over the first samples of a
run (harness.hpp kCountSamples), so they do not depend on host speed.
Also fails if the tuner probed inside a timed region.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = [
    "pksp.iterations", "aztec.iterations", "hymg.cycles",
    "prec.bytes_high", "sparse.halo_bytes", "sparse.halo_plan_builds",
    "sparse.value_updates", "slu.symbolic_factorizations",
    "slu.numeric_refactorizations", "tune.probe_measurements",
    "tune.cache_hits",
]


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = args.workloads or [w["name"] for w in json.load(f)["workloads"]]

    failures = []
    for workload in names:
        first = run(workload, args.seed, args.seconds)
        second = run(workload, args.seed, args.seconds)
        if first is None or second is None:
            failures.append(f"{workload}: a run failed")
            continue
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:14s} {name:30s} {a!r:>16} {b!r:>16} {status}")
            if a != b:
                failures.append(f"{workload}: {name} {a!r} != {b!r}")
        if first["metrics"]["tune.probe_measurements"]["value"] != 0:
            failures.append(f"{workload}: tuner probed in the timed region")
    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
