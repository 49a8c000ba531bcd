#!/usr/bin/env python3
"""Build the LISI benchmark from source and run one workload.

    python3 lisibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds lisibench/ (and the library under src/) with CMake in Release into
$CARGO_TARGET_DIR/lisibench (default .bench_build/lisibench), runs the
lisibench binary, and prints as the last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  A per-layer metric of a layer the workload
does not call (the service queue on paper_large, say) reads 0.  The traced
run also writes a Chrome trace to <build>/traces/.  Exits non-zero, without
a result line, if the build or the run fails; with a result line if a
correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lisibench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def select(raw, spec, traced):
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not traced:
                fail(f"run did not measure end-to-end metric {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or got["value"] is None:
            fail(f"metric {m['name']} read {got}, expected unit {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "lisibench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "lisibench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"run exited with {proc.returncode} and no result")
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": select(raw, spec, args.trace == 1),
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
