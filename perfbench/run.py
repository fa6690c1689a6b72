#!/usr/bin/env python3
"""Repository benchmark entry point (BENCHMARK.json's command).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--seed2 M]

Run from the repository root. Configures and builds the perfbench program
(this directory's CMakeLists.txt, against ../src) in .bench_build/, then runs
one workload in its own process and forwards its output: a provenance line,
a metric table, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.

--seed2 M runs the workload a second time on the inputs of seed M, so a
claim made on one seed can be re-checked on another; the last line then
reports seed N's metrics, and correct/attempted/failed cover both runs.

Exits non-zero when the build fails, the library sources are missing, or an
output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
WORKLOADS = ["route-4096", "apsp-512", "ccqd-4c", "ccqd-1c"]
# A workload run exits well within this; the build is not counted.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found in %s/src; run from a full checkout"
             % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def run_once(args, seed):
    # Relative: the ccqd socket path must fit sockaddr_un (108 bytes)
    # however deep the checkout is.
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.relpath(BUILD, ROOT)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD, "spans-%s.jsonl" % args.workload)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes that finish in seconds")
    parser.add_argument("--seed2", type=int,
                        help="also run and check the inputs of this seed")
    args = parser.parse_args()
    if args.seed < 0 or (args.seed2 is not None and args.seed2 < 0):
        fail("seeds must be non-negative")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    seeds = [args.seed] + ([args.seed2] if args.seed2 is not None else [])
    results = []
    status = 0
    for seed in reversed(seeds):  # the primary seed's output comes last
        code, lines, result = run_once(args, seed)
        if result is None:
            print("\n".join(lines))
            fail("workload %s (seed %d) exited %d without a result"
                 % (args.workload, seed, code))
        status = status or code
        results.append(result)
        print("\n".join(lines[:-1]))
    final = results[-1]
    final["correct"] = all(r["correct"] for r in results)
    final["attempted"] = sum(r["attempted"] for r in results)
    final["failed"] = sum(r["failed"] for r in results)
    if len(results) > 1:
        print(json.dumps({"seed2": seeds[1], "result": results[0]}))
    print(json.dumps(final))
    sys.exit(status if status else (0 if final["correct"] else 1))


if __name__ == "__main__":
    main()
