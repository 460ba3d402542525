#!/usr/bin/env python3
"""Build and run the end-to-end CDSS reconciliation benchmark.

Run from the repository root:

    python3 cdssbench/run.py --workload tiered_hotkeys --seed 1 --seconds 15 --trace 0

`--workload all` runs every workload in turn with the same seed and
seconds. The benchmark builds itself from source into
$CARGO_TARGET_DIR/cdssbench (default .bench_build/cdssbench), then runs
the cdss_bench driver, whose stdout ends with one JSON result line.
Exits non-zero, without a result, when the program sources are missing
or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_central", "paper_dht", "tiered_hotkeys", "netcentric_dht"]
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("cdssbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root; src/CMakeLists.txt not found")
    build_dir = os.path.join(build_root, "cdssbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "cdss_bench",
                  "--", "-j", "4"])
    for step in steps:
        # Build output goes to stderr: stdout must end with the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "cdss_bench")


def run_driver(binary, workload, args, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    # The program's own warnings go to a log file, not the timed path's
    # caller: a pipe nobody drains could stall a turn.
    log_path = os.path.join(out_dir, "driver-%s.log" % workload)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("driver timed out on " + workload)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("driver printed no result for %s (exit %d)"
             % (workload, proc.returncode))
    return lines[:-1], result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    out_dir = os.path.join(build_root, "cdssbench-out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        lines, result, code = run_driver(binary, args.workload, args, out_dir)
        print("\n".join(lines))
        print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        lines, result, code = run_driver(binary, workload, args, out_dir)
        print("\n".join(lines))
        print()
        worst = max(worst, code)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
