#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (a
path inside the repository; default .bench_build) under wallbench/, the
workload's scratch files to run-<workload>-<pid>/ beside it (removed at the
end), and a traced run's spans to traces/<workload>-seed<n>.json. The last
line of standard output is the benchmark's JSON result; build output goes
to standard error. Exits nonzero, printing no result, when the build or
the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, stderr=sys.stderr)
    if configure.returncode != 0:
        return False
    made = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wallbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "wallbench")
    if not build(build_dir):
        print("wallbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "wallbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(out_root, "run-%s-%d" % (args.workload,
                                                          os.getpid()))]
    if args.trace:
        traces = os.path.join(out_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
