#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload info|jobs|sessions --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (release) into $CARGO_TARGET_DIR, default .bench_build
at the checkout root, runs the binary from the checkout root on one CPU,
relays its output, and checks that the last line names exactly the
metrics of BENCHMARK.json with their units. Exits non-zero if the build,
the run or that check fails.

The run is pinned to the highest-numbered CPU this process may use: with
the caller's and the server's threads on different CPUs of a small VM,
every request and reply is a cross-CPU wake-up, and throughput swung by
a third between identical runs; on one CPU the closed loop repeats."""

import json
import os
import subprocess
import sys

import benchlib

RUN_TIMEOUT_S = 170


def main(argv):
    os.chdir(benchlib.ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return 1
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    problems = benchlib.check_result(result, benchlib.load_spec(), trace)
    if problems:
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
