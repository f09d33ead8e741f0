#!/usr/bin/env python3
"""Builds the SSB benchmark (ssb_bench) from source and runs it.

One workload, as the last line of standard output one JSON object with the
keys correct, attempted, failed and metrics (end-to-end metrics untraced,
per-layer metrics traced):

  python3 perfbench/run.py --workload ssb_spill --seed 3 --seconds 25 --trace 0

Every workload, untraced and then traced, with the per-layer metrics, the
span self times and the tracing overhead:

  python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a checkout. ssb_bench is built in .bench_build/ there
(CMake, Release); traced runs write their spans to .bench_build/traces/.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("ssb_resident", "ssb_spill", "ssb_thrash_gpu")
# A run must end within 180 s of its start, build excluded.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds ssb_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources not found at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ssb_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "ssb_bench")


def run_bench(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, standard output)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as timeout:
        # subprocess.run has killed and reaped ssb_bench.
        return 124, timeout.stdout or ""
    return done.returncode, done.stdout


def commented_value(output, name):
    """Value of a '# <name> <value> <unit>' line of ssb_bench's output."""
    for line in output.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "#" and fields[1] == name:
            return float(fields[2])
    return None


def report(binary, seed, seconds):
    """Every workload untraced then traced; prints the metrics and the
    tracing overhead. Returns the exit code."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (False, True):
            code, output = run_bench(binary, workload, seed, seconds, trace)
            sys.stdout.write(output)
            if code != 0:
                print("%s: ssb_bench exited with %d" % (workload, code))
                return code
            results[trace] = (json.loads(output.splitlines()[-1]), output)
        untraced, traced = results[False][0], results[True][0]
        if not (untraced["correct"] and traced["correct"]):
            status = 1
        base = untraced["metrics"]["throughput_qps"]["value"]
        with_spans = commented_value(results[True][1], "throughput_qps")
        print("== %s: correct=%s success_rate=%.4f" % (
            workload, untraced["correct"] and traced["correct"],
            untraced["metrics"]["success_rate"]["value"]))
        for result in (untraced, traced):
            for name, metric in result["metrics"].items():
                print("   %-34s %14.4f %s" %
                      (name, metric["value"], metric["unit"]))
        print("   tracing overhead: traced throughput_qps %.4f / untraced "
              "%.4f = %.4f" % (with_spans, base, with_spans / base))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args()
    if args.report == (args.workload is not None):
        parser.error("give exactly one of --workload and --report")

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        sys.stderr.write("perfbench: build failed: %s\n" % error)
        return 1
    if args.report:
        return report(binary, args.seed, args.seconds)
    started = time.monotonic()
    code, output = run_bench(binary, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    if code != 0:
        # No result line on failure: the output goes to standard error.
        sys.stderr.write(output)
        sys.stderr.write("perfbench: ssb_bench exited with %d after %.1f s\n" %
                         (code, time.monotonic() - started))
        return code
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
