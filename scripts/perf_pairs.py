#!/usr/bin/env python3
"""Runs alternating parent/change pairs of one perfbench workload.

  python3 scripts/perf_pairs.py --parent DIR --change DIR --workload W \\
      [--pairs 10] [--seconds 25] [--seed N] [--out FILE]

DIR is the root of a checkout; each side runs its own perfbench/run.py, so
each builds its own .bench_build/. Pair i uses seed N + i on both sides, and
the side that runs first alternates from pair to pair. Every run is appended
to a JSON-lines file (--out). At the end, for each end-to-end metric that
BENCHMARK.json declares (read from the change's checkout), it prints both
medians, the parent's quartiles, how many pairs the change won, and whether
the change's median is within the metric's bound of the parent's median.
Then, from each run's per-template latency table (ssb_bench's
'# Qx.y n p50_ms p90_ms max_ms' lines, kept in the JSON-lines record), it
prints each template's median p50, parent -> change. Exits 1 if a run fails
or returns a wrong result, or a median is out of bound.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys


def load_runner(side, root):
    """The checkout's perfbench/run.py as a module (for its build())."""
    path = os.path.join(root, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("run_" + side, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def latency_table(output):
    """ssb_bench's per-template table: {template: {n, p50_ms, p90_ms,
    max_ms}} from the '# Qx.y n p50_ms p90_ms max_ms' lines under its
    '# query n p50_ms p90_ms max_ms' header."""
    table = {}
    rows = None
    for line in output.splitlines():
        fields = line.split()
        if fields == ["#", "query", "n", "p50_ms", "p90_ms", "max_ms"]:
            rows = table
            continue
        if rows is None:
            continue
        if len(fields) != 6 or fields[0] != "#":
            break
        try:
            rows[fields[1]] = {"n": int(fields[2]),
                               "p50_ms": float(fields[3]),
                               "p90_ms": float(fields[4]),
                               "max_ms": float(fields[5])}
        except ValueError:
            break
    return table


def run_once(root, workload, seed, seconds):
    """One untraced run in `root`; returns run.py's JSON result and the
    run's per-template latency table, or (None, {})."""
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=root)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write("perf_pairs: %s exited with %d\n" %
                         (" ".join(command), done.returncode))
        return None, {}
    return json.loads(lines[-1]), latency_table(done.stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=1000,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", default="perf_pairs.jsonl",
                        help="JSON-lines file every run is appended to")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    for side, root in sides.items():
        sys.stderr.write("perf_pairs: building %s (%s)\n" % (side, root))
        load_runner(side, root).build()

    # values[side][metric][pair]; None where the run failed.
    values = {side: {m["name"]: [None] * args.pairs for m in metrics}
              for side in sides}
    # p50s[side][template]: the template's p50 of each good run.
    p50s = {side: {} for side in sides}
    failed = False
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            result, templates = run_once(sides[side], args.workload, seed,
                                         args.seconds)
            record = {"pair": pair, "side": side, "workload": args.workload,
                      "seed": seed, "seconds": args.seconds,
                      "result": result, "templates": templates}
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
            if result is None or not result.get("correct", False):
                failed = True
                sys.stderr.write("perf_pairs: pair %d %s failed or wrong\n" %
                                 (pair, side))
                continue
            for metric in metrics:
                values[side][metric["name"]][pair] = (
                    result["metrics"][metric["name"]]["value"])
            for name, row in templates.items():
                p50s[side].setdefault(name, []).append(row["p50_ms"])
            sys.stderr.write("perf_pairs: pair %d %s seed %d done\n" %
                             (pair, side, seed))

    print("%s: %d pairs, --seconds %g, seeds %d-%d%s" % (
        args.workload, args.pairs, args.seconds, args.seed,
        args.seed + args.pairs - 1, "" if not failed else
        " (some runs FAILED: see %s)" % args.out))
    print("%-18s %12s %23s %12s %8s %6s %6s %s" % (
        "metric", "parent med", "parent [q1-q3]", "change med", "change",
        "won", "bound", "within"))
    out_of_bound = False
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        both = [(p, c) for p, c in zip(values["parent"][name],
                                       values["change"][name])
                if p is not None and c is not None]
        if not both:
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        lower = better == "lower"
        won = sum(1 for p, c in both if (c < p if lower else c > p))
        if lower:
            within = c_med <= p_med * (1 + bound)
        else:
            within = c_med >= p_med * (1 - bound)
        out_of_bound |= not within
        move = (c_med - p_med) / p_med * 100 if p_med else 0.0
        print("%-18s %12.4f %23s %12.4f %+7.1f%% %6s %5.0f%% %s" % (
            name, p_med, "[%.4f-%.4f]" % (q1, q3), c_med, move,
            "%d/%d" % (won, len(both)), bound * 100,
            "yes" if within else "NO"))

    names = sorted(set(p50s["parent"]) & set(p50s["change"]))
    if names:
        print("%-8s %14s %14s %8s" % ("template", "parent p50 ms",
                                      "change p50 ms", "change"))
    for name in names:
        p_med = statistics.median(p50s["parent"][name])
        c_med = statistics.median(p50s["change"][name])
        move = (c_med - p_med) / p_med * 100 if p_med else 0.0
        print("%-8s %14.2f %14.2f %+7.1f%%" % (name, p_med, c_med, move))
    return 1 if failed or out_of_bound else 0


if __name__ == "__main__":
    sys.exit(main())
