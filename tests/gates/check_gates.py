#!/usr/bin/env python3
"""Runs the figure gates of scripts/check_bench.py on the artifacts in this
directory, with the thresholds CI uses:

  <gate>.pass.json    a real paper_figures artifact; the gate must exit 0
  <gate>.<rule>.json  a copy doctored to break one rule; the gate must exit 1

and checks that each gate exits 2 on a missing file, a file that is not
JSON, and another figure's artifact.

Usage: tests/gates/check_gates.py scripts/check_bench.py
"""

import os
import subprocess
import sys

GATES = {
    "fig13": ["--fig13"],
    "fig14": ["--fig14"],
    "fig17": ["--fig17"],
    "scaleout": ["--scaleout", "--min-speedup", "1.15"],
    "availability": ["--availability", "--goodput-floor", "0.1",
                     "--recovery-ceiling", "20.0"],
}


def main():
    check_bench = sys.argv[1]
    here = os.path.dirname(os.path.abspath(__file__))
    cases = []
    for name in sorted(os.listdir(here)):
        gate, _, rest = name.partition(".")
        if gate in GATES and rest.endswith(".json"):
            expected = 0 if rest == "pass.json" else 1
            cases.append((gate, os.path.join(here, name), expected))
    for gate in GATES:
        other = "fig17" if gate != "fig17" else "scaleout"
        cases += [(gate, os.path.join(here, "missing.json"), 2),
                  (gate, os.path.abspath(__file__), 2),
                  (gate, os.path.join(here, f"{other}.pass.json"), 2)]

    wrong = []
    for gate, path, expected in cases:
        result = subprocess.run(
            [sys.executable, check_bench, path] + GATES[gate],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        verdict = "ok" if result.returncode == expected else "WRONG"
        print(f"{verdict:<6}{gate:<14}exit {result.returncode} "
              f"(want {expected})  {os.path.basename(path)}")
        if result.returncode != expected:
            wrong.append(result.stderr)
    for stderr in wrong:
        print(stderr, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
