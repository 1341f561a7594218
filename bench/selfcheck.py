"""Self-checks of the benchmark harness itself.

    python3 bench/selfcheck.py

1. A planted wrong value is caught: the analysis workload run with --plant
   (the ldpc8 eps_c offset by 1e-6 before checking) must report failed jobs,
   a pass_ratio below 1 and a non-zero exit code.
2. Runs repeat exactly: for every workload, two traced runs with the same
   seed list the same jobs and report identical count metrics (iterations,
   quadrature evaluations, bisection steps, grid points, ...), and another
   seed lists a different job list.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
EXACT_UNITS = ("count", "bytes")


def run(*args):
    """(exit code, last stdout line as JSON or None) of one run.py call."""
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    problems = []

    code, res = run("--workload", "analysis", "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--plant")
    if code == 0 or res is None or res["failed"] == 0 \
            or res["metrics"]["pass_ratio"]["value"] >= 1.0:
        problems.append(f"planted wrong value not caught: exit {code}, result {res}")
    else:
        print(f"planted value caught: exit {code}, {res['failed']} of "
              f"{res['attempted']} jobs failed")

    for workload in ("chain", "analysis", "quadrature"):
        lists = [run("--workload", workload, "--seed", s, "--list-jobs")[1]
                 for s in ("7", "7", "8")]
        if lists[0] != lists[1]:
            problems.append(f"{workload}: seed 7 gave two different job lists")
        if lists[0] == lists[2]:
            problems.append(f"{workload}: seeds 7 and 8 gave the same job list")
        counts = []
        for _ in range(2):
            code, res = run("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "1")
            if code != 0:
                problems.append(f"{workload}: traced run exited {code}")
                break
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if v["unit"] in EXACT_UNITS})
        if len(counts) == 2:
            diff = {k for k in counts[0] if counts[0][k] != counts[1][k]}
            if diff:
                problems.append(f"{workload}: counts differ between repeats: {sorted(diff)}")
            else:
                print(f"{workload}: job list and {len(counts[0])} counts repeat exactly, "
                      f"another seed changes the list")

    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
