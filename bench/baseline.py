"""Single-call timings that anchor the benchmark's first baseline.

    python3 bench/baseline.py

Reproduces the reference figures quoted for this code base: coupled
iteration counts for ldpc8 at N=800, w=11, and the wall time of eps_c,
threshold_report on gldpc(63,5) and a 101-point map_exit_curve. Each time
is the median of five calls in one process, single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np  # noqa: E402

import maxsat as mx  # noqa: E402
from maxsat.cli import build_system  # noqa: E402

from jobs import SYSTEMS  # noqa: E402


def timed(fn, repeats=5):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    ldpc8 = build_system(SYSTEMS["ldpc8"])[1]
    gldpc63 = build_system(SYSTEMS["gldpc63"])[1]
    spec = mx.CouplingSpec(800, 11)
    for eps in (0.60, 0.615, 0.618, 0.62):
        dt, run = timed(lambda: mx.coupled_fixed_point(ldpc8.at_eps(eps), spec), 3)
        print(f"coupled ldpc8 N=800 w=11 eps={eps}: {run.iters} iterations, "
              f"{dt:.3f} s, {dt / run.iters * 1e6:.0f} us/iteration")
    dt, ec = timed(lambda: mx.eps_c(ldpc8))
    print(f"eps_c(ldpc8) = {ec:.12f}: {dt:.3f} s")
    dt, _ = timed(lambda: mx.threshold_report(gldpc63))
    print(f"threshold_report(gldpc(63,5)): {dt:.3f} s")
    dt, _ = timed(lambda: mx.map_exit_curve(ldpc8, np.linspace(0.0, 1.0, 101)))
    print(f"map_exit_curve(ldpc8, 101 points on [0, 1]): {dt:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
