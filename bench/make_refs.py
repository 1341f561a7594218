"""Draw the benchmark's job pools and store their reference outputs.

    python3 bench/make_refs.py                  # rewrites bench/refs.json

Each group's pool is drawn uniformly over its parameter ranges with a seed
fixed per group, every candidate is run once through the same code path the benchmark
uses, and its summarized output becomes the reference. The candidates are
given a deterministic work count so that ``plan.select_jobs`` can draw job
sets of near-constant total work. The count is quadrature evaluations plus
system-callable elements plus 200 elements per callable call (the fixed
cost of a call, such as one coupled step's convolutions, is about that of
200 elements); it sorts jobs within a group, where the per-element cost is
the same. Timings on a shared host are too noisy for this.
Every run rewrites the whole file. It is produced once, at the commit whose outputs are the reference;
later commits are checked against it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import maxsat as mx  # noqa: E402

import jobs  # noqa: E402
from plan import REFS_PATH  # noqa: E402
from spans import Tracer  # noqa: E402

POOL_SEED = 1309_7910
# A coupled run close to the finite-chain threshold stalls; such a draw is
# replaced so that every job converges well within the time budget.
MAX_COUPLED_ITERS = 10000

CHAIN_EPS = {
    "ldpc8": (0.60, 0.618),
    "ldgm9": (0.495, 0.52),   # around the MAP jump near 0.508
    "gldpc31": None,          # (0.90, 0.98) * eps_c, filled in below
}


def _chain_draw(system, lo, hi):
    def draw(rng, kind):
        p = {"system": system, "N": rng.randint(400, 1000), "w": rng.randint(5, 16)}
        if kind == "sc_cli":
            a, b = sorted(round(rng.uniform(lo, hi), 6) for _ in range(2))
            p.update(eps_lo=a, eps_hi=b)
        else:
            p["eps"] = round(rng.uniform(lo, hi), 6)
        return p
    return draw


def _fixed(system):
    return lambda rng, kind: {"system": system}


def _window(system, lo_range, hi_range):
    return lambda rng, kind: {"system": system,
                              "eps_lo": round(rng.uniform(*lo_range), 6),
                              "eps_hi": round(rng.uniform(*hi_range), 6)}


def _slice(system, lo, hi):
    return lambda rng, kind: {"system": system, "eps": round(rng.uniform(lo, hi), 6)}


def _cs_gaussian(rng, kind):
    return {"system": {"type": "cs", "prior": "gaussian",
                       "sigma2": round(rng.uniform(0.1, 0.5), 4),
                       "delta": round(rng.uniform(0.3, 0.8), 4)}}


def _cs_two_point(rng, kind):
    sysobj = {"type": "cs", "prior": "two_point", "mass": 1.0, "rho_s": 0.1,
              "sigma2": float(f"{rng.uniform(1e-4, 1e-3):.4g}"),
              "delta": round(rng.uniform(0.3, 0.8), 4)}
    x_max = 0.1 * 0.9  # mmse(0) = mass^2 rho_s (1 - rho_s)
    return {"system": sysobj,
            "xs": sorted(round(rng.uniform(0.05, 0.95) * x_max, 6) for _ in range(2))}


def group_specs():
    """(name, workload, kind, jobs per pass, pool size, draw) for every pool."""
    ec31 = mx.eps_c(mx.cli.build_system(jobs.SYSTEMS["gldpc31"])[1])
    CHAIN_EPS["gldpc31"] = (0.90 * ec31, 0.98 * ec31)
    specs = []
    for fam, (lo, hi) in CHAIN_EPS.items():
        draw = _chain_draw(fam, lo, hi)
        specs += [(f"chain/{fam}/coupled", "chain", "coupled", 4, 16, draw),
                  (f"chain/{fam}/coupled_cli", "chain", "coupled_cli", 2, 12, draw),
                  (f"chain/{fam}/sc_cli", "chain", "sc_cli", 2, 12, draw)]
    for name in ("ldpc8", "isi", "ldgm9", "gldpc31", "gldpc63"):
        specs.append((f"analysis/thresholds/{name}", "analysis", "thresholds_cli", 1, 1,
                      _fixed(name)))
    specs += [
        ("analysis/exit/ldpc8", "analysis", "exit_cli", 1, 4,
         _window("ldpc8", (0.50, 0.60), (0.64, 0.75))),
        ("analysis/exit/ldgm9", "analysis", "exit_cli", 1, 4,
         _window("ldgm9", (0.40, 0.49), (0.53, 0.60))),
        ("analysis/curve/ldpc8", "analysis", "curve_cli", 2, 6, _slice("ldpc8", 0.55, 0.70)),
        ("analysis/report/ldpc8", "analysis", "report", 2, 6, _slice("ldpc8", 0.55, 0.70)),
    ]
    for name in ("example1", "example2"):
        specs += [(f"analysis/curve/{name}", "analysis", "curve_cli", 1, 1, _fixed(name)),
                  (f"analysis/report/{name}", "analysis", "report", 1, 1, _fixed(name))]
    for name in ("gldpc31", "gldpc63"):
        specs.append((f"analysis/q_one/{name}", "analysis", "q_one", 1, 1, _fixed(name)))
    specs += [
        ("quadrature/cs_curve", "quadrature", "curve_cli", 1, 24, _cs_gaussian),
        ("quadrature/us_two_point", "quadrature", "us", 2, 12, _cs_two_point),
    ]
    return specs


def measure(job: dict, workdir: str):
    """Run one candidate; returns (summary, work, coupled iterations)."""
    systems = jobs.build_systems([job])
    paths = jobs.write_configs([job], workdir)
    tracer = Tracer()
    with tracer:
        traced = {k: tracer.wrap_system(v) for k, v in systems.items()}
        output = jobs.run_job(job, traced, paths)
    summary = jobs.summarize(job, output)
    errors = jobs.anchors(job, output, summary)
    if errors:
        raise RuntimeError(f"{job['group']} {job['params']}: {errors}")
    c = tracer.counts
    iters = c["coupled_iters"]
    if iters > MAX_COUPLED_ITERS * (2 if job["kind"] == "sc_cli" else 1):
        return summary, None, iters
    calls = sum(n for name, n in tracer.calls.items() if name.startswith("system."))
    work = c["quad_evals"] + c["system.points"] + 200 * calls
    return summary, work, iters


def main() -> int:
    groups, redrawn = {}, {}
    build = os.path.join(os.path.dirname(HERE), ".bench_build")
    os.makedirs(build, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as workdir:
        for name, workload, kind, count, pool, draw in group_specs():
            rng = random.Random(f"{POOL_SEED}:{name}")
            cands = []
            redrawn[name] = 0
            while len(cands) < pool:
                params = draw(rng, kind)
                job = {"id": len(cands), "group": name, "kind": kind, "params": params}
                summary, work, iters = measure(job, workdir)
                if work is None:
                    redrawn[name] += 1
                    print(f"redraw {name} {params}: {iters} iterations", file=sys.stderr)
                    continue
                cands.append({"params": params, "work": work, "ref": summary})
                print(f"{name} {json.dumps(params)} iters={iters} work={work}",
                      file=sys.stderr)
            groups[name] = {"workload": workload, "kind": kind, "count": count,
                            "candidates": cands}
    refs = {"groups": groups, "redrawn": redrawn, "pool_seed": POOL_SEED,
            "max_coupled_iters": MAX_COUPLED_ITERS}
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
