"""Seeded job lists for the maxsat benchmark (standard library only).

Every job is drawn from a pool stored in ``refs.json`` together with its
reference output, because a reference can only be checked for parameters it
was computed for. ``make_refs.py`` draws each pool once, uniformly over the
parameter ranges of its group, and counts every candidate's work. For each
group a run's seed picks ``count`` candidates: uniformly among the job sets
whose total work is closest to the median total of all sets of that size.
The job list thus changes with the seed while its total work stays close
to constant; otherwise the spread of the drawn parameters (iteration counts
near a threshold grow steeply) would swamp the run-to-run spread of the
timings.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics

WORKLOADS = ("chain", "analysis", "quadrature")

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def balanced_sets(work: list, count: int) -> list:
    """Index sets of size count whose summed work is nearest the median sum:
    the nearest 1/64 of all sets, and at least four (or all there are)."""
    sets = list(itertools.combinations(range(len(work)), count))
    totals = [sum(work[i] for i in s) for s in sets]
    mid = statistics.median(totals)
    keep = max(min(4, len(sets)), len(sets) // 64)
    order = sorted(range(len(sets)), key=lambda k: (abs(totals[k] - mid), sets[k]))
    return [sets[k] for k in order[:keep]]


def select_jobs(refs: dict, workload: str, seed: int) -> list:
    """The job list of one workload for one seed, in execution order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for name in sorted(refs["groups"]):
        group = refs["groups"][name]
        if group["workload"] != workload:
            continue
        cands = group["candidates"]
        chosen = rng.choice(balanced_sets([c["work"] for c in cands], group["count"]))
        for i in chosen:
            jobs.append({"group": name, "kind": group["kind"],
                         "params": cands[i]["params"], "ref": cands[i]["ref"]})
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
