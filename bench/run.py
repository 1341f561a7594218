"""maxsat benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Workloads: chain (coupled runs), analysis (thresholds, EXIT curves and
potential analyses with closed-form antiderivatives) and quadrature
(quadrature-backed antiderivatives); NOTES.md says why each exists. The
seed picks the workload's job list from the pools in refs.json. The job
list is run as one pass, repeated until --seconds have passed (at least
three passes), and every output is checked against its reference.

Times are reported in reference-host seconds. Shared hosts change speed in
phases of seconds to minutes (by a factor of 1.5 to 2 on a shared 2-core
Intel Xeon), which moves raw timings far beyond the bounds. So a fixed
pure-Python loop is timed before and after every job and every set-up, and
each job or set-up time is multiplied by LOOP_REF_S over the mean of its
two loop times. LOOP_REF_S is the loop's typical time on that Xeon in its fast
phase, where scaled and raw times roughly agree. solve_s is the sum over
jobs of the median of the scaled job times across passes; setup_s is the
median of the scaled set-up times. A slowdown of the whole process (say, a
thread left holding the GIL or a tracing hook) slows the loop by the same
factor and so does not show in the scaled times; the raw solve and set-up
times, the raw pass times and the loop times are kept in the provenance
line for that reason. Every pass runs on freshly built systems, built
outside the timed region, so a table or cache that a system fills lazily
is paid in every pass; caches at module level that outlive a pass are not.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics setup_s, solve_s, peak_rss_mb and pass_ratio; with
--trace 1 untraced and traced passes alternate and it carries the
per-layer metrics, and the spans of the first traced pass are written to
.bench_build/trace/. A provenance line precedes the result. The exit code
is 0 when every output checked correct, 1 when a check failed and 2 when
the checkout holds no maxsat source.
"""

import os

# Pinned before numpy is imported here or in a child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from plan import WORKLOADS, load_refs, select_jobs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

SETUP_SAMPLES = 9
MIN_PASSES = 3
LOOP_N = 50_000
LOOP_REF_S = 3.0e-3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant", action="store_true",
                   help="offset the ldpc8 eps_c by 1e-6 before checking (analysis)")
    p.add_argument("--list-jobs", action="store_true",
                   help="print the seed's job list as JSON and exit")
    p.add_argument("--setup-sample", action="store_true",
                   help="time one set-up in this process and print it")
    return p.parse_args(argv)


def loop_time() -> float:
    """Seconds for a fixed pure-Python loop: the yardstick of host speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(LOOP_N):
        acc += i * 0.5
    return time.perf_counter() - t0


def setup(job_list):
    """Import maxsat and build every system the jobs name, timed between
    two yardstick loops; returns (seconds, loop seconds, jobs module)."""
    before = loop_time()
    t0 = time.perf_counter()
    import jobs
    jobs.build_systems(job_list)
    seconds = time.perf_counter() - t0
    return seconds, 0.5 * (before + loop_time()), jobs


def setup_in_fresh_process(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-sample"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    sample = json.loads(out.strip().splitlines()[-1])
    return sample["setup_s"], sample["loop_s"]


def run_pass(jobs, job_list, systems, paths, tracer=None):
    """Run the job list once, timing each job between two yardstick loops.

    Returns ([(job seconds, mean loop seconds)], outputs by job id). Only
    the calls into maxsat are timed. A job that raises is recorded with its
    exception as output.
    """
    if tracer is not None:
        systems = {k: tracer.wrap_system(v) for k, v in systems.items()}
    outputs = {}
    times = []
    before = loop_time()
    for job in job_list:
        if tracer is not None:
            tracer.job = job["id"]
        t0 = time.perf_counter()
        try:
            outputs[job["id"]] = jobs.run_job(job, systems, paths)
        except Exception as exc:  # a failed job is counted, the run goes on
            outputs[job["id"]] = exc
        seconds = time.perf_counter() - t0
        after = loop_time()
        times.append((seconds, 0.5 * (before + after)))
        before = after
    return times, outputs


def scaled(samples) -> list:
    """(seconds, loop seconds) pairs as reference-host seconds."""
    return [t * LOOP_REF_S / loop for t, loop in samples]


def solve_total(passes, scale=True) -> float:
    """Sum over jobs of the median of each job's scaled (or raw) time
    across passes."""
    return sum(statistics.median(scaled(job) if scale else [t for t, _ in job])
               for job in zip(*passes))


def check_pass(jobs, job_list, outputs, plant):
    """Check every output; returns (failed, bytes written by CLI jobs)."""
    failed = 0
    bytes_out = 0
    for job in job_list:
        out = outputs[job["id"]]
        if isinstance(out, Exception):
            errors = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                errors = jobs.check(job, out, plant)
            except Exception as exc:  # an unreadable output is a failed job
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            if isinstance(out, dict) and os.path.exists(out["out"]):
                bytes_out += os.path.getsize(out["out"])
        if errors:
            failed += 1
            print(f"FAILED job {job['id']} {job['group']} {json.dumps(job['params'])}: "
                  + "; ".join(errors), file=sys.stderr)
    return failed, bytes_out


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; do not report an enclosing repo
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout
    except OSError:
        out = ""
    return out.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(args, samples: dict) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "samples": samples,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxsat", "__init__.py")):
        print(f"no maxsat source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    job_list = select_jobs(load_refs(), args.workload, args.seed)
    if args.list_jobs:
        print(json.dumps([[j["group"], j["params"]] for j in job_list], sort_keys=True))
        return 0
    if args.setup_sample:
        seconds, loop, _ = setup(job_list)
        print(json.dumps({"setup_s": seconds, "loop_s": loop}))
        return 0

    setup_s = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    seconds, loop, jobs = setup(job_list)
    setup_s.append((seconds, loop))

    os.makedirs(BUILD, exist_ok=True)
    workdir = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        paths = jobs.write_configs(job_list, workdir)
        attempted = failed = 0
        untraced, traced, layers = [], [], []
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        start = time.perf_counter()
        while True:
            enough = traced if tracer is not None else len(untraced) >= MIN_PASSES
            if enough and time.perf_counter() - start >= args.seconds:
                break
            use = tracer if tracer is not None and len(untraced) > len(traced) else None
            systems = jobs.build_systems(job_list)  # untimed, untraced
            if use is None:
                times, outputs = run_pass(jobs, job_list, systems, paths)
                untraced.append(times)
            else:
                use.begin(keep_spans=not traced)
                with use:
                    times, outputs = run_pass(jobs, job_list, systems, paths, use)
                traced.append(times)
                if len(traced) == 1:
                    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
                    use.write_spans(os.path.join(
                        BUILD, "trace", f"{args.workload}-seed{args.seed}.csv"))
            n_failed, bytes_out = check_pass(jobs, job_list, outputs, args.plant)
            attempted += len(job_list)
            failed += n_failed
            if use is not None:
                layers.append(dict(use.metrics(), **{"cli.bytes_out": (bytes_out, "bytes")}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loops = sorted(loop for p in untraced + traced + [setup_s] for _, loop in p)
    if args.trace:
        metrics = {name: {"value": statistics.median_low(m[name][0] for m in layers),
                          "unit": unit} for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_ratio"] = {
            "value": solve_total(traced) / solve_total(untraced) - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled(setup_s)), "unit": "s"},
            "solve_s": {"value": solve_total(untraced), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    samples = {"setup": len(setup_s), "solve": len(untraced), "traced": len(traced),
               "jobs_per_pass": len(job_list),
               "loop_s": {"min": loops[0], "median": statistics.median(loops), "max": loops[-1]},
               "raw_setup_s": [t for t, _ in setup_s],
               "raw_setup_median_s": statistics.median(t for t, _ in setup_s),
               "raw_solve_s": solve_total(untraced, scale=False),
               "raw_pass_s": [sum(t for t, _ in p) for p in untraced],
               "raw_traced_pass_s": [sum(t for t, _ in p) for p in traced]}
    print(json.dumps({"provenance": provenance(args, samples)}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
