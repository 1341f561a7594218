"""One line per candidate job of the benchmark's pools (bench/refs.json):
its group, its index, the result of bench/jobs.py's check and a sha256 of
its output, the bytes a CLI job writes or the full-precision value of a
library job. Two checkouts print the same file exactly when every
candidate checks the same way and gives the same bits:

    PYTHONPATH=src python tests/pool_outputs.py > pool-a.txt
    (the same in the other checkout, into pool-b.txt)
    diff pool-a.txt pool-b.txt

The last line counts the candidates that pass. The coupled candidates run
to convergence near their thresholds, so a full pass takes a few minutes.
Arguments, when given, are group-name prefixes, and only the groups that
start with one of them run; the analysis pool alone takes seconds:

    PYTHONPATH=src python tests/pool_outputs.py analysis/ > pool-a.txt

With --deltas, each line lists instead, per key of the candidate's
summary, its largest |value - reference| next to the key's bound from
bench/jobs.py (relative to max(1, |reference|) where the bound is
relative), so that a change can state which values moved, and by how
much, within their bounds. A coupled candidate's line ends with its
iteration and wave-jump counts, read from the CoupledRun of a library job
and from the '# iterations' and '# jumps' lines of a coupled-run job:

    PYTHONPATH=src python tests/pool_outputs.py --deltas analysis/thresholds/

Not collected by pytest.
"""

import dataclasses
import hashlib
import os
import sys
import tempfile

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import jobs  # noqa: E402  (bench/jobs.py)
import plan  # noqa: E402  (bench/plan.py)


def _feed(h, value) -> None:
    """Hash value's full bits: arrays by their bytes, floats by their hex
    form, dataclasses field by field, sequences item by item."""
    if isinstance(value, np.ndarray):
        h.update(f"array{value.shape}{value.dtype}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(float(value).hex().encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            h.update(field.name.encode())
            _feed(h, getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())


def digest(output) -> str:
    """sha256 of a CLI job's output file, or of a library job's value."""
    h = hashlib.sha256()
    if isinstance(output, dict) and "out" in output:
        h.update(f"rc={output['rc']}".encode())
        with open(output["out"], "rb") as fh:
            h.update(fh.read())
    else:
        _feed(h, output)
    return h.hexdigest()


def deltas(job: dict, output) -> str:
    """key=largest |value - reference|/bound for each key of the job's
    summary; "same" or "differs" for a key that is null or of another
    length on one side."""
    summary = jobs.summarize(job, output)
    tols = jobs.TOLERANCES[job["kind"]]
    parts = []
    for key in sorted(set(job["ref"]) | set(summary)):
        want, got = job["ref"].get(key), summary.get(key)
        if want is None or got is None or len(want) != len(got):
            same = want is None and got is None
            parts.append(f"{key}={'same' if same else 'differs'}")
            continue
        tol = tols.get(key, tols.get("*"))
        rel = isinstance(tol, (tuple, list))
        errs = [0.0 if a == b else abs(a - b) / (max(1.0, abs(b)) if rel else 1.0)
                for a, b in zip(got, want)]
        parts.append(f"{key}={max(errs, default=0.0):.3g}/{tol[1] if rel else tol}"
                     + ("rel" if rel else ""))
    if job["kind"] == "coupled":
        parts += [f"iters={output.iters}", f"jumps={output.jumps}"]
    elif job["kind"] == "coupled_cli":
        meta, _ = jobs.read_csv(output["out"])
        parts += [f"iters={meta['iterations']}", f"jumps={meta['jumps']}"]
    return " ".join(parts)


def main(prefixes, show_deltas=False) -> int:
    refs = plan.load_refs()
    passed = total = 0
    names = [n for n in sorted(refs["groups"])
             if not prefixes or n.startswith(tuple(prefixes))]
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            group = refs["groups"][name]
            for i, cand in enumerate(group["candidates"]):
                job = {"id": total, "group": name, "kind": group["kind"],
                       "params": cand["params"], "ref": cand["ref"]}
                systems = jobs.build_systems([job])
                paths = jobs.write_configs([job], workdir)
                total += 1
                try:
                    output = jobs.run_job(job, systems, paths)
                except Exception as exc:  # a job that raises fails its check
                    print(f"{name} {i} RAISED {type(exc).__name__}: {exc}", flush=True)
                    continue
                errors = jobs.check(job, output)
                passed += not errors
                result = "ok" if not errors else f"FAIL {len(errors)}: {errors[0]}"
                tail = deltas(job, output) if show_deltas else digest(output)
                print(f"{name} {i} {result} {tail}", flush=True)
    print(f"{passed} of {total} candidates pass")
    return 0 if passed == total else 1


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main([a for a in args if a != "--deltas"], "--deltas" in args))
