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


def main(prefixes) -> int:
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
                print(f"{name} {i} {result} {digest(output)}", flush=True)
    print(f"{passed} of {total} candidates pass")
    return 0 if passed == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
