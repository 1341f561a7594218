"""Per-layer tracing of maxsat from outside the library.

While a :class:`Tracer` is active it rebinds every public function (no
leading underscore) defined in the library modules in every ``maxsat``
namespace that holds it, and it wraps the callables of the
systems the benchmark hands to the library with ``dataclasses.replace``.
Each wrapped call is a span (name, start, end, parent, job id). Spans of
module functions are kept in memory and can be written out at the end;
calls of system callables are only aggregated, since a scalar-heavy
analysis makes hundreds of thousands of them. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("numerics", "recursion", "potential", "thresholds", "systems", "cli")

_SEARCHES = ("numerics.bisect_root", "numerics.bisect_sup", "numerics.golden_min")
_COUPLED = ("recursion.coupled_fixed_point", "recursion.modified_coupled_fixed_point")


class Tracer:
    """Rebinds the library's public functions to span-recording wrappers."""

    def __init__(self):
        self._saved = []
        self._wrappers = {}
        self.begin(keep_spans=False)

    # -- span bookkeeping -------------------------------------------------

    def begin(self, keep_spans: bool) -> None:
        """Clear all counters; keep full span records only if asked."""
        self.stack = []  # open frames: [name, t0, child_s, span_index, stored]
        self.spans = [] if keep_spans else None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # outermost activations only
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.job = -1
        self.t_origin = time.perf_counter()

    def _enter(self, name: str, store: bool) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        idx = parent
        if store and self.spans is not None:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.job])
        else:
            store = False
        self.active[name] += 1
        frame = [name, time.perf_counter(), 0.0, idx, store]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        name, t0, child, idx, store = frame
        self.stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.active[name] -= 1
        if not self.active[name]:
            self.incl_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if store:
            rec = self.spans[idx]
            rec[1] = t0 - self.t_origin
            rec[2] = t1 - self.t_origin

    def _parent_name(self) -> str:
        return self.stack[-2][0] if len(self.stack) > 1 else ""

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn, hook):
        tr = self

        @functools.wraps(fn)
        def traced(*a, **k):
            frame = tr._enter(name, True)
            try:
                if hook is not None:
                    return hook(fn, a, k)
                return fn(*a, **k)
            finally:
                tr._exit(frame)

        return traced

    def _callable_wrapper(self, field: str, fn):
        name = "system." + field
        tr = self

        def traced(*a, **k):
            frame = tr._enter(name, False)
            try:
                return fn(*a, **k)
            finally:
                tr._exit(frame)
                x = a[0] if a else 0.0
                tr.counts["system.points"] += getattr(x, "size", 1)
                if getattr(x, "ndim", 0) == 0:
                    tr.counts["system.scalar_calls"] += 1

        return traced

    def wrap_system(self, system):
        """Copy of a ScalarSystem or ParamSystem whose callables are traced."""
        changes = {}
        for f in dataclasses.fields(system):
            val = getattr(system, f.name)
            if callable(val) and not inspect.isclass(val):
                changes[f.name] = self._callable_wrapper(f.name, val)
        return dataclasses.replace(system, **changes)

    def _hooks(self) -> dict:
        tr = self

        def quad(fn, a, k):
            res = fn(*a, **k)
            if tr.active["numerics.adaptive_simpson"] == 1:
                tr.counts["quad_calls"] += 1
                tr.counts["quad_evals"] += res.evaluations
            return res

        def counted(key):
            def hook(fn, a, k):
                n = [0]
                target = a[0]

                def probe(x):
                    n[0] += 1
                    return target(x)

                try:
                    return fn(probe, *a[1:], **k)
                finally:
                    tr.counts[key] += n[0]
                    if key == "bisect_evals" and tr._parent_name().startswith("thresholds."):
                        tr.counts["thresholds.bisect_steps"] += n[0]
            return hook

        def coupled(fn, a, k):
            try:
                run = fn(*a, **k)
            except Exception as exc:
                tr.counts["coupled_iters"] += getattr(exc, "iters", 0) or 0
                raise
            tr.counts["coupled_iters"] += run.iters
            return run

        def fp_scan(fn, a, k):
            if any(fr[0] == "potential.potential_report" for fr in tr.stack):
                tr.counts["fp_scans_in_report"] += 1
            return fn(*a, **k)

        def minimize(fn, a, k):
            bound = inspect.signature(fn).bind(*a, **k)
            bound.apply_defaults()
            tr.counts["grid_points"] += int(bound.arguments["grid_n"])
            return fn(*a, **k)

        def build(fn, a, k):
            kind, system = fn(*a, **k)
            return kind, tr.wrap_system(system)

        hooks = {
            "numerics.adaptive_simpson": quad,
            "numerics.bisect_root": counted("bisect_evals"),
            "numerics.bisect_sup": counted("bisect_evals"),
            "numerics.golden_min": counted("golden_evals"),
            "recursion.fixed_points_of": fp_scan,
            "potential.minimize_potential": minimize,
            "cli.build_system": build,
        }
        for name in _COUPLED:
            hooks[name] = coupled
        return hooks

    # -- patching ---------------------------------------------------------

    def _targets(self):
        for modname in LAYER_MODULES:
            mod = sys.modules["maxsat." + modname]
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{modname}.{attr}", obj

    def __enter__(self):
        import maxsat.cli  # noqa: F401  (the CLI module must be loaded to be traced)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "maxsat" or n.startswith("maxsat.")]
        hooks = self._hooks()
        for name, fn in self._targets():
            wrapper = self._wrappers.get(name)
            if wrapper is None:
                wrapper = self._span_wrapper(name, fn, hooks.get(name))
                self._wrappers[name] = wrapper
            for mod in namespaces:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since the last begin()."""
        c, calls, self_s, incl = self.counts, self.calls, self.self_s, self.incl_s

        def layer_self(prefix):
            return sum(v for n, v in self_s.items() if n.startswith(prefix))

        sys_calls = sum(v for n, v in calls.items() if n.startswith("system."))
        points = c["system.points"]
        sys_self = layer_self("system.")
        iters = c["coupled_iters"]
        coupled_s = sum(incl[n] for n in _COUPLED)
        reports = calls["potential.potential_report"]
        builders = [n for n in incl if n.startswith("systems.") and n.endswith("_system")]
        return {
            "systems.calls": (sys_calls, "count"),
            "systems.points": (points, "count"),
            "systems.scalar_calls": (c["system.scalar_calls"], "count"),
            "systems.self_s": (sys_self, "s"),
            "systems.ns_per_point": (sys_self / points * 1e9 if points else 0.0, "ns"),
            "systems.build_s": (sum(incl[n] for n in builders), "s"),
            "recursion.coupled_iters": (iters, "count"),
            "recursion.coupled_s": (coupled_s, "s"),
            "recursion.us_per_iter": (coupled_s / iters * 1e6 if iters else 0.0, "us"),
            "recursion.step_self_s": (sum(self_s[n] for n in _COUPLED), "s"),
            "recursion.fp_scans": (calls["recursion.fixed_points_of"], "count"),
            "recursion.fp_scan_s": (incl["recursion.fixed_points_of"], "s"),
            "numerics.quad_calls": (c["quad_calls"], "count"),
            "numerics.quad_evals": (c["quad_evals"], "count"),
            "numerics.quad_s": (incl["numerics.adaptive_simpson"], "s"),
            "numerics.bisect_evals": (c["bisect_evals"], "count"),
            "numerics.golden_evals": (c["golden_evals"], "count"),
            "numerics.search_s": (sum(self_s[n] for n in _SEARCHES), "s"),
            "potential.minimize_calls": (calls["potential.minimize_potential"], "count"),
            "potential.grid_points": (c["grid_points"], "count"),
            "potential.minimize_self_s": (self_s["potential.minimize_potential"], "s"),
            "potential.K_s": (incl["potential.K_fg_bound"], "s"),
            "potential.fp_scans_per_report": (
                c["fp_scans_in_report"] / reports if reports else 0.0, "ratio"),
            "thresholds.psi_evals": (calls["thresholds.Psi"], "count"),
            "thresholds.xbar_evals": (calls["thresholds.x_bar_star"], "count"),
            "thresholds.bisect_steps": (c["thresholds.bisect_steps"], "count"),
            "thresholds.self_s": (layer_self("thresholds."), "s"),
            "cli.jobs": (calls["cli.main"], "count"),
            "cli.self_s": (layer_self("cli."), "s"),
        }

    def write_spans(self, path: str) -> int:
        """Write the kept spans as CSV; returns the number written."""
        spans = self.spans or []
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,job\n")
            for i, (name, t0, t1, parent, job) in enumerate(spans):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{job}\n")
        return len(spans)
