"""Running benchmark jobs through maxsat's public entry points and checking
their outputs.

A job is a dict from ``plan.select_jobs``. CLI jobs call
``maxsat.cli.main([...])`` in-process with ``--out`` into the run's work
directory; library jobs call the public functions on systems built during
set-up. Every call goes through a module attribute at call time, so a
:class:`spans.Tracer` that rebinds those attributes sees it.

Each output is reduced to a summary (named lists of numbers, profiles and
curves sampled at fixed indices) and compared with the reference summary
stored for the job under the tolerance the library states for that
quantity. Independent anchors, values that do not come from this code,
are checked on top.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import maxsat as mx
import maxsat.cli

EX8_LAMBDA = "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"
EX8_RHO = "0.6 x^4 + 0.4 x^12"
EX9_RHO = "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"

SYSTEMS = {
    "ldpc8": {"type": "ldpc", "lambda": EX8_LAMBDA, "rho": EX8_RHO},
    "ldgm9": {"type": "ldgm", "L": "x^6", "rho": EX9_RHO},
    "isi": {"type": "isi", "L": "x^3", "R": "x^6"},
    "gldpc31": {"type": "gldpc", "n": 31, "t": 4},
    "gldpc63": {"type": "gldpc", "n": 63, "t": 5},
    "example1": {"type": "example", "id": 1},
    "example2": {"type": "example", "id": 2},
}

# Anchors computed independently of this code (40-digit mpmath evaluations
# of the paper's definitions, and closed forms).
LDPC8_MAXWELL = 0.62192946106121
LDPC8_EPS_STAB = 25.0 / 36.0
EXAMPLE2_DELTA = 0.00201100077695

# Tolerances the library states for each summarized quantity. A float is an
# absolute bound; ("rel", t) bounds |a - b| / max(1, |b|). Coupled profiles
# converge to a 1e-12 step and are held to 1e-9 max-abs; thresholds are
# bisected to 1e-9 and held to 1e-8; potential values are tied at 1e-10 and
# quadrature-backed ones are held to the 1e-8 quadrature-vs-closed-form gap;
# golden-section minimizers on flat minima resolve x only to ~1e-8, so
# minimizer positions are held to 1e-6.
TOLERANCES = {
    "coupled": {"n": 0.0, "profile": 1e-9, "max": 1e-9},
    "coupled_cli": {"n": 0.0, "profile": 1e-9, "max": 1e-9},
    "sc_cli": {"eps": 1e-12, "exit": 1e-9},
    "thresholds_cli": {"*": 1e-8},
    "exit_cli": {"ebp_n": 0.0, "map_n": 0.0, "*": 1e-8},
    "curve_cli": {"n": 0.0, "x": 1e-12, "u": 1e-8, "min_x": 1e-6, "min_u": 1e-8},
    "report": {"x_lower": 1e-6, "x_upper": 1e-6, "min_value": 1e-10,
               "delta_gap": 1e-10, "K_fg": ("rel", 1e-9), "w0": ("rel", 1e-6)},
    "q_one": {"q": 1e-12},
    "us": {"u": 1e-8},
}

CLI_COMMANDS = {
    "coupled_cli": "coupled-run",
    "sc_cli": "exit-curves",
    "thresholds_cli": "thresholds",
    "exit_cli": "exit-curves",
    "curve_cli": "potential-curve",
}


def system_object(params: dict) -> dict:
    """The config "system" object a job names, by key or inline."""
    spec = params["system"]
    return SYSTEMS[spec] if isinstance(spec, str) else spec


def _system_key(params: dict) -> str:
    return json.dumps([params["system"], params.get("eps")], sort_keys=True)


def build_systems(jobs: list) -> dict:
    """Construct and validate every system the job list names.

    This is the timed set-up: parameterized families run
    validate_param_system inside their builders, and slices and scalar
    systems go through make_system's grid checks (for cs systems these
    include quadrature-backed F checks at 38 points).
    """
    built = {}
    for job in jobs:
        key = _system_key(job["params"])
        if key in built:
            continue
        kind, system = mx.cli.build_system(system_object(job["params"]))
        eps = job["params"].get("eps")
        if kind == "param" and eps is not None:
            system = system.at_eps(eps, validate=True)
        built[key] = system
    return built


def _command(job: dict) -> dict:
    p, kind = job["params"], job["kind"]
    if kind in ("coupled_cli", "curve_cli"):
        return {k: p[k] for k in ("eps", "N", "w") if k in p}
    if kind == "sc_cli":
        return {"series": ["sc"], "eps_lo": p["eps_lo"], "eps_hi": p["eps_hi"],
                "sc_eps_n": 2, "N": p["N"], "w": p["w"]}
    if kind == "exit_cli":
        return {"series": ["ebp", "map"], "eps_lo": p["eps_lo"], "eps_hi": p["eps_hi"],
                "eps_n": 101}
    return {}


def write_configs(jobs: list, workdir: str) -> dict:
    """Write one config file per CLI job; returns job id -> (config, out)."""
    paths = {}
    for job in jobs:
        if job["kind"] not in CLI_COMMANDS:
            continue
        cfg = os.path.join(workdir, f"job{job['id']}.json")
        with open(cfg, "w") as fh:
            json.dump({"schema": 1, "system": system_object(job["params"]),
                       "command": _command(job)}, fh)
        paths[job["id"]] = (cfg, os.path.join(workdir, f"job{job['id']}.out"))
    return paths


def run_job(job: dict, systems: dict, paths: dict):
    """Execute one job; returns its raw output."""
    kind, p = job["kind"], job["params"]
    if kind in CLI_COMMANDS:
        cfg, out = paths[job["id"]]
        rc = mx.cli.main([CLI_COMMANDS[kind], "--config", cfg, "--out", out])
        return {"rc": rc, "out": out}
    system = systems[_system_key(p)]
    if kind == "coupled":
        return mx.coupled_fixed_point(system, mx.CouplingSpec(p["N"], p["w"]))
    if kind == "report":
        return mx.potential_report(system)
    if kind == "q_one":
        return mx.Q_of_x(system, 1.0)
    if kind == "us":
        return mx.U_s(system, np.asarray(p["xs"], dtype=float))
    raise ValueError(f"unknown job kind {kind!r}")


# -- summaries ---------------------------------------------------------------

def sample_indices(n: int, count: int = 48) -> list:
    """Evenly strided indices plus the midpoint and the last index."""
    stride = max(1, -(-n // count))
    return sorted(set(range(0, n, stride)) | {n - 1, (n + 1) // 2 - 1})


def _sampled(values) -> list:
    return [float(values[i]) for i in sample_indices(len(values))]


def read_csv(path: str):
    """Metadata dict and data rows of a CLI CSV file."""
    meta, rows, header = {}, [], None
    with open(path, newline="") as fh:
        for line in fh.read().split("\r\n"):
            if not line:
                continue
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                meta[key] = val
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return meta, rows


def _profile_summary(values) -> dict:
    values = np.asarray(values, dtype=float)
    return {"n": [float(len(values))], "profile": _sampled(values),
            "max": [float(np.max(values))]}


def _series(rows, name):
    sel = [r for r in rows if r[0] == name]
    return [float(r[1]) for r in sel], [float(r[2]) for r in sel]


def summarize(job: dict, output) -> dict:
    """Reduce a job's output to the summary its reference is stored as."""
    kind = job["kind"]
    if kind == "coupled":
        return _profile_summary(output.profile.values)
    if kind == "report":
        return {"x_lower": [output.x_lower_star], "x_upper": [output.x_upper_star],
                "min_value": [output.min_value], "delta_gap": [output.delta_gap],
                "K_fg": [output.K_fg], "w0": [output.w0]}
    if kind == "q_one":
        return {"q": [float(output)]}
    if kind == "us":
        return {"u": [float(v) for v in np.atleast_1d(output)]}

    out = output["out"]
    if kind == "thresholds_cli":
        with open(out) as fh:
            obj = json.load(fh)
        summary = {k: (None if obj[k] is None else [obj[k]])
                   for k in ("eps_single", "eps_stab", "eps_c", "eps_maxwell")}
        if "inverse_psi_table" in obj:
            summary["inverse_psi_table"] = [v for row in obj["inverse_psi_table"]
                                            for v in (row["x"], row["eps"])]
        return summary
    _, rows = read_csv(out)
    if kind == "coupled_cli":
        return _profile_summary([float(r[1]) for r in rows])
    if kind == "sc_cli":
        eps, ex = _series(rows, "sc-finite")
        return {"eps": eps, "exit": ex}
    if kind == "exit_cli":
        summary = {}
        for name in ("ebp", "map"):
            eps, ex = _series(rows, name)
            summary[name + "_n"] = [float(len(eps))]
            summary[name + "_eps"] = _sampled(eps)
            summary[name + "_exit"] = _sampled(ex)
        return summary
    if kind == "curve_cli":
        xs, us = _series(rows, "potential")
        min_xs, min_us = _series(rows, "minimizer")
        return {"n": [float(len(xs))], "x": _sampled(xs), "u": _sampled(us),
                "min_x": [min(min_xs), max(min_xs)], "min_u": [min(min_us)]}
    raise ValueError(f"unknown job kind {kind!r}")


def _close(a: float, b: float, tol) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    if isinstance(tol, (tuple, list)):
        return abs(a - b) <= tol[1] * max(1.0, abs(b))
    return abs(a - b) <= tol


def compare(kind: str, summary: dict, ref: dict) -> list:
    """Differences between a summary and its reference beyond tolerance."""
    tols = TOLERANCES[kind]
    errors = []
    for key in sorted(set(ref) | set(summary)):
        want, got = ref.get(key), summary.get(key)
        if want is None or got is None:
            if want is not got:
                errors.append(f"{key}: got {got!r}, reference {want!r}")
            continue
        if len(want) != len(got):
            errors.append(f"{key}: {len(got)} values, reference has {len(want)}")
            continue
        tol = tols.get(key, tols.get("*"))
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b, tol)]
        if bad:
            i = bad[0]
            errors.append(f"{key}[{i}]: got {got[i]!r}, reference {want[i]!r} "
                          f"(tolerance {tol}, {len(bad)} values off)")
    return errors


def anchors(job: dict, output, summary: dict) -> list:
    """Checks against values that do not come from this code's output,
    plus the CLI exit code and the coupled-run convergence flag."""
    kind, p = job["kind"], job["params"]
    system = p["system"]
    errors = []

    def near(label, got, want, tol):
        if got is None or not abs(got - want) <= tol:
            errors.append(f"anchor {label}: got {got!r}, expected {want!r} +- {tol}")

    if kind == "thresholds_cli" and system == "ldpc8":
        near("ldpc8 eps_maxwell", (summary["eps_maxwell"] or [None])[0], LDPC8_MAXWELL, 1e-8)
        near("ldpc8 eps_c", (summary["eps_c"] or [None])[0], LDPC8_MAXWELL, 1e-8)
        near("ldpc8 eps_stab", (summary["eps_stab"] or [None])[0], LDPC8_EPS_STAB, 1e-8)
    elif kind == "report" and system == "example2":
        near("example2 delta", summary["delta_gap"][0], EXAMPLE2_DELTA, 1e-10)
    elif kind == "q_one":
        n, t = SYSTEMS[system]["n"], SYSTEMS[system]["t"]
        near(f"{system} Q(1)", summary["q"][0], -(1.0 - 2.0 * t / n) / 2.0, 1e-12)
    elif kind == "curve_cli" and isinstance(system, dict) and system.get("prior") == "gaussian":
        # quadrature-backed F against the Gaussian prior's closed form
        closed = mx.cs_system(mx.CsParams(mx.GaussianPrior(1.0), system["sigma2"],
                                          system["delta"]), use_closed_form_F=True)
        _, rows = read_csv(output["out"])
        xs, us = _series(rows, "potential")
        gap = float(np.max(np.abs(np.asarray(us) - mx.U_s(closed, np.asarray(xs)))))
        near("cs-gaussian quadrature vs closed-form U_s", gap, 0.0, 1e-8)
    if kind in CLI_COMMANDS and output["rc"] != 0:
        errors.append(f"exit code {output['rc']}")
    if kind == "coupled_cli":
        meta, _ = read_csv(output["out"])
        if meta.get("converged") != "true":
            errors.append(f"coupled-run did not converge: {meta.get('converged')!r}")
    return errors


def check(job: dict, output, plant: bool = False) -> list:
    """All check failures of one job's output (empty when correct).

    With plant=True the eps_c of an ldpc8 threshold report is offset by
    1e-6 before the comparison, to show that a wrong value is caught.
    """
    summary = summarize(job, output)
    if plant and job["kind"] == "thresholds_cli" and job["params"]["system"] == "ldpc8":
        summary["eps_c"] = [summary["eps_c"][0] + 1e-6]
    return compare(job["kind"], summary, job["ref"]) + anchors(job, output, summary)
