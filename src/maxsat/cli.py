"""Command-line front end.

    maxsat <command> --config <path> [--eps <f>] [--N <int>] [--w <int>]
           [--out <path>] [--format csv|json] [--progress <int>]

Commands: potential-curve, coupled-run, thresholds, exit-curves, verify.
Configs are single JSON files with a "system" object and a "command"
object; command-line flags override config values, and a flag or key the
command does not use is a config error. Data output is CSV (RFC 4180 rows,
17-significant-digit floats, metadata on '#' comment lines above the
header) or JSON with flat snake_case keys; only potential-curve offers
both (--format). Outputs carry no timestamps, so identical configs give
bit-identical files.

Exit codes: 0 success, 1 failed verify suite, 2 config error, 3 numeric
non-convergence, 4 undefined threshold requested.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .errors import (
    ConstructionError,
    DomainError,
    NonConvergenceError,
    NumericError,
    ThresholdUndefinedError,
)
from .potential import U_s, grad_Uc, minimize_Us
from .recursion import CouplingSpec, IterationConfig, _run_coupled, _WaveJumps
from .systems import (
    CsParams,
    DegreeDistribution,
    GaussianPrior,
    GldpcParams,
    TwoPointPrior,
    cs_system,
    example1_system,
    example2_system,
    gldpc_system,
    isi_system,
    ldgm_system,
    ldpc_system,
    pathological_system,
)
from .thresholds import (
    coupled_sweep,
    ebp_curve,
    inverse_psi_table,
    map_exit_curve,
    threshold_report,
)


class ConfigError(ValueError):
    pass


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(obj: dict, key: str, kind=float, default=None, least=None):
    """obj[key] converted by kind (int or float), or default when the key
    is absent and a default is given. A missing required key, a value kind
    rejects or would misread, and a value below least are ConfigErrors."""
    if key not in obj and default is None:
        raise ConfigError(f"missing {key!r}")
    value = obj.get(key, default)
    bad = ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                      f"got {value!r}")
    try:
        n = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise bad from exc
    # kind() reads true as 1, and int() truncates 20.7 to 20
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and n != value):
        raise bad
    if least is not None and n < least:
        raise ConfigError(f"{key} must be >= {least}, got {n}")
    return n


def _poly_arg(obj, where: str):
    if isinstance(obj, (str, list)):
        return obj
    raise ConfigError(f"{where} must be a polynomial string or coefficient list")


def _degree_dist(sysobj: dict, edge_key: str, node_key: str) -> DegreeDistribution:
    if edge_key in sysobj and node_key in sysobj:
        raise ConfigError(f"give either {edge_key!r} or {node_key!r}, not both")
    if edge_key in sysobj:
        return DegreeDistribution.from_edge(_poly_arg(sysobj[edge_key], edge_key))
    if node_key in sysobj:
        return DegreeDistribution.from_node(_poly_arg(sysobj[node_key], node_key))
    raise ConfigError(f"system needs {edge_key!r} or {node_key!r}")


def build_system(sysobj: dict):
    """Build the configured system. Returns (kind, system) with kind
    'param' (a ParamSystem) or 'scalar' (a ScalarSystem)."""
    if not isinstance(sysobj, dict) or "type" not in sysobj:
        raise ConfigError('config needs a "system" object with a "type"')
    t = sysobj["type"]
    if t in ("ldpc", "ldgm", "isi"):
        _reject_unknown(sysobj, {"type", "lambda", "rho", "L", "R"}, f"system({t})")
        L = _degree_dist(sysobj, "lambda", "L")
        R = _degree_dist(sysobj, "rho", "R")
        builder = {"ldpc": ldpc_system, "ldgm": ldgm_system, "isi": isi_system}[t]
        return "param", builder(L, R)
    if t == "gldpc":
        _reject_unknown(sysobj, {"type", "n", "t"}, "system(gldpc)")
        return "param", gldpc_system(GldpcParams(_number(sysobj, "n", int),
                                                 _number(sysobj, "t", int)))
    if t == "cs":
        _reject_unknown(sysobj, {"type", "prior", "variance", "mass", "rho_s",
                                 "sigma2", "delta"}, "system(cs)")
        prior_kind = sysobj.get("prior", "gaussian")
        if prior_kind == "gaussian":
            prior = GaussianPrior(_number(sysobj, "variance", default=1.0))
        elif prior_kind == "two_point":
            prior = TwoPointPrior(_number(sysobj, "mass", default=1.0),
                                  _number(sysobj, "rho_s", default=0.1))
        else:
            raise ConfigError(f"unknown cs prior {prior_kind!r}")
        params = CsParams(prior, _number(sysobj, "sigma2"), _number(sysobj, "delta"))
        return "scalar", cs_system(params)
    if t == "example":
        _reject_unknown(sysobj, {"type", "id"}, "system(example)")
        builders = {1: example1_system, 2: example2_system, 3: pathological_system}
        ident = sysobj.get("id")
        if ident not in builders:
            raise ConfigError(f"example id must be one of {sorted(builders)}, got {ident!r}")
        return "scalar", builders[ident]()
    raise ConfigError(f"unknown system type {t!r}")


def _meta(cfg: dict) -> dict:
    """Header of every data output: tool, version, a fingerprint of the
    system object and its type."""
    blob = json.dumps(cfg["system"], sort_keys=True, separators=(",", ":")).encode()
    return {"tool": "maxsat", "version": __version__,
            "fingerprint": hashlib.sha256(blob).hexdigest()[:12],
            "system": cfg["system"]["type"]}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, {"schema", "system", "command"}, "config")
    if cfg.get("schema", 1) != 1:
        raise ConfigError(f"unsupported schema version {cfg.get('schema')!r}")
    if "system" not in cfg:
        raise ConfigError('config needs a "system" object')
    cmd = cfg.get("command", {})
    if not isinstance(cmd, dict):
        raise ConfigError('"command" must be an object')
    cfg["command"] = cmd
    return cfg


def _merged_params(cfg: dict, args, allowed: set) -> dict:
    params = dict(cfg.get("command", {}))
    _reject_unknown(params, allowed, "command")
    for flag in ("eps", "N", "w", "progress", "out", "format"):
        v = getattr(args, flag, None)
        if v is not None:
            if flag not in allowed:
                raise ConfigError(f"--{flag} is not accepted by this command")
            params[flag] = v
    return params


def _require_eps(kind: str, params: dict):
    if kind == "param":
        if "eps" not in params:
            raise ConfigError("a parameterized system needs --eps")
        return _number(params, "eps")
    if "eps" in params:
        raise ConfigError("--eps only applies to parameterized systems")
    return None


def _slice(kind, built, eps):
    if kind == "param":
        return built.at_eps(eps)
    return built


def _write_text(text: str, out) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(meta: dict, header: list, rows) -> str:
    """Metadata lines, the header and one line per row tuple, with floats
    as _fmt writes them ('%.17g' % v is format(v, '.17g')) and anything
    else as str writes it. Each row is one % formatting, by a format made
    once per sequence of value types."""
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}={v}\r\n")
    buf.write(",".join(header) + "\r\n")
    formats = {}
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types) + "\r\n"
        buf.write(fmt % tuple(row))
    return buf.getvalue()


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_potential_curve(cfg: dict, args) -> int:
    params = _merged_params(cfg, args, {"eps", "grid_n", "out", "format"})
    kind, built = build_system(cfg["system"])
    eps = _require_eps(kind, params)
    sys_ = _slice(kind, built, eps)
    grid_n = _number(params, "grid_n", int, default=512, least=400)
    xs = np.linspace(0.0, sys_.x_max, grid_n)
    us = np.asarray(U_s(sys_, xs), dtype=float)
    res = minimize_Us(sys_)
    meta = _meta(cfg)
    if eps is not None:
        meta["eps"] = _fmt(eps)
    rows = [("potential", float(x), float(u)) for x, u in zip(xs, us)]
    rows += [("minimizer", float(x), float(U_s(sys_, x))) for x in res.minimizers]
    fmt = params.get("format", "csv")
    if fmt == "json":
        obj = {"series": [{"series": s, "x": x, "u_s": u} for s, x, u in rows]}
        obj.update({k: v for k, v in meta.items()})
        _write_text(_json_text(obj), params.get("out"))
    elif fmt == "csv":
        _write_text(_csv_text(meta, ["series", "x", "U_s"], rows), params.get("out"))
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    return 0


def _progress_row(it, step, top, position, speed, jumps) -> None:
    """One row of coupled-run --progress, on stderr."""
    sys.stderr.write(f"{it},{step:.6g},{top:.6g},{position:.6g},{speed:.6g},{jumps}\n")


def cmd_coupled_run(cfg: dict, args) -> int:
    params = _merged_params(cfg, args,
                            {"eps", "N", "w", "tol", "max_iters", "progress", "out"})
    kind, built = build_system(cfg["system"])
    eps = _require_eps(kind, params)
    sys_ = _slice(kind, built, eps)
    spec = CouplingSpec(_number(params, "N", int), _number(params, "w", int))
    itcfg = IterationConfig(tol=_number(params, "tol", default=1e-12),
                            max_iters=_number(params, "max_iters", int, default=10**6))
    progress = _number(params, "progress", int, least=1) if "progress" in params else 0
    meta = {**_meta(cfg), "N": spec.N, "w": spec.w}
    if eps is not None:
        meta["eps"] = _fmt(eps)

    # coupled_fixed_point's run from x_max, whose watch (wave jumps and
    # tail extrapolation) also writes the progress rows
    watch = _WaveJumps(sys_, spec, _progress_row if progress else None, progress, itcfg.tol)
    if progress:
        sys.stderr.write("iteration,step,max,front,speed,jumps\n")
    code = 0
    try:
        run = _run_coupled(sys_, spec, itcfg, pin_tail=False, watch=watch)
        profile, iters, jumps, converged = run.profile, run.iters, run.jumps, True
    except NonConvergenceError as exc:
        profile, iters, jumps, converged = exc.last, exc.iters, exc.jumps, False
        code = 3
    meta.update({"iterations": iters, "jumps": jumps, "converged": str(converged).lower(),
                 "max": _fmt(profile.max), "midpoint": _fmt(profile.midpoint)})
    rows = [(i + 1, float(v)) for i, v in enumerate(profile.values)]
    _write_text(_csv_text(meta, ["i", "x_i"], rows), params.get("out"))
    return code


def cmd_thresholds(cfg: dict, args) -> int:
    params = _merged_params(cfg, args, {"tol", "which", "out"})
    which = params.get("which")
    if which not in (None, "eps_single", "eps_stab", "eps_c", "eps_maxwell"):
        raise ConfigError(f"unknown threshold {which!r}")
    kind, built = build_system(cfg["system"])
    if kind != "param":
        raise ConfigError("thresholds need a parameterized system")
    tol = _number(params, "tol", default=1e-9)
    rep = threshold_report(built, tol)
    obj = {
        **_meta(cfg),
        "eps_single": rep.eps_single,
        "eps_stab": rep.eps_stab,
        "eps_c": rep.eps_c,
        "eps_maxwell": rep.eps_maxwell,
    }
    for name, note in rep.notes:
        obj[f"note_{name}"] = note
    if rep.eps_c is None:
        # no potential threshold: report the inverse-envelope thresholds
        # along the fixed-point domain instead
        obj["inverse_psi_table"] = [{"x": x, "eps": e} for x, e in inverse_psi_table(built)]
    if which is not None and obj[which] is None:
        raise ThresholdUndefinedError(f"{which} is undefined for this system")
    _write_text(_json_text(obj), params.get("out"))
    return 0


# The command keys each exit-curves series reads.
_SERIES_KEYS = {
    "ebp": {"x_n"},
    "map": {"eps_lo", "eps_hi", "eps_n"},
    "sc": {"eps_lo", "eps_hi", "sc_eps_n", "N", "w", "max_iters"},
}


def cmd_exit_curves(cfg: dict, args) -> int:
    params = _merged_params(cfg, args, {"series", "out"}.union(*_SERIES_KEYS.values()))
    kind, built = build_system(cfg["system"])
    if kind != "param":
        raise ConfigError("exit-curves need a parameterized system")
    series = params.get("series", ["ebp", "map"])
    if not isinstance(series, list) or not all(
            isinstance(s, str) and s in _SERIES_KEYS for s in series):
        raise ConfigError('series must be a list drawn from ["ebp", "map", "sc"]')
    unused = set(params) - {"series", "out"}.union(*(_SERIES_KEYS[s] for s in series))
    if unused:
        raise ConfigError(f"keys or flags not used by series {series}: {sorted(unused)}")
    eps_lo = _number(params, "eps_lo", default=0.0)
    eps_hi = _number(params, "eps_hi", default=built.eps_max)
    if not 0.0 <= eps_lo < eps_hi <= built.eps_max:
        raise ConfigError(f"need 0 <= eps_lo < eps_hi <= {built.eps_max}")
    eps_n, x_n, sc_eps_n = (_number(params, key, int, default=default, least=1)
                            for key, default in
                            (("eps_n", 101), ("x_n", 512), ("sc_eps_n", 21)))
    rows = []
    code = 0
    if "ebp" in series:
        crv = ebp_curve(built, np.linspace(0.0, built.x_max, x_n))
        rows += [("ebp", float(e), float(v)) for e, v in zip(crv.eps, crv.exit_values)]
    if "map" in series:
        mp = map_exit_curve(built, np.linspace(eps_lo, eps_hi, eps_n))
        rows += [("map", float(e), float(v)) for e, v in zip(mp.eps, mp.exit_values)]
    if "sc" in series:
        spec = CouplingSpec(_number(params, "N", int), _number(params, "w", int))
        itcfg = IterationConfig(max_iters=_number(params, "max_iters", int, default=10**6))
        es = np.linspace(eps_lo, eps_hi, sc_eps_n).tolist()
        for e, res in zip(es, coupled_sweep(built, es, spec, itcfg)):
            if isinstance(res, NonConvergenceError):
                worst = res.last.max
                code = 3
            else:
                worst = res.profile.max
            rows.append(("sc-finite", e, float(built.exit_value(worst, e))))
    _write_text(_csv_text(_meta(cfg), ["series", "eps", "exit"], rows), params.get("out"))
    return code


def _negated_grad_Uc(sys_, spec, values):
    """The planted defect of --inject-bug negated-gradient."""
    return -grad_Uc(sys_, spec, values)


def cmd_verify(cfg: dict, args) -> int:
    params = _merged_params(cfg, args, {"inject_bug", "out"})
    inject = args.inject_bug or params.get("inject_bug")
    if inject not in (None, "negated-gradient"):
        raise ConfigError(f"unknown injected bug {inject!r}")
    grad = _negated_grad_Uc if inject == "negated-gradient" else grad_Uc
    # only this command runs the invariant suites, so only it imports them
    from .invariants import verify_suites

    results = {name: "pass" if ok else "fail" for name, ok in verify_suites(grad).items()}
    obj = {"tool": "maxsat", "version": __version__}
    obj.update(results)
    _write_text(_json_text(obj), params.get("out"))
    return 0 if all(v == "pass" for v in results.values()) else 1


_COMMANDS = {
    "potential-curve": cmd_potential_curve,
    "coupled-run": cmd_coupled_run,
    "thresholds": cmd_thresholds,
    "exit-curves": cmd_exit_curves,
    "verify": cmd_verify,
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused, since
    parsing leaves it unchanged; building its five subparsers costs about
    twenty parses."""
    p = argparse.ArgumentParser(prog="maxsat", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--w", type=int, default=None)
        sp.add_argument("--out", default=None)
        if name == "potential-curve":
            sp.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "coupled-run":
            sp.add_argument("--progress", type=int, default=None)
        if name == "verify":
            sp.add_argument("--inject-bug", dest="inject_bug", default=None)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on a bad flag, 0 on --help
        return exc.code
    try:
        if args.command == "verify" and args.config is None:
            cfg = {"system": {}, "command": {}}
        else:
            if args.config is None:
                raise ConfigError("--config is required")
            cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ConstructionError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ThresholdUndefinedError as exc:
        print(f"undefined threshold: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
