"""The benchmark's per-layer tracer, bench/spans.py, hooks library functions
and reads their arguments by name (minimize_potential's grid_n among them),
so a renamed function or parameter would zero its metrics without failing
a benchmark run. These counts pin what it sees on three small analyses and
one coupled sweep."""

import importlib.util
import json
from pathlib import Path

import maxsat.cli
import maxsat.potential
import maxsat.thresholds
from maxsat.errors import NonConvergenceError
from maxsat.recursion import CouplingSpec
from maxsat.systems import DegreeDistribution, example1_system, ldpc_system

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer


def ldpc8():
    return ldpc_system(DegreeDistribution.from_edge("0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"),
                       DegreeDistribution.from_edge("0.6 x^4 + 0.4 x^12"))


def test_tracer_counts_analysis_layers():
    ex1 = example1_system()
    tracer = load_tracer()()
    with tracer:
        # looked up inside the block, where the tracer has rebound them
        maxsat.potential.potential_report(ex1)
        psys = ldpc8()
        maxsat.thresholds.map_jumps(psys, maxsat.thresholds.map_exit_curve(psys, [0.5, 0.7]))
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    # one 1e4-point minimization for the report, and 18 bisection steps of
    # the jump near 0.622 and 13 of the sub-cells of the continuous rise
    # above it (0.10 to 0.22), searched until each rises by at most 0.01,
    # each a 3000-point x_bar_star. The curve itself searches no jump, so
    # the jump steps are map_jumps', called here so that they stay pinned.
    # The two curve points are minimized as one batch by private helpers
    # (thresholds._minimize_us_lanes), which the tracer does not see: a
    # per-point loop reads 34, 10**4 + 33 * 3000 and 33 here
    assert metrics["potential.minimize_calls"] == 32
    assert metrics["potential.grid_points"] == 10**4 + 31 * 3000
    assert metrics["potential.fp_scans_per_report"] == 1.0
    assert metrics["thresholds.xbar_evals"] == 31


def test_tracer_counts_threshold_search():
    tracer = load_tracer()()
    with tracer:
        maxsat.thresholds.threshold_report(ldpc8())
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    # eps_c certifies the Maxwell threshold: Psi at 0 and at eps_stab, the
    # two probes at eps_maxwell -+ 0.4 tol and the two cross-check
    # minimizations, each on 1e4 points; no other threshold minimizes. A
    # Newton search without the certificate reads 10
    assert metrics["potential.minimize_calls"] == 6
    assert metrics["potential.grid_points"] == 6 * 10**4
    # 75 probes of bisect_root (Brent's method) on 19 roots: 62 on the 17
    # fixed points of eps_c's minimizations, 3 on the eps_stab root, found
    # once for eps_single, eps_stab, eps_c and the Maxwell candidate, and
    # 10 on the root of Q, polished to a few ulps of x (6 to a 1e-12
    # bracket); finding eps_stab anew each time reads 9 more, a return to
    # bisection about 430 and a renamed bisect_root, which the tracer no
    # longer sees, 0
    assert metrics["numerics.bisect_evals"] == 75
    # psi_evals counts calls of Psi, which the search does not make, so it
    # reads 0 on working code; moving the count to minimize_us_at
    # (ROADMAP item 5) has to change this pin on purpose
    assert metrics["thresholds.psi_evals"] == 0


def test_tracer_counts_envelope_integral():
    tracer = load_tracer()()
    with tracer:
        maxsat.thresholds.psi_integral(ldpc8(), 0.66)
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    # the 661 points of the MAP curve, 1e-3 apart, are one batch, which
    # the tracer sees only through its searches; the 10 bisection steps of
    # the jump near 0.622 are one 3000-point x_bar_star each. The slopes
    # are read off the curve, so a second sampling pass would show here,
    # and a per-point curve reads 671 minimizations
    assert metrics["potential.minimize_calls"] == 10
    assert metrics["thresholds.xbar_evals"] == 10
    assert metrics["potential.grid_points"] == 10 * 3000
    # the curve's own searches run on the batch's private kernels
    # (numerics._golden_lanes, _brent_lanes), which the tracer, hooking
    # golden_min and bisect_root by name, does not see. A golden run on a
    # 3000-point grid probes 2 + 42 times: 43 steps shrink its two cells,
    # 2 / 2999, below 1e-12. 7 of the 10 bisection steps resolve one
    # minimum each: 7 runs, where a per-point curve makes 46
    assert metrics["numerics.golden_evals"] == 7 * 44
    # the bisection steps' 20 fixed points take 6 probes each but 2 that
    # take 5; a per-point curve probes 668 times
    assert metrics["numerics.bisect_evals"] == 18 * 6 + 2 * 5


def test_tracer_counts_sweep_iterations(tmp_path):
    # the exit-curves sc series runs coupled_sweep, which calls
    # coupled_fixed_point once per eps; the tracer counts each run's
    # iterations, so a sweep whose runs it does not see reads 0
    system = {"type": "ldpc", "lambda": "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20",
              "rho": "0.6 x^4 + 0.4 x^12"}
    command = {"series": ["sc"], "eps_lo": 0.6, "eps_hi": 0.65, "sc_eps_n": 2,
               "N": 40, "w": 4}
    cfg = tmp_path / "sc.json"
    cfg.write_text(json.dumps({"schema": 1, "system": system, "command": command}))
    tracer = load_tracer()()
    with tracer:
        assert maxsat.cli.main(["exit-curves", "--config", str(cfg),
                                "--out", str(tmp_path / "sc.csv")]) == 0
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    _, psys = maxsat.cli.build_system(system)
    sweep = maxsat.thresholds.coupled_sweep(psys, [0.6, 0.65], CouplingSpec(40, 4))
    assert not any(isinstance(r, NonConvergenceError) for r in sweep)
    assert metrics["recursion.coupled_iters"] == sum(r.iters for r in sweep) > 0
