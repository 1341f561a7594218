"""Acceptance gate: one test per criterion, each printing a line with the
measured values (visible with `pytest -s`, and in the captured output on
failure). Tolerances are asserted exactly as stated.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from maxsat import invariants as inv
from maxsat.potential import minimize_Us, potential_report
from maxsat.recursion import CouplingSpec, coupled_fixed_point, uncoupled_fixed_point
from maxsat.systems import (
    CsParams,
    DegreeDistribution,
    GaussianPrior,
    GldpcParams,
    cs_system,
    example1_system,
    example2_system,
    gldpc_system,
    isi_system,
    ldgm_system,
    ldpc_system,
    pathological_system,
)
from maxsat.thresholds import (
    Q_of_x,
    eps_c,
    eps_of_x,
    eps_stab,
    map_exit_curve,
    map_jumps,
    maxwell_threshold,
    x_bar_star,
    x_lower_star,
)

EX8_LAMBDA = "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"
EX8_RHO = "0.6 x^4 + 0.4 x^12"
EX9_RHO = "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"


@pytest.fixture(scope="module")
def ldpc8():
    return ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                       DegreeDistribution.from_edge(EX8_RHO))


@pytest.fixture(scope="module")
def ldgm9():
    return ldgm_system("x^6", DegreeDistribution.from_edge(EX9_RHO))


def test_criterion_1_example1_constants():
    t0 = perf_counter()
    rep = potential_report(example1_system())
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 1: x_upper*={rep.x_upper_star} delta={rep.delta_gap:.6f} "
          f"K={rep.K_fg:.4f} w0={rep.w0:.1f} ({dt:.2f}s)")
    assert dt < 1.0
    assert rep.x_upper_star == 0.0
    assert 0.008 <= rep.delta_gap <= 0.012
    assert rep.K_fg < 12
    assert rep.w0 < 600


def test_criterion_2_example2_constants():
    t0 = perf_counter()
    rep = potential_report(example2_system())
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 2: x_upper*={rep.x_upper_star:.6f} delta={rep.delta_gap:.6f} "
          f"K={rep.K_fg:.4f} w0={rep.w0:.1f} ({dt:.2f}s)")
    assert dt < 1.0
    assert 0.04 <= rep.x_upper_star <= 0.06
    assert rep.K_fg < 10
    assert rep.delta_gap >= 0.0025
    assert rep.w0 < 2000


def test_criterion_3_threshold_family_thresholds(ldpc8):
    t0 = perf_counter()
    ec = eps_c(ldpc8)
    mx = maxwell_threshold(ldpc8)
    st = eps_stab(ldpc8)
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 3: eps_c={ec:.10f} maxwell={mx:.10f} eps_stab={st:.10f} ({dt:.2f}s)")
    assert dt < 30.0
    assert abs(mx - ec) <= 1e-4
    assert st == pytest.approx(0.694444, abs=1e-6)
    assert ec == pytest.approx(0.625, abs=1e-3)


def test_criterion_4_finite_chain_saturation(ldpc8):
    t0 = perf_counter()
    spec = CouplingSpec(800, 11)
    low = coupled_fixed_point(ldpc8.at_eps(0.615), spec)
    high = coupled_fixed_point(ldpc8.at_eps(0.645), spec)
    xb = x_bar_star(ldpc8, 0.645)
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 4: max@0.615={low.profile.max:.3e} "
          f"max@0.645={high.profile.max:.8f} xbar(0.645)={xb:.8f} ({dt:.2f}s)")
    assert dt < 300.0
    assert low.profile.max <= 1e-6
    assert abs(high.profile.max - xb) <= 0.01


def test_criterion_5_generator_code_exit_curves(ldgm9):
    t0 = perf_counter()
    jumps = map_jumps(ldgm9, map_exit_curve(ldgm9, np.linspace(0.49, 0.52, 7)))
    assert len(jumps) == 1
    eps0 = jumps[0]

    spec = CouplingSpec(800, 11)

    def sc_exit(e):
        run = coupled_fixed_point(ldgm9.at_eps(e), spec)
        return float(ldgm9.exit_value(run.profile.max, e))

    def map_exit(e):
        return float(ldgm9.exit_value(x_bar_star(ldgm9, e), e))

    # overhang: just past the jump plus its located tolerance, the finite
    # chain must already sit on the upper branch
    e_over = eps0 + 0.01
    over_gap = abs(sc_exit(e_over) - map_exit(e_over))
    elsewhere = [abs(sc_exit(e) - map_exit(e))
                 for e in (0.42, 0.46, 0.49, eps0 - 0.003, 0.53, 0.56, 0.60)]
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 5: jump={eps0:.6f} overhang_gap={over_gap:.4f} "
          f"max_elsewhere_gap={max(elsewhere):.4f} ({dt:.2f}s)")
    assert dt < 300.0
    assert eps0 == pytest.approx(0.508, abs=2e-3)
    assert over_gap <= 0.02
    assert max(elsewhere) <= 0.02


@pytest.mark.parametrize("n,t", [(31, 4), (63, 5)])
def test_criterion_6_component_code_thresholds(n, t):
    t0 = perf_counter()
    psys = gldpc_system(GldpcParams(n, t))
    q1 = float(Q_of_x(psys, 1.0))
    xs = np.linspace(1e-6, 1.0, 20001)
    p = np.asarray(psys.trial_entropy(xs))
    crossings = np.where(p[:-1] * p[1:] < 0)[0]
    lo, hi = float(xs[crossings[0]]), float(xs[crossings[0] + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(psys.trial_entropy(mid)) * float(psys.trial_entropy(lo)) <= 0:
            hi = mid
        else:
            lo = mid
    xstar = 0.5 * (lo + hi)
    ec_psi = eps_c(psys)
    ec_root = float(eps_of_x(psys, xstar))
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 6 (n={n},t={t}): Q(1)={q1:.12f} roots={len(crossings)} "
          f"eps_c={ec_psi:.9f} eps(x*)={ec_root:.9f} ({dt:.2f}s)")
    assert dt < 10.0
    assert abs(q1 - (-(1 - 2 * t / n) / 2)) <= 1e-12
    assert len(crossings) == 1
    assert abs(ec_psi - ec_root) <= 1e-6


def test_criterion_7_width_sweep_and_lower_bound():
    t0 = perf_counter()
    s1 = example1_system()
    maxes = []
    for w in (2, 4, 8, 16, 32):
        run = coupled_fixed_point(s1, CouplingSpec(64, w))
        maxes.append(run.profile.max)
    ldpc33 = ldpc_system("x^3", "x^3")
    run_lb = coupled_fixed_point(ldpc33.at_eps(0.98), CouplingSpec(200, 3))
    xl = x_lower_star(ldpc33, 0.98)
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 7: maxes={['%.2e' % m for m in maxes]} "
          f"lb_max={run_lb.profile.max:.3e} x_lower*(0.98)={xl:.6f} ({dt:.2f}s)")
    # collapsed profiles bottom out at denormal noise, hence the 1e-9 floor
    # on the monotonicity comparison
    assert all(b <= a + 1e-9 for a, b in zip(maxes, maxes[1:]))
    assert maxes[-1] <= 1e-6
    assert run_lb.profile.max >= xl - 0.01


def test_criterion_8_invariant_suites(ldpc8, ldgm9):
    t0 = perf_counter()
    gldpc = gldpc_system(GldpcParams(31, 4))
    isi = isi_system("x^3", "x^6")
    s1 = example1_system()
    rng = np.random.default_rng(42)
    passed = {
        # 1e3 random starts per system
        "potential_descent": inv.potential_descent(
            [s1, example2_system(), pathological_system(), ldpc8.at_eps(0.64),
             ldgm9.at_eps(0.5), gldpc.at_eps(0.25), isi.at_eps(0.6),
             cs_system(CsParams(GaussianPrior(1.0), 0.25, 0.5), use_closed_form_F=True)],
            rng, 1000),
        "coupled_symmetry_unimodality": inv.coupled_symmetric_unimodal(
            [(s1, CouplingSpec(20, 4)), (ldpc8.at_eps(0.64), CouplingSpec(24, 5))]),
        "uc_constant_vector": inv.uc_on_constant_profiles(s1, CouplingSpec(9, 3), rng, 100),
        "uc_sum_bound": inv.uc_bounds_sum_of_us(s1, CouplingSpec(9, 3), rng, 100),
        "gradient_fd": inv.gradient_matches_fd(s1, CouplingSpec(6, 3), rng, 10),
        "hessian_bound": inv.hessian_within_K(s1, CouplingSpec(6, 3), rng, 10),
        "psi_integral": inv.psi_matches_integral(ldpc8, (0.63, 0.65, 0.68)),
        "q_ebp_integral": inv.q_matches_ebp_integral(
            [(ldpc8, [(0.25, 0.55), (0.6, 0.9)]), (gldpc, [(0.3, 0.8), (0.5, 0.95)]),
             (ldgm9, [(0.3, 0.6), (0.65, 0.9)]), (isi, [(0.3, 0.6), (0.65, 0.9)])]),
        "gldpc_sign_pattern": inv.gldpc_trial_entropy_signs(GldpcParams(31, 4), 200),
        "finite_w_classification": inv.finite_w_classification(),
    }
    failed = [name for name, ok in passed.items() if not ok]
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 8: {len(passed) - len(failed)}/{len(passed)} invariant suites "
          f"passed, failed={failed} ({dt:.2f}s)")
    assert not failed


def test_criterion_9_state_evolution():
    t0 = perf_counter()
    params = CsParams(GaussianPrior(1.0), 0.25, 0.5)
    quad = cs_system(params)
    closed = cs_system(params, use_closed_form_F=True)

    v, s2, delta = 1.0, 0.25, 0.5
    b = delta * s2 + delta * v - v
    root = (-b + math.sqrt(b * b + 4 * delta * v * s2)) / 2
    fp, _ = uncoupled_fixed_point(quad, quad.x_max)

    ys = np.linspace(0.0, quad.y_max, 25)
    f_gap = max(abs(float(quad.F(float(y))) - float(closed.F(float(y)))) for y in ys)

    run = coupled_fixed_point(quad, CouplingSpec(128, 8))
    xbar = minimize_Us(closed).x_upper
    dt = perf_counter() - t0
    print(f"ACCEPTANCE 9: |fp-root|={abs(fp - root):.2e} F_gap={f_gap:.2e} "
          f"sc_max={run.profile.max:.8f} xbar={xbar:.8f} ({dt:.2f}s)")
    assert dt < 60.0
    assert abs(fp - root) <= 1e-10
    assert f_gap <= 1e-8
    assert run.profile.max <= xbar + 0.01
