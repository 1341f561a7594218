"""The checkable lemmas behind threshold saturation, each written once.

Every check takes the system(s), the coupling layout, a numpy Generator
and the sample counts, and returns True when the lemma holds on every
sample. Comparisons are written so that a NaN fails. `maxsat verify` runs
the checks at the small sizes of `verify_suites`; the test suite runs the
same checks at larger ones.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError
from .potential import (
    FiniteWCondition,
    K_fg_bound,
    U_c,
    U_s,
    check_finite_w_conditions,
    grad_Uc,
    rounding_level,
)
from .recursion import CoupledProfile, CouplingSpec, coupled_step, midpoint_index
from .systems import (
    DegreeDistribution,
    GldpcParams,
    example1_system,
    example2_system,
    gldpc_system,
    ldpc_system,
    pathological_system,
)
from .thresholds import Psi, Q_integral_check, psi_integral

__all__ = [
    "potential_descent",
    "coupled_symmetric_unimodal",
    "uc_on_constant_profiles",
    "uc_bounds_sum_of_us",
    "gradient_matches_fd",
    "hessian_within_K",
    "psi_matches_integral",
    "q_matches_ebp_integral",
    "gldpc_trial_entropy_signs",
    "finite_w_classification",
    "verify_suites",
]


def potential_descent(systems, rng, n: int) -> bool:
    """U_s(h(x)) <= U_s(x) + 1e-12 at n uniform points of [0, x_max] per
    system, and strictly where the Bregman term bounding the decrease, of
    size |h(x) - x| |g(h(x)) - g(x)| / 2, exceeds minimize_potential's
    rounding level of U (rounding_level)."""
    for s in systems:
        xs = rng.uniform(0.0, s.x_max, n)
        hx = np.asarray(s.h(xs), dtype=float)
        du = np.asarray(U_s(s, hx)) - np.asarray(U_s(s, xs))
        bregman = 0.5 * np.abs(hx - xs) * np.abs(np.asarray(s.g(hx)) - np.asarray(s.g(xs)))
        level = rounding_level(s.x_max, s.y_max)
        if not (np.all(du <= 1e-12) and np.all(du[bregman > level] < 0.0)):
            return False
    return True


def coupled_symmetric_unimodal(cases) -> bool:
    """Every iterate of the coupled recursion from x_max to its fixed point is
    symmetric and non-decreasing up to the midpoint (both to 1e-12), for
    each (system, spec) pair. The iterates are coupled_step's on the full
    chain, since coupled_fixed_point iterates only the left half and is
    symmetric by construction. A run stops once a step is at most 1e-12
    and raises NonConvergenceError after 1e5 iterations."""
    tol, cap = 1e-12, 10**5
    for s, spec in cases:
        i0 = midpoint_index(spec.M)
        prof = CoupledProfile(np.full(spec.M, s.x_max), spec)
        step, iters = np.inf, 0
        while True:
            v = prof.values
            if not (np.max(np.abs(v - v[::-1])) <= 1e-12
                    and np.min(np.diff(v[:i0 + 1]), initial=0.0) >= -1e-12):
                return False
            if step <= tol:
                break
            if iters == cap:
                raise NonConvergenceError(
                    f"coupled recursion did not converge in {cap} iterations",
                    last=prof, iters=cap, residual=step)
            prof = coupled_step(s, prof)
            step = float(np.max(np.abs(prof.values - v)))
            iters += 1
    return True


def uc_on_constant_profiles(system, spec: CouplingSpec, rng, n: int) -> bool:
    """U_c(x, ..., x) = M U_s(x) + (w - 1) F(g(x)) to 1e-10 at n uniform x."""
    for x in rng.uniform(0.0, system.x_max, n):
        lhs = U_c(system, spec, np.full(spec.M, x))
        rhs = spec.M * float(U_s(system, x)) + (spec.w - 1) * float(system.F(system.g(x)))
        if not abs(lhs - rhs) <= 1e-10:
            return False
    return True


def uc_bounds_sum_of_us(system, spec: CouplingSpec, rng, n: int) -> bool:
    """U_c(x) >= sum_i U_s(x_i) - 1e-10 at n uniform profiles."""
    for _ in range(n):
        prof = rng.uniform(0.0, system.x_max, spec.M)
        if not U_c(system, spec, prof) >= float(np.sum(U_s(system, prof))) - 1e-10:
            return False
    return True


def _uniform_profile(system, spec: CouplingSpec, rng) -> np.ndarray:
    return rng.uniform(0.05 * system.x_max, 0.95 * system.x_max, spec.M)


def _unit(spec: CouplingSpec, k: int, step: float) -> np.ndarray:
    e = np.zeros(spec.M)
    e[k] = step
    return e


def gradient_matches_fd(system, spec: CouplingSpec, rng, n: int, grad=grad_Uc) -> bool:
    """grad(system, spec, x) matches central differences of U_c (step 1e-6)
    to 1e-6 relative, with a floor of 1, at n uniform interior profiles.
    grad is the gradient under test, grad_Uc unless a fake is substituted."""
    step = 1e-6
    for _ in range(n):
        prof = _uniform_profile(system, spec, rng)
        g = grad(system, spec, prof)
        for k in range(spec.M):
            e = _unit(spec, k, step)
            fd = (U_c(system, spec, prof + e) - U_c(system, spec, prof - e)) / (2 * step)
            if not abs(fd - g[k]) <= 1e-6 * max(1.0, abs(fd)):
                return False
    return True


def hessian_within_K(system, spec: CouplingSpec, rng, n: int) -> bool:
    """The largest absolute row sum of the Hessian of U_c, by central
    differences of grad_Uc (step 1e-5), is at most K (1 + 1e-3) at n
    uniform interior profiles."""
    bound = K_fg_bound(system) * (1 + 1e-3)
    step = 1e-5
    for _ in range(n):
        prof = _uniform_profile(system, spec, rng)
        H = np.array([(grad_Uc(system, spec, prof + _unit(spec, k, step))
                       - grad_Uc(system, spec, prof - _unit(spec, k, step))) / (2 * step)
                      for k in range(spec.M)])
        if not float(np.max(np.abs(H).sum(axis=1))) <= bound:
            return False
    return True


def psi_matches_integral(psys, eps_values) -> bool:
    """The envelope Psi(eps) equals psi_integral, the integral of its slope
    along the MAP curve from 0 to eps, to 1e-6 at each eps."""
    return all(abs(Psi(psys, e) - psi_integral(psys, e)) <= 1e-6 for e in eps_values)


def q_matches_ebp_integral(cases) -> bool:
    """Q(x2) - Q(x1) equals its parametric integral along the fixed-point
    curve to 1e-10, for each (psys, [(x1, x2), ...]) case."""
    for psys, intervals in cases:
        for x1, x2 in intervals:
            direct, integral = Q_integral_check(psys, x1, x2)
            if not abs(direct - integral) <= 1e-10:
                return False
    return True


def gldpc_trial_entropy_signs(params: GldpcParams, n: int) -> bool:
    """The component-code trial entropy has P' < 0 below the knee
    (t - 1)/(n - 2) and P' non-decreasing (to 1e-12) above it, on n points
    each side."""
    psys = gldpc_system(params)
    knee = (params.t - 1) / (params.n - 2)
    below = np.asarray(psys.trial_entropy_prime(np.linspace(1e-4, knee - 1e-4, n)))
    above = np.asarray(psys.trial_entropy_prime(np.linspace(knee, 1.0 - 1e-9, n)))
    return bool(np.max(below) < 0.0 and np.min(np.diff(above)) >= -1e-12)


def finite_w_classification() -> bool:
    """The three demo systems get their known finite-width classes:
    stability (example 1), gap or strict descent (example 2), unknown
    (the pathological system)."""
    return (check_finite_w_conditions(example1_system())
            is FiniteWCondition.FINITE_BY_STABILITY
            and check_finite_w_conditions(example2_system())
            in (FiniteWCondition.FINITE_BY_GAP, FiniteWCondition.FINITE_BY_STRICT_DESCENT)
            and check_finite_w_conditions(pathological_system())
            is FiniteWCondition.UNKNOWN)


def _ldpc8():
    return ldpc_system(DegreeDistribution.from_edge("0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"),
                       DegreeDistribution.from_edge("0.6 x^4 + 0.4 x^12"))


def verify_suites(grad=grad_Uc) -> dict:
    """Run every check at `maxsat verify` sizes, each with its own
    Generator seeded 20240 + len(name); returns {name: passed}.

    grad is handed to the gradient check, so a planted defect in the
    gradient can be shown to fail it.
    """
    suites = {
        "potential_descent": lambda rng: potential_descent(
            (example1_system(), example2_system(), pathological_system()), rng, 200),
        "coupled_symmetry_unimodality": lambda rng: coupled_symmetric_unimodal(
            [(example1_system(), CouplingSpec(20, 4))]),
        "uc_constant_vector": lambda rng: uc_on_constant_profiles(
            example1_system(), CouplingSpec(12, 3), rng, 50),
        "uc_sum_bound": lambda rng: uc_bounds_sum_of_us(
            example2_system(), CouplingSpec(12, 3), rng, 50),
        "gradient_fd": lambda rng: gradient_matches_fd(
            example1_system(), CouplingSpec(8, 3), rng, 10, grad),
        "hessian_bound": lambda rng: hessian_within_K(
            example1_system(), CouplingSpec(6, 3), rng, 10),
        "psi_integral": lambda rng: psi_matches_integral(_ldpc8(), (0.66,)),
        "q_ebp_integral": lambda rng: q_matches_ebp_integral(
            [(_ldpc8(), [(0.3, 0.6)]), (gldpc_system(GldpcParams(31, 4)), [(0.3, 0.8)])]),
        "gldpc_sign_pattern": lambda rng: gldpc_trial_entropy_signs(GldpcParams(31, 4), 101),
        "finite_w_classification": lambda rng: finite_w_classification(),
    }
    return {name: check(np.random.default_rng(20240 + len(name)))
            for name, check in suites.items()}
