import dataclasses
import math
import types

import numpy as np
import pytest
from scipy.integrate import quad

from maxsat.errors import ShapeError, UnsupportedOperationError
from maxsat.invariants import (
    gradient_matches_fd,
    hessian_within_K,
    potential_descent,
    uc_bounds_sum_of_us,
    uc_on_constant_profiles,
)
from maxsat.potential import (
    FiniteWCondition,
    K_fg_bound,
    MinimizeResult,
    U_c,
    U_s,
    U_s_prime,
    V_s,
    check_finite_w_conditions,
    energy_gap_delta,
    grad_Uc,
    minimize_Us,
    minimize_potential,
    potential_report,
    w0_bound,
)
from maxsat.recursion import (
    ANALYSIS_GRID_N,
    CoupledProfile,
    CouplingSpec,
    coupled_fixed_point,
    coupled_step,
    fixed_points_of,
    make_system,
)
from maxsat.systems import (
    CsParams,
    DegreeDistribution,
    GldpcParams,
    TwoPointPrior,
    cs_system,
    example1_system,
    example2_system,
    gldpc_system,
    ldgm_system,
    ldpc_system,
    pathological_system,
)
from maxsat.thresholds import minimize_us_at, threshold_report

EX1_FP_TOP = 0.9680165035778856
# potential value at that fixed point (the energy gap), from the closed form
EX1_GAP = 0.0099901085541561


@pytest.fixture(scope="module")
def ex1():
    return example1_system()


@pytest.fixture(scope="module")
def ex2():
    return example2_system()


@pytest.fixture(scope="module")
def path():
    return pathological_system()


class TestAntiderivatives:
    def test_example1_closed_forms(self, ex1):
        xs = np.linspace(0, 1, 11)
        assert np.allclose(ex1.F(xs), (97 / 300) * xs**3, atol=1e-15)
        assert np.allclose(ex1.G(xs), xs + ((1 - xs) ** 3 - 1) / 3, atol=1e-15)
        assert ex1.F(0.0) == 0.0
        assert ex1.G(1.0) == pytest.approx(2 / 3, abs=1e-15)

    def test_example2_F(self, ex2):
        assert ex2.F(0.5) == pytest.approx(0.5**6 / 6, abs=1e-16)

    def test_quadrature_matches_closed_form(self, ex1):
        bare = make_system(f=ex1.f, g=ex1.g, x_max=1.0)
        xs = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(np.asarray(bare.F(xs)) - np.asarray(ex1.F(xs)))) <= 1e-9
        assert np.max(np.abs(np.asarray(bare.G(xs)) - np.asarray(ex1.G(xs)))) <= 1e-9


class TestSingleSystemPotential:
    def test_zero_at_origin(self, ex1, path):
        assert U_s(ex1, 0.0) == 0.0
        assert U_s(path, 0.0) == 0.0

    def test_gap_value_at_top_fixed_point(self, ex1):
        assert U_s(ex1, EX1_FP_TOP) == pytest.approx(0.01, abs=2e-5)

    def test_pathological_closed_form(self, path):
        xs = np.linspace(0.013, 0.9, 401)
        ref = xs**5 * np.sin(np.pi / xs) ** 4 / 25 + xs**6 / 30
        assert np.max(np.abs(np.asarray(U_s(path, xs)) - ref)) <= 1e-10
        assert U_s(path, 0.05) == pytest.approx(0.05**6 / 30, abs=1e-15)

    def test_derivative_at_fixed_points(self, ex1):
        for x in fixed_points_of(ex1.h, ex1.x_max):
            assert abs(U_s_prime(ex1, x)) <= 1e-10

    def test_derivative_value(self, ex1):
        assert U_s_prime(ex1, 0.5) == pytest.approx(-0.045625, abs=1e-12)

    def test_derivative_matches_fd(self, ex1, ex2):
        rng = np.random.default_rng(2)
        for s in (ex1, ex2):
            for x in rng.uniform(0.05, 0.95, 50):
                h = 1e-6
                fd = (U_s(s, x + h) - U_s(s, x - h)) / (2 * h)
                d = U_s_prime(s, float(x))
                assert abs(fd - d) <= 1e-6 * max(1.0, abs(d))

    def test_descent_along_recursion(self, ex1, ex2, path):
        assert potential_descent((ex1, ex2, path), np.random.default_rng(4), 1000)

    def test_descent_below_rounding_need_not_be_strict(self):
        # g' is tiny near x = 1: h moves x = 0.99721 by 5.6e-4, but the
        # Bregman term is 4.3e-19 against a rounding level of 1.4e-14, and
        # U comes out 1.1e-16 higher
        s = ldgm_system("x^2", "0.5 x + 0.5 x^6").at_eps(0.984375, validate=True)
        draws = types.SimpleNamespace(uniform=lambda lo, hi, n: np.array([0.99721]))
        assert potential_descent([s], draws, 1)

    def test_planted_ascent_fails(self):
        # h halves x and F is planted so that U = -1e-13 x: U rises by
        # 5e-14 x, inside the 1e-12 slack but above the rounding level,
        # where the Bregman term x^2 / 8 asks for strict descent
        s = make_system(f=lambda y: 0.5 * y, g=lambda x: 1.0 * x, x_max=1.0,
                        F=lambda y: 0.5 * y * y + 1e-13 * y, G=lambda x: 0.5 * x * x,
                        validate=False)
        assert not potential_descent([s], np.random.default_rng(5), 200)


class TestHalfIteration:
    def test_matches_potential_at_fixed_points(self, ex1):
        for x in fixed_points_of(ex1.h, ex1.x_max):
            assert V_s(ex1, ex1.g(x)) == pytest.approx(U_s(ex1, x), abs=1e-14)

    def test_zero(self, ex2):
        assert V_s(ex2, 0.0) == 0.0

    def test_minimizers_map_through_g(self, ex1):
        # argmin V_s on a fine grid sits at g(argmin U_s)
        ys = np.linspace(0, ex1.y_max, 10**5)
        vy = np.asarray(V_s(ex1, ys))
        y_star = ys[np.argmin(vy)]
        x_star = minimize_Us(ex1).x_upper
        assert abs(y_star - ex1.g(x_star)) <= 1e-4

    def test_requires_flag(self, path):
        # measured on the 1000-point grid of [0, y_max]: the pathological f
        # rises by at least 2e-6 per step, ldpc with lam = 1 has f = eps,
        # and the cs two-point f is flat on 972 of 999 steps
        assert path.strictly_increasing_f
        for x in fixed_points_of(path.h, path.x_max)[:8]:
            assert V_s(path, path.g(x)) == pytest.approx(U_s(path, x), abs=1e-14)
        flat = (ldpc_system("x", "x^3").at_eps(0.5),
                cs_system(CsParams(TwoPointPrior(1.0, 0.1), 1e-4, 0.44)))
        for s in flat:
            with pytest.raises(UnsupportedOperationError):
                V_s(s, 0.1)


class TestMinimize:
    def test_example1_origin(self, ex1):
        res = minimize_Us(ex1)
        assert res.x_upper == 0.0
        assert res.value == 0.0
        assert res.minimizers == (0.0,)

    def test_example2_interior(self, ex2):
        res = minimize_Us(ex2)
        assert 0.04 <= res.x_upper <= 0.06
        assert res.x_upper == pytest.approx(0.05605843, abs=1e-6)
        assert res.value == pytest.approx(-0.00353907, abs=1e-7)

    def test_degenerate_zero_f(self):
        s = make_system(f=lambda y: 0.0 * y, g=lambda x: 1.0 * x, x_max=1.0,
                        f_prime=lambda y: 0.0 * y, g_prime=lambda x: 1.0 + 0.0 * x,
                        g_second=lambda x: 0.0 * x,
                        F=lambda y: 0.0 * y, G=lambda x: 0.5 * x * x)
        res = minimize_Us(s)
        assert res.x_upper == 0.0
        assert res.value == 0.0

    def test_minimum_is_global_on_grid(self, ex2):
        res = minimize_Us(ex2)
        xs = np.linspace(0, 1, 4001)
        assert res.value <= float(np.min(U_s(ex2, xs))) + 1e-10

    def test_minimizers_are_fixed_points(self, ex1, ex2):
        for s in (ex1, ex2):
            for x in minimize_Us(s).minimizers:
                assert abs(x - s.h(x)) <= 1e-8


class TestCoupledPotential:
    @pytest.mark.parametrize("fn", [U_c, grad_Uc])
    def test_profile_length_must_be_M(self, ex1, fn):
        with pytest.raises(ShapeError, match=r"^profile length \(5,\) does not match M=11$"):
            fn(ex1, CouplingSpec(9, 3), np.zeros(5))

    def test_constant_vector_identity(self, ex1):
        assert uc_on_constant_profiles(ex1, CouplingSpec(9, 3), np.random.default_rng(6), 30)

    def test_sum_lower_bound(self, ex1, ex2):
        rng = np.random.default_rng(8)
        for s in (ex1, ex2):
            assert uc_bounds_sum_of_us(s, CouplingSpec(9, 3), rng, 100)

    def test_gradient_vanishes_at_coupled_fixed_point(self, ex1):
        spec = CouplingSpec(12, 2)
        run = coupled_fixed_point(ex1, spec)
        g = grad_Uc(ex1, spec, run.profile.values)
        assert np.max(np.abs(g)) <= 1e-10

    def test_gradient_matches_fd(self, ex1):
        assert gradient_matches_fd(ex1, CouplingSpec(8, 3), np.random.default_rng(10), 20)

    def test_fd_hessian_respects_bound(self, ex1, ex2):
        rng = np.random.default_rng(12)
        for s in (ex1, ex2):
            assert hessian_within_K(s, CouplingSpec(6, 3), rng, 50)

    def test_descent_along_coupled_recursion(self, ex1):
        # a property of the recursion: coupled_step on the full chain, for
        # as many steps as coupled_fixed_point takes to converge
        spec = CouplingSpec(16, 4)
        prof = CoupledProfile(np.full(spec.M, ex1.x_max), spec)
        vals = [U_c(ex1, spec, prof.values)]
        for _ in range(coupled_fixed_point(ex1, spec).iters):
            prof = coupled_step(ex1, prof)
            vals.append(U_c(ex1, spec, prof.values))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_shift_inequality(self, ex1, ex2):
        spec = CouplingSpec(14, 3)
        i0 = (spec.M + 1) // 2 - 1
        rng = np.random.default_rng(14)
        for s in (ex1, ex2):
            for _ in range(50):
                prof = np.sort(rng.uniform(0, 1, spec.M))
                prof[i0:] = prof[i0]  # constant past the midpoint, maximal there
                shifted = np.concatenate(([0.0], prof[:-1]))
                lhs = U_c(s, spec, shifted) - U_c(s, spec, prof)
                rhs = float(U_s(s, 0.0)) - float(U_s(s, prof[i0]))
                assert lhs <= rhs + 1e-10


class TestConstants:
    def test_K_example1_closed_form(self, ex1):
        assert K_fg_bound(ex1) == pytest.approx(11.76, abs=1e-12)
        assert K_fg_bound(ex1) < 12

    def test_K_example2(self, ex2):
        assert K_fg_bound(ex2) == pytest.approx(9.0581191644604, abs=1e-10)
        assert K_fg_bound(ex2) < 10

    def test_K_linear_system(self):
        s = make_system(f=lambda y: 1.0 * y, g=lambda x: 1.0 * x, x_max=1.0,
                        f_prime=lambda y: 1.0 + 0.0 * y,
                        g_prime=lambda x: 1.0 + 0.0 * x,
                        g_second=lambda x: 0.0 * x,
                        F=lambda y: 0.5 * y * y, G=lambda x: 0.5 * x * x,
                        f_prime_sup=1.0, g_prime_sup=1.0, g_second_sup=0.0)
        assert K_fg_bound(s) == 2.0

    def test_K_needs_g_second(self, ex1):
        bare = make_system(f=ex1.f, g=ex1.g, x_max=1.0, F=ex1.F, G=ex1.G)
        with pytest.raises(UnsupportedOperationError,
                           match="^K_fg_bound needs g'' or a closed-form sup$"):
            K_fg_bound(bare)

    def test_grid_fallback_inflates(self, ex1):
        bare = make_system(f=ex1.f, g=ex1.g, x_max=1.0, f_prime=ex1.f_prime,
                           g_prime=ex1.g_prime, g_second=ex1.g_second,
                           F=ex1.F, G=ex1.G)
        k = K_fg_bound(bare)
        assert 11.76 <= k <= 11.76 * 1.05

    def test_gap_example1(self, ex1):
        d = energy_gap_delta(ex1)
        assert 0.008 <= d <= 0.012
        assert d == pytest.approx(EX1_GAP, abs=1e-12)

    def test_gap_example2(self, ex2):
        assert energy_gap_delta(ex2) == pytest.approx(0.002011000777, abs=1e-9)

    def test_gap_infinite_without_upper_fixed_points(self):
        s = make_system(f=lambda y: 0.0 * y, g=lambda x: 1.0 * x, x_max=1.0,
                        f_prime=lambda y: 0.0 * y, g_prime=lambda x: 1.0 + 0.0 * x,
                        g_second=lambda x: 0.0 * x,
                        F=lambda y: 0.0 * y, G=lambda x: 0.5 * x * x)
        assert energy_gap_delta(s) == math.inf
        assert w0_bound(s) == 0.0

    def test_w0_example1(self, ex1):
        assert w0_bound(ex1) == pytest.approx(588.582192888564, abs=1e-6)
        assert w0_bound(ex1) < 600

    def test_report_bundles(self, ex1):
        rep = potential_report(ex1)
        assert rep.x_upper_star == 0.0
        assert rep.delta_gap == pytest.approx(EX1_GAP, abs=1e-12)
        assert rep.K_fg == pytest.approx(11.76)
        assert rep.w0 == pytest.approx(588.582, abs=1e-3)


def test_report_on_tabulated_two_point_system():
    # F has no closed form here; the minimum is checked against U_s with F
    # integrated directly by scipy's adaptive quadrature
    s = cs_system(CsParams(TwoPointPrior(1.0, 0.1), 1e-4, 0.5))

    def direct(x):
        gx = float(s.g(x))
        return x * gx - float(s.G(x)) - quad(s.f, 0.0, gx, epsabs=1e-12, epsrel=1e-12)[0]

    rep = potential_report(s)
    assert abs(rep.min_value - direct(rep.x_upper_star)) <= 1e-8
    # at x_max the table is integrated over all of [0, y_max]
    assert abs(float(U_s(s, s.x_max)) - direct(s.x_max)) <= 1e-8


def sqrt_system():
    return make_system(f=np.sqrt, g=lambda x: 1.0 * x, x_max=1.0,
                       g_prime=lambda x: 1.0 + 0.0 * x,
                       F=lambda y: (2.0 / 3.0) * y**1.5, G=lambda x: 0.5 * x * x)


class TestFiniteWConditions:
    def test_example1_stability(self, ex1):
        assert check_finite_w_conditions(ex1) is FiniteWCondition.FINITE_BY_STABILITY

    def test_example2_descent_or_gap(self, ex2):
        assert check_finite_w_conditions(ex2) in (
            FiniteWCondition.FINITE_BY_STRICT_DESCENT, FiniteWCondition.FINITE_BY_GAP)

    def test_pathological_unknown(self, path):
        assert check_finite_w_conditions(path) is FiniteWCondition.UNKNOWN

    def test_minimizer_at_x_max_is_finite_by_gap(self):
        # h(x) = sqrt(x): fixed points 0 and 1, U_s = x^2/2 - (2/3) x^(3/2)
        # is minimal only at x_max = 1, so the descent window above the
        # minimizer is empty and no fixed point lies above it
        s = sqrt_system()
        assert minimize_Us(s).minimizers == (1.0,)
        assert check_finite_w_conditions(s) is FiniteWCondition.FINITE_BY_GAP


class TestSingleScan:
    """Each analysis reads its fixed points from the one scan minimize_Us
    runs, and the report agrees exactly with the standalone functions."""

    @pytest.fixture
    def scans(self, monkeypatch):
        import maxsat.potential as pot
        calls = []
        real = pot.fixed_points_of

        def counting(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(pot, "fixed_points_of", counting)
        return calls

    @pytest.mark.parametrize("fn", [
        potential_report, energy_gap_delta, check_finite_w_conditions, w0_bound,
    ])
    def test_one_scan_per_analysis(self, scans, ex2, fn):
        fn(ex2)
        assert len(scans) == 1

    def test_one_scan_through_the_isolation_test(self, scans):
        # h(x) = sqrt(x) has an empty descent window above its minimizer
        # x_max, so the classification reads the fixed points
        assert check_finite_w_conditions(sqrt_system()) is FiniteWCondition.FINITE_BY_GAP
        assert len(scans) == 1

    def test_minimize_keeps_fixed_points(self, ex2):
        res = minimize_Us(ex2)
        assert res.fixed_points == tuple(fixed_points_of(ex2.h, ex2.x_max))

    def test_report_equals_parts(self, ex2):
        rep = potential_report(ex2)
        assert rep.w0 == w0_bound(ex2)
        assert rep.delta_gap == energy_gap_delta(ex2)

    @pytest.mark.parametrize("build", [example1_system, example2_system])
    def test_minimize_equals_per_call_route(self, build):
        # U_s and h share one g on the grid; before, each evaluated its own
        s = build()
        assert minimize_Us(s) == minimize_potential(lambda x: U_s(s, x), s.h, s.x_max,
                                                    s.y_max)

    def test_one_g_per_grid_point(self, ex2):
        sizes = []

        def g(x):
            sizes.append(np.size(x))
            return ex2.g(x)

        minimize_Us(dataclasses.replace(ex2, g=g))
        assert sizes.count(ANALYSIS_GRID_N) == 1


class TestGoldenRefinement:
    """Only grid-local minima the grid resolves above the rounding level of
    U's terms are golden-refined; rounding noise on flat stretches is not,
    and the minimizer sets stay those of refining every grid-local
    minimum."""

    @pytest.fixture
    def golden_calls(self, monkeypatch):
        import maxsat.potential as pot
        calls = []
        real = pot.golden_min

        def counting(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(pot, "golden_min", counting)
        return calls

    def test_flat_gldpc_slice_skips_noise(self, golden_calls):
        # U is flat to ~1e-17 where g ~ 1: refining every near-minimal
        # grid-local minimum, noise included, hits the 256 cap here and
        # gives this same result
        psys = gldpc_system(GldpcParams(63, 5))
        res = minimize_us_at(psys, 0.3)
        assert len(golden_calls) <= 2
        assert res == MinimizeResult(
            x_lower=0.2999977400254311, x_upper=0.2999983440637072,
            value=-0.07063499680216825,
            minimizers=(0.2999977400254311, 0.2999983440637072),
            fixed_points=(0.0, 0.04556898344161849, 0.2999983440637072))
        # the pinned roots are fixed points to a few ulps, independently of
        # the root finder that produced them
        for x in res.fixed_points:
            assert abs(x - float(psys.h(x, 0.3))) <= 1e-15

    def test_resolved_basins_still_refined(self, golden_calls, ex2):
        res = minimize_Us(ex2)
        assert res.minimizers == (0.05605843561529403,)
        assert res.fixed_points[0] == 0.05605843561529403
        assert abs(0.05605843561529403 - ex2.h(0.05605843561529403)) <= 1e-15
        assert len(golden_calls) >= 1
        golden_calls.clear()
        ldpc8 = ldpc_system(
            DegreeDistribution.from_edge("0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"),
            DegreeDistribution.from_edge("0.6 x^4 + 0.4 x^12"))
        # the golden candidate is the larger minimizer (the flat-minimum
        # tie of the fixed point 0.9599847891147899 and its basin's search)
        assert minimize_us_at(ldpc8, 0.96).minimizers == (0.9599847891147899,
                                                          0.9599855473906065)
        assert abs(0.9599847891147899 - float(ldpc8.h(0.9599847891147899, 0.96))) <= 1e-15
        assert len(golden_calls) >= 1

    @pytest.mark.parametrize("n, t", [(31, 4), (63, 5)])
    def test_threshold_report_search_count(self, golden_calls, n, t):
        # a work count, not a clock: refining noise made 536 and 535
        threshold_report(gldpc_system(GldpcParams(n, t)))
        assert len(golden_calls) <= 100
