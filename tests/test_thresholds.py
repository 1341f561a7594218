import dataclasses
import re

import numpy as np
import pytest

import oracle
from maxsat import potential, recursion, thresholds
from maxsat.errors import (ConstructionError, DomainError, NonConvergenceError,
                           NumericError, ThresholdUndefinedError)
from maxsat.invariants import psi_matches_integral, q_matches_ebp_integral
from maxsat.recursion import (ANALYSIS_GRID_N, CouplingSpec, IterationConfig,
                              coupled_fixed_point, fixed_points_of,
                              modified_coupled_fixed_point)
from maxsat.systems import (
    DegreeDistribution,
    GldpcParams,
    gldpc_system,
    isi_system,
    ldgm_system,
    ldpc_system,
)
from maxsat.thresholds import (
    ParamSystem,
    Psi,
    Q_integral_check,
    Q_of_x,
    coupled_sweep,
    ebp_curve,
    eps_c,
    eps_of_x,
    eps_prime_of_x,
    eps_single,
    eps_stab,
    inverse_Psi_threshold,
    inverse_psi_table,
    map_exit_curve,
    map_jumps,
    maxwell_threshold,
    minimize_us_at,
    psi_exit,
    psi_integral,
    threshold_report,
    validate_param_system,
    x_bar_star,
    x_lower_star,
    xf_intervals,
)
from maxsat.thresholds import _CURVE_GRID_N, _JUMP_EPS_TOL, _JUMP_SIZE

EX8_LAMBDA = "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"
EX8_RHO = "0.6 x^4 + 0.4 x^12"
EX9_RHO = "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"

# frozen from the dual-route computations exercised below (envelope
# search vs fixed-point-potential root, plus a plain-iteration oracle
# for the single-system threshold)
EX8_EPS_SINGLE = 0.6146858054
EX8_EPS_C = 0.6219294611
EX9_JUMP = 0.5074419


@pytest.fixture(scope="module")
def ldpc8():
    return ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                       DegreeDistribution.from_edge(EX8_RHO))


@pytest.fixture(scope="module")
def ldgm9():
    return ldgm_system("x^6", DegreeDistribution.from_edge(EX9_RHO))


@pytest.fixture(scope="module")
def gldpc31():
    return gldpc_system(GldpcParams(31, 4))


@pytest.fixture(scope="module")
def gldpc63():
    return gldpc_system(GldpcParams(63, 5))


@pytest.fixture(scope="module")
def isi36():
    return isi_system("x^3", "x^6")


def plain_iteration_dies(psys, e, iters=200000):
    x = psys.x_max
    for _ in range(iters):
        xn = float(psys.h(x, e))
        if xn < 1e-10:
            return True
        if abs(xn - x) < 1e-14:
            return xn < 1e-8
        x = xn
    return x < 1e-8


class TestEnvelope:
    def test_psi_zero_below_threshold(self, ldpc8):
        for e in (0.0, 0.3, 0.55, 0.61):
            assert Psi(ldpc8, e) >= -1e-12

    def test_psi_non_increasing(self, ldpc8, gldpc31):
        for psys in (ldpc8, gldpc31):
            es = np.linspace(0.0, 1.0, 25)
            vals = [Psi(psys, float(e)) for e in es]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_psi_lipschitz(self, ldpc8):
        xs = np.linspace(0.0, 1.0, 2001)
        rng = np.random.default_rng(17)
        for _ in range(20):
            e1, e2 = rng.uniform(0.0, 1.0, 2)
            beta = float(np.max(np.abs(ldpc8.u_eps(xs, max(e1, e2)))))
            assert abs(Psi(ldpc8, e1) - Psi(ldpc8, e2)) <= beta * abs(e1 - e2) + 1e-12

    def test_envelope_slope_formula_at_minimizer(self, ldpc8):
        # at every computed largest minimizer, the eps-partial reduces to
        # -G_eps - F_eps(g(.)) because the x-slope term vanishes
        for e in (0.64, 0.66, 0.7):
            xb = x_bar_star(ldpc8, e)
            reduced = -float(ldpc8.G_eps(xb, e) + ldpc8.F_eps(ldpc8.g(xb, e), e))
            assert psi_exit(ldpc8, e) == pytest.approx(reduced, abs=1e-9)

    def test_x_bar_positive_above_threshold(self, ldpc8):
        assert x_bar_star(ldpc8, 0.64) > 0.1
        assert x_lower_star(ldpc8, 0.61) == 0.0

    @pytest.mark.parametrize("entry", ["minimize_us_at", "x_bar_star", "minimize_potential"])
    @pytest.mark.parametrize("grid_n", [-1, 0, 1])
    def test_grid_below_two_points_rejected_before_any_call(self, ldpc8, entry, grid_n):
        # a 1-point grid is [0], whose last point is not x_max. Every
        # evaluation of U_s or h on a grid, u and h included, calls F or f
        calls = []
        psys = dataclasses.replace(ldpc8, **{
            name: lambda x, e, name=name, real=getattr(ldpc8, name):
                calls.append(name) or real(x, e) for name in ("f", "F")})
        run = {
            "minimize_us_at": lambda: minimize_us_at(psys, 0.65, grid_n),
            "x_bar_star": lambda: x_bar_star(psys, 0.65, grid_n),
            "minimize_potential": lambda: thresholds.minimize_potential(
                lambda x: psys.u(x, 0.65), lambda x: psys.h(x, 0.65), psys.x_max, 1.0, grid_n),
        }[entry]
        with pytest.raises(DomainError, match="grid_n must be >= 2"):
            run()
        assert calls == []


@pytest.mark.parametrize("name", ["f", "g"])
def test_validate_rejects_constant_map(gldpc31, name):
    # a map must return the grid's shape; only partials may be floats
    bad = dataclasses.replace(gldpc31, **{name: lambda x, e: 0.5})
    with pytest.raises(ConstructionError, match=f"{name} returns shape"):
        validate_param_system(bad)


@pytest.mark.parametrize("name,match", [
    ("f", "f is not finite"), ("g", "g is not finite"), ("F_eps", "F_eps is not finite"),
    ("G_eps", "G_eps is not finite"), ("g_x", "g' is not positive"),
    ("g_eps", "h_eps is not finite"),
], ids=["f", "g", "F_eps", "G_eps", "g_x", "g_eps"])
def test_validate_rejects_nan_samples(ldpc8, name, match):
    # NaN on half the grid: min() of an array holding NaN is NaN, which
    # passes every `< threshold` test unless the test is written to fail it
    good = getattr(ldpc8, name)
    bad = dataclasses.replace(
        ldpc8, **{name: lambda x, e: np.where(x > 0.5, np.nan, good(x, e))})
    with pytest.raises(ConstructionError, match=match):
        validate_param_system(bad)


@pytest.mark.parametrize("name,wrong,match", [
    ("F", lambda F: lambda x, e: 1.5 * F(x, e), "F' vs f"),
    ("G", lambda G: lambda x, e: G(x, e) + 0.1 * x * x, "G' vs g"),
], ids=["F", "G"])
def test_validate_rejects_wrong_antiderivative(ldpc8, name, wrong, match):
    # either one alone moves eps_c from 0.62193 to 0.4146 (F) or 0.2318 (G)
    bad = dataclasses.replace(ldpc8, **{name: wrong(getattr(ldpc8, name))})
    with pytest.raises(ConstructionError, match=match):
        validate_param_system(bad)


def linear_family(**planted):
    """f = eps x and g = x with exact antiderivatives and partials, which
    validate_param_system accepts, with the planted callables in place."""
    fields = dict(
        f=lambda x, e: e * x, g=lambda x, e: 1.0 * x,
        f_x=lambda x, e: e, g_x=lambda x, e: 1.0, g_xx=lambda x, e: 0.0,
        f_eps=lambda x, e: x, g_eps=lambda x, e: 0.0,
        F=lambda x, e: 0.5 * e * x * x, G=lambda x, e: 0.5 * x * x,
        F_eps=lambda x, e: 0.5 * x * x, G_eps=lambda x, e: 0.0, name="linear")
    return ParamSystem(**{**fields, **planted})


# g dips on (1/6, 1/2) and rises to its maximum g(1) = 1, so it stays in
# [0, g(x_max)]; f falls in x and stays in [0, x_max]
G_DIPS = ("g is decreasing somewhere on [0, x_max]",
          dict(g=lambda x, e: x * (1.0 - 2.0 * x) ** 2,
               G=lambda x, e: 0.5 * x * x - 4.0 / 3.0 * x ** 3 + x ** 4))
F_FALLS = ("f is decreasing somewhere on [0, y_max]",
           dict(f=lambda x, e: e * (1.0 - x), F=lambda x, e: e * (x - 0.5 * x * x)))


@pytest.mark.parametrize("message,planted", [
    G_DIPS, F_FALLS,
    ("g decreasing in eps", dict(g=lambda x, e: (1.0 - 0.5 * e) * x,
                                 G=lambda x, e: (0.5 - 0.25 * e) * x * x)),
    ("f decreasing in eps", dict(f=lambda x, e: (1.0 - e) * x,
                                 F=lambda x, e: 0.5 * (1.0 - e) * x * x)),
    ("F_eps or G_eps negative", dict(G_eps=lambda x, e: -0.1)),
    ("F_eps or G_eps decreasing in x", dict(G_eps=lambda x, e: 1.0 - x)),
], ids=["g_x", "f_x", "g_eps", "f_eps", "negative", "decreasing"])
def test_validate_rejects_each_monotonicity_defect(message, planted):
    # each planted family breaks one check and keeps every other, so the
    # error carries that one message (the eps-partials are not checked
    # against f and g, so they stay as they were)
    validate_param_system(linear_family())
    with pytest.raises(ConstructionError, match=rf"^family linear: {re.escape(message)}$"):
        validate_param_system(linear_family(**planted))


def _nan_where(fn):
    """fn with NaN on the middle of [0, 1], so every lane's grid, and
    x_max, where validate_system reads y_max, keep finite values too."""
    return lambda x, e: np.where(np.abs(x - 0.5) < 0.25, np.nan, fn(x, e))


@pytest.mark.parametrize("message,planted", [
    ("f is not finite on its grid", dict(f=_nan_where(lambda x, e: e * x))),
    ("g is not finite on its grid", dict(g=_nan_where(lambda x, e: 1.0 * x))),
    F_FALLS, G_DIPS,
    ("g' is not positive on the interior of [0, x_max]", dict(g_x=lambda x, e: 0.0)),
    # f = 1.5 eps x with its partials: the slices past eps = 2/3 leave
    # [0, x_max], and so did coupled runs of a family admitted without it
    ("f does not map [0, y_max] into [0, x_max]",
     dict(f=lambda x, e: 1.5 * e * x, f_x=lambda x, e: 1.5 * e, f_eps=lambda x, e: 1.5 * x,
          F=lambda x, e: 0.75 * e * x * x, F_eps=lambda x, e: 0.75 * x * x)),
    # non-decreasing, but g(0) < 0
    ("g does not map [0, x_max] into [0, y_max]", dict(g=lambda x, e: x - 0.1,
                                                       G=lambda x, e: 0.5 * x * x - 0.1 * x)),
    ("F is not finite on its grid; F' vs f mismatch: max rel err nan",
     dict(F=_nan_where(lambda x, e: 0.5 * e * x * x))),
    ("G is not finite on its grid; G' vs g mismatch: max rel err nan",
     dict(G=_nan_where(lambda x, e: 0.5 * x * x))),
    ("F' vs f mismatch: max rel err 5.00e-01", dict(F=lambda x, e: 0.75 * e * x * x)),
    ("G' vs g mismatch: max rel err 2.00e-01", dict(G=lambda x, e: 0.6 * x * x)),
], ids=["f-nan", "g-nan", "f-decreasing", "g-decreasing", "g_x",
        "f-range", "g-range", "F-nan", "G-nan", "F", "G"])
def test_both_validators_share_each_slice_check(message, planted):
    # the planted defect shows on the eps = 1 lane of the family and on
    # its slice there, and both validators report it, and it alone, in
    # the same words (test_validate_rejects_constant_map and
    # test_make_system_fails_closed reach the shape checks of each)
    family = linear_family(**planted)
    with pytest.raises(ConstructionError, match=rf"^family linear: {re.escape(message)}$"):
        validate_param_system(family)
    with pytest.raises(ConstructionError,
                       match=rf"^system linear@eps=1: {re.escape(message)}$"):
        family.at_eps(1.0, validate=True)


class TestSingleAndStability:
    def test_eps_single_value_and_oracle(self, ldpc8):
        es = eps_single(ldpc8)
        assert es == pytest.approx(EX8_EPS_SINGLE, abs=1e-7)
        assert plain_iteration_dies(ldpc8, es - 1e-3)
        assert not plain_iteration_dies(ldpc8, es + 1e-3)

    def test_eps_single_below_eps_c(self, ldpc8):
        assert eps_single(ldpc8) < eps_c(ldpc8)

    def test_eps_single_maxes_out_for_zero_f(self):
        psys = gldpc_system(GldpcParams(31, 4))
        frozen = dataclasses.replace(
            psys,
            f=lambda x, e: 0.0 * x + 0.0 * e,
            f_x=lambda x, e: 0.0 * x + 0.0 * e,
            f_eps=lambda x, e: 0.0 * x + 0.0 * e,
            F=lambda x, e: 0.0 * x + 0.0 * e,
            F_eps=lambda x, e: 0.0 * x + 0.0 * e)
        assert eps_single(frozen) == frozen.eps_max

    @pytest.mark.parametrize("family", ["ldgm9", "isi36", "ldpc8", "gldpc31"])
    def test_eps_single_equals_unpruned_minimum(self, request, family):
        # eps_single is the minimum of eps_of_x over the fixed-point
        # table's points (the analysis grid with its first point at 1e-9)
        # where h(x; eps_max) >= x, bit for bit
        psys = request.getfixturevalue(family)
        xs = np.linspace(0.0, psys.x_max, ANALYSIS_GRID_N)
        xs[0] = 1e-9
        xs = xs[np.asarray(psys.h(xs, psys.eps_max)) >= xs]
        ref = float(np.min(eps_of_x(psys, xs)))
        if psys.zero_is_fixed_point:
            ref = min(ref, eps_stab(psys))
        assert eps_single(psys) == ref

    def test_threshold_report_bisects_eps_once(self, monkeypatch):
        # eps_single and the Maxwell scan read one vector Newton solve, the
        # fixed-point table's; Brent's refinements of Q's roots solve floats
        psys = isi_system("x^3", "x^6")
        real, sizes = thresholds._solve_eps, []

        def counted(p, xs, hmax, g=None):
            if not isinstance(xs, float):
                sizes.append(len(xs))
            return real(p, xs, hmax, g)

        monkeypatch.setattr(thresholds, "_solve_eps", counted)
        rep = threshold_report(psys)
        assert rep.eps_single is not None and rep.eps_maxwell is not None
        assert len(sizes) == 1

    @pytest.mark.parametrize("reader", [
        xf_intervals, inverse_psi_table,
        lambda psys: ebp_curve(psys, np.linspace(0.0, 1.0, 101))])
    @pytest.mark.parametrize("build", [
        lambda: ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                            DegreeDistribution.from_edge(EX8_RHO)),
        lambda: ldgm_system("x^6", DegreeDistribution.from_edge(EX9_RHO))],
        ids=["ldpc8", "ldgm9"])
    def test_domain_readers_tabulate_no_eps(self, reader, build):
        # the exit-curve and inverse-envelope paths need only the domain:
        # h(x; 0) and h(x; eps_max) in the table, not its eps and Q columns
        psys = build()
        reader(psys)
        assert "_fp_curve" not in vars(psys)

    def test_eps_stab_closed_form(self, ldpc8):
        # oracle: eps lam'(0) rho'(1) = 1 with lam'(0) = 0.2, rho'(1) = 7.2
        assert eps_stab(ldpc8) == pytest.approx(1.0 / (0.2 * 7.2), abs=1e-9)

    def test_eps_stab_is_eps_max_for_zero_slope_at_zero(self, gldpc31):
        assert eps_stab(gldpc31) == 1.0

    def test_eps_stab_undefined_for_ldgm(self, ldgm9):
        with pytest.raises(ThresholdUndefinedError):
            eps_stab(ldgm9)

    def test_unstable_zero_at_eps_0(self):
        # h = (2 + eps) x: 0 is a fixed point, unstable already at eps = 0
        psys = linear_family(f=lambda x, e: (2.0 + e) * x, f_x=lambda x, e: 2.0 + e,
                             F=lambda x, e: (1.0 + 0.5 * e) * x * x)
        with pytest.raises(ThresholdUndefinedError, match="^0 unstable already at eps = 0$"):
            eps_stab(psys)

    def test_potential_negative_at_eps_0(self, ldpc8):
        # ldpc8 on eps in [0.9, 1], past its Maxwell threshold 0.6219
        late = dataclasses.replace(ldpc8, **{
            name: (lambda fn: lambda x, e: fn(x, 0.9 + 0.1 * e))(getattr(ldpc8, name))
            for name in ("f", "f_x", "F")})
        with pytest.raises(ThresholdUndefinedError,
                           match="^potential already negative at eps = 0$"):
            eps_c(late)

    def test_no_degree_two_bits_means_stab_one(self):
        psys = ldpc_system("x^3", "x^3")  # lam'(0) = 0
        assert eps_stab(psys) == 1.0


class TestCoupledThreshold:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf])
    @pytest.mark.parametrize("fn", [eps_c, threshold_report], ids=["eps_c", "report"])
    def test_tol_checked_before_any_search(self, gldpc31, fn, tol):
        # a NaN tol used to end in an IndexError from minimize_potential
        # and an infinite one to return 0.5; the family is not evaluated
        calls = []

        def f(y, e):
            calls.append(None)
            return gldpc31.f(y, e)

        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            fn(dataclasses.replace(gldpc31, f=f), tol)
        assert calls == []

    def test_dual_route_agreement(self, ldpc8):
        ec = eps_c(ldpc8)
        mx = maxwell_threshold(ldpc8)
        assert ec == pytest.approx(EX8_EPS_C, abs=1e-6)
        assert abs(ec - mx) <= 1e-6

    def test_gldpc_dual_route(self, gldpc31):
        ec = eps_c(gldpc31)
        mx = maxwell_threshold(gldpc31)
        assert abs(ec - mx) <= 1e-6
        assert ec < 1.0
        # the unique trial-entropy root carries the threshold
        xs = np.linspace(1e-6, 1.0, 20001)
        p = np.asarray(gldpc31.trial_entropy(xs))
        i = int(np.where(p[:-1] * p[1:] < 0)[0][0])
        lo, hi = float(xs[i]), float(xs[i + 1])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(gldpc31.trial_entropy(mid)) * float(gldpc31.trial_entropy(lo)) <= 0:
                hi = mid
            else:
                lo = mid
        xstar = 0.5 * (lo + hi)
        assert ec == pytest.approx(float(eps_of_x(gldpc31, xstar)), abs=1e-6)

    def test_undefined_for_ldgm(self, ldgm9):
        with pytest.raises(ThresholdUndefinedError):
            eps_c(ldgm9)

    def test_example1_family_threshold_above_097(self):
        psys = ldpc_system("x^3", "x^3")
        assert Psi(psys, 0.97) >= -1e-12  # minimum still at zero at 0.97
        assert eps_c(psys) >= 0.97

    def test_rate_zero_family_threshold_caps_at_eps_max(self):
        # zero design rate: the potential at (1, 1) vanishes, so both
        # thresholds ride up to the top of the parameter range instead of a
        # strictly interior root
        psys = ldpc_system("x^3", "x^3")
        assert eps_c(psys) == 1.0
        assert maxwell_threshold(psys) == pytest.approx(1.0, abs=1e-9)

    def test_eps_c_deterministic(self, ldpc8):
        assert eps_c(ldpc8) == eps_c(ldpc8)


class TestFixedPointCurve:
    def test_eps_of_x_solve_vs_closed_formula(self, ldpc8):
        # ldpc's eps(x) = x / lam(1 - rho(1 - x)), with ldpc8's edge
        # polynomials
        lam = DegreeDistribution.from_edge(EX8_LAMBDA).edge
        rho = DegreeDistribution.from_edge(EX8_RHO).edge
        xs = np.linspace(0.02, 1.0, 100)
        closed = xs / lam(1.0 - rho(1.0 - xs))
        solved = np.asarray(eps_of_x(ldpc8, xs))
        # measured 2^-53, half an ulp of eps near 1; bisection to 1e-12
        # gave 4.55e-13
        assert np.max(np.abs(closed - solved)) <= 2.0 ** -53

    @pytest.mark.parametrize("which", ["ldpc8", "ldgm9", "isi36", "gldpc31", "gldpc63"])
    def test_eps_max_root_ends_at_once(self, request, which):
        # h(1; eps_max) = 1 on every shipped family, so eps(1) = eps_max,
        # returned before the solve's first round (each round evaluates
        # f_eps once) in the float lane and in an array's lanes alike;
        # bisected, it took 34 rounds on ldgm9 to 1.0000000000000009 and
        # 12 on isi to 0.9999999999999999. No entry of the fixed-point
        # table leaves [0, eps_max]
        psys = request.getfixturevalue(which)
        rounds = []

        def f_eps(y, e):
            rounds.append(e)
            return psys.f_eps(y, e)

        counted = dataclasses.replace(psys, f_eps=f_eps)
        assert psys.h(1.0, psys.eps_max) == 1.0
        assert eps_of_x(counted, 1.0) == psys.eps_max
        assert eps_of_x(counted, np.array([1.0]))[0] == psys.eps_max
        assert rounds == []
        xs = psys._fp_grid[0][-40:]
        lanes = eps_of_x(counted, xs)
        assert lanes[-1] == psys.eps_max
        assert all(eps_of_x(psys, x).hex() == e.hex() for x, e in zip(xs.tolist(), lanes.tolist()))
        eps = psys._fp_curve[0]
        assert eps[-1] == psys.eps_max
        assert np.nanmin(eps) >= 0.0 and np.nanmax(eps) <= psys.eps_max

    def test_eps_of_x_shapes_and_scalar_lanes(self, ldpc8, ldgm9):
        xs = np.linspace(0.05, 1.0, 40)
        for x in (0.5, np.array(0.5)):
            assert type(eps_of_x(ldpc8, x)) is float
        assert eps_of_x(ldpc8, xs).shape == xs.shape
        # a scalar is bit-equal to its lane, from ldpc8's closed form and
        # from ldgm9's Newton solve alike
        lanes = eps_of_x(ldpc8, xs)
        assert all(eps_of_x(ldpc8, float(x)) == e for x, e in zip(xs, lanes))
        xs9 = np.linspace(0.1, 1.0, 40)
        lanes9 = eps_of_x(ldgm9, xs9)
        assert all(eps_of_x(ldgm9, float(x)) == e for x, e in zip(xs9, lanes9))

    def test_eps_of_x_outside_domain(self, gldpc31):
        for x in (0.005, np.array([0.005, 0.5])):  # below the fixed-point domain
            with pytest.raises(DomainError, match="^x not in the fixed-point domain"):
                eps_of_x(gldpc31, x)

    @pytest.mark.parametrize("x", [0.0, 1.5])
    def test_eps_of_x_needs_x_in_the_domain(self, ldpc8, x):
        with pytest.raises(DomainError, match=r"^eps_of_x needs x in \(0, x_max\]$"):
            eps_of_x(ldpc8, x)

    def test_eps_prime_needs_positive_h_eps(self, ldpc8):
        flat = dataclasses.replace(ldpc8, f_eps=lambda x, e: 0.0)
        with pytest.raises(DomainError,
                           match="^h_eps <= 0: the family is not proper at this point$"):
            eps_prime_of_x(flat, 0.5)

    def test_eps_of_x_identity_on_minimizers(self, ldpc8):
        for e in (0.64, 0.68, 0.75):
            xb = x_bar_star(ldpc8, e)
            assert eps_of_x(ldpc8, xb) == pytest.approx(e, abs=1e-8)

    def test_eps_prime_matches_fd(self, ldpc8, gldpc31):
        for psys, xs in ((ldpc8, (0.2, 0.4, 0.8)), (gldpc31, (0.3, 0.6, 0.9))):
            for x in xs:
                h = 1e-6
                fd = (eps_of_x(psys, x + h) - eps_of_x(psys, x - h)) / (2 * h)
                assert eps_prime_of_x(psys, x) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_gldpc_eps_at_one(self, gldpc31):
        # eps(1) = 1/g(1) = 1 because the transfer saturates at 1
        assert eps_of_x(gldpc31, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_eps_prime_gldpc_closed_form(self, gldpc31):
        # eps(x) = x/g(x) differentiates to (g - x g')/g^2
        for x in (0.3, 0.5, 0.8):
            g = float(gldpc31.g(x, 0.0))
            gp = float(gldpc31.g_x(x, 0.0))
            assert eps_prime_of_x(gldpc31, x) == pytest.approx((g - x * gp) / g**2, rel=1e-10)

    def test_eps_prime_vanishes_at_spinode(self, ldpc8):
        from maxsat.numerics import golden_min
        # the single-system threshold sits at the minimum of eps(x); the
        # implicit derivative must vanish there
        xs = np.linspace(1e-3, 1.0, 10001)
        ex = np.asarray(eps_of_x(ldpc8, xs))
        i = int(np.argmin(ex))
        x_sp = golden_min(lambda x: eps_of_x(ldpc8, x),
                          float(xs[i - 1]), float(xs[i + 1]), 1e-12)
        assert abs(eps_prime_of_x(ldpc8, x_sp)) <= 1e-6

    def test_q_consistency_with_envelope(self, ldpc8):
        for e in (0.64, 0.7):
            xb = x_bar_star(ldpc8, e)
            assert float(Q_of_x(ldpc8, xb)) == pytest.approx(Psi(ldpc8, e), abs=1e-9)

    def test_q_integral_degenerate_interval(self, ldpc8):
        d, i = Q_integral_check(ldpc8, 0.4, 0.4)
        assert d == 0.0 and i == 0.0

    def test_q_integral_rejects_reversed_interval(self, ldpc8):
        with pytest.raises(DomainError, match="^need x1 <= x2$"):
            Q_integral_check(ldpc8, 0.5, 0.4)

    def test_q_integral_rejects_interval_outside_domain(self, gldpc31):
        with pytest.raises(DomainError):
            Q_integral_check(gldpc31, 0.001, 0.5)

    @pytest.mark.parametrize("which,intervals", [
        ("ldpc8", [(0.25, 0.55), (0.6, 0.9)]),
        ("gldpc31", [(0.3, 0.8), (0.5, 0.95)]),
        ("ldgm9", [(0.3, 0.6), (0.65, 0.9)]),
        ("isi36", [(0.3, 0.6), (0.65, 0.9)]),
    ])
    def test_q_integral_matches_direct(self, which, intervals, request):
        assert q_matches_ebp_integral([(request.getfixturevalue(which), intervals)])

    def test_q_integral_check_catches_dropped_F_eps(self, ldpc8):
        # Q_of_x reads F and G while the integral reads only their
        # eps-partials, so a defect in F_eps shows in the integral alone
        planted = dataclasses.replace(ldpc8, F_eps=lambda y, e: 0.0)
        direct, integral = Q_integral_check(planted, 0.25, 0.55)
        assert direct == Q_integral_check(ldpc8, 0.25, 0.55)[0]
        assert abs(direct - integral) > 1e-3
        assert not q_matches_ebp_integral([(planted, [(0.25, 0.55)])])

    def test_ebp_curve_samples_satisfy_fixed_point(self, ldpc8):
        crv = ebp_curve(ldpc8, np.linspace(0.01, 1.0, 64))
        for x, e, q in zip(crv.xs, crv.eps, crv.q):
            assert float(ldpc8.h(float(x), float(e))) == pytest.approx(float(x), abs=1e-10)
            assert float(ldpc8.u(float(x), float(e))) == pytest.approx(float(q), abs=1e-12)

    def test_xf_intervals_touch_zero_flag(self, ldpc8, gldpc31):
        _, touches = xf_intervals(ldpc8)
        assert touches
        _, touches = xf_intervals(gldpc31)
        assert not touches


class TestMaxwell:
    def test_stability_boundary_included(self, ldpc8):
        # the boundary candidate eps(0) = eps_stab exceeds the interior
        # root here, so the minimum is the interior one
        assert maxwell_threshold(ldpc8) < eps_stab(ldpc8)

    def test_undefined_when_domain_reaches_non_fixed_zero(self, ldgm9):
        # the boundary candidate at x -> 0 is eps_stab, which needs h(0) = 0
        with pytest.raises(ThresholdUndefinedError, match="0 is not a fixed point"):
            maxwell_threshold(ldgm9)

    def test_no_root_of_a_negative_Q(self, gldpc31):
        # G shifted up by 1 puts Q = x g / 2 - G below 0 on the whole
        # fixed-point domain, which does not reach 0 on gldpc
        shifted = dataclasses.replace(gldpc31, G=lambda x, e: gldpc31.G(x, e) + 1.0)
        with pytest.raises(ThresholdUndefinedError, match="^fixed-point potential has no root$"):
            maxwell_threshold(shifted)

    def test_isi_dual_route(self, isi36):
        assert abs(eps_c(isi36) - maxwell_threshold(isi36)) <= 1e-6


class TestEnvelopeIntegral:
    def test_matches_envelope_on_grid(self, ldpc8):
        assert psi_matches_integral(ldpc8, (0.63, 0.65, 0.68))

    # every point but ldgm9 at 0.5 lies past a minimizer jump, where the
    # slope steps inside one 1e-3 cell of the curve
    @pytest.mark.parametrize("which, eps_values", [
        ("ldgm9", (0.5, 0.9)),
        ("isi36", (0.65, 0.7, 0.8)),
        ("gldpc31", (0.5,)),
        ("gldpc63", (0.4,)),
    ])
    def test_matches_envelope_across_jumps(self, request, which, eps_values):
        assert psi_matches_integral(request.getfixturevalue(which), eps_values)

    def test_psi_exit_ldpc_formula(self, ldpc8):
        # for this family the envelope slope is -L(1-rho(1-x*))/L'(1)
        lam = DegreeDistribution.from_edge(EX8_LAMBDA)
        for e in (0.66, 0.72):
            xb = x_bar_star(ldpc8, e)
            g = float(ldpc8.g(xb, e))
            assert psi_exit(ldpc8, e) == pytest.approx(
                -float(lam.node(g)) / lam.lp1, abs=1e-10)

    def test_zero_below_threshold(self, ldpc8):
        assert psi_exit(ldpc8, 0.3) == 0.0

    def test_integral_to_zero_is_zero(self, ldpc8):
        assert psi_integral(ldpc8, 0.0) == 0.0

    def test_two_jumps_in_one_cell_raise(self, ldpc8, monkeypatch):
        # the slope between two jumps of one 1e-3 cell is not on the curve
        import maxsat.thresholds as thr
        real = thr.map_jumps

        def two_jumps(psys, crv):
            jumps = real(psys, crv)
            return jumps[0], jumps[0] + 1e-5

        monkeypatch.setattr(thr, "map_jumps", two_jumps)
        with pytest.raises(NumericError, match="^two jumps of the largest minimizer in one cell"):
            psi_integral(ldpc8, 0.63)


class TestExitCurves:
    def test_ldgm_jump_location(self, ldgm9):
        # psi_integral's jump scan: eps steps of at most 1e-3
        jumps = map_jumps(ldgm9, map_exit_curve(ldgm9, np.linspace(0.4, 0.6, 201)))
        assert len(jumps) == 1
        assert jumps[0] == pytest.approx(EX9_JUMP, abs=2e-4)
        jumps = map_jumps(ldgm9, map_exit_curve(ldgm9, np.linspace(0.45, 0.56, 23)))
        assert len(jumps) == 1
        assert jumps[0] == pytest.approx(EX9_JUMP, abs=1e-4)

    def test_map_and_ebp_coincide_on_stable_branch(self, ldpc8):
        for e in (0.66, 0.7):
            xb = x_bar_star(ldpc8, e)
            crv = ebp_curve(ldpc8, np.array([xb]))
            assert crv.eps[0] == pytest.approx(e, abs=1e-8)
            assert crv.exit_values[0] == pytest.approx(
                float(ldpc8.exit_value(xb, e)), abs=1e-12)

    @pytest.mark.parametrize("which", ["ldgm9", "isi36"])
    def test_exit_value_fallback_is_minus_u_eps_at_fixed_points(self, request, which):
        # without exit_fn, exit_value is G_eps + F_eps(g): at a fixed point
        # the (x - f(g)) g_eps term of u_eps vanishes, so it is -u_eps.
        # ldgm9 has a constant F_eps, isi a constant G_eps
        psys = dataclasses.replace(request.getfixturevalue(which), exit_fn=None)
        for e in (0.55, 0.8):
            xs = fixed_points_of(lambda x: psys.h(x, e), psys.x_max)
            assert xs
            for x in xs:
                assert float(psys.exit_value(x, e)) == pytest.approx(
                    -float(psys.u_eps(x, e)), abs=1e-13)
        es = np.linspace(0.3, 0.9, 7)
        crv = map_exit_curve(psys, es)
        assert crv.exit_values.tolist() == [float(psys.exit_value(x, float(e)))
                                            for x, e in zip(crv.x_stars, es)]

    def test_ebp_area_balance_at_threshold(self, ldpc8):
        # tied minimizers at the coupled threshold bracket equal potential,
        # so the parametric area between them integrates to ~0
        ec = eps_c(ldpc8)
        x2 = x_bar_star(ldpc8, ec + 1e-6)
        direct, integral = Q_integral_check(ldpc8, 1e-4, x2)
        assert abs(integral) <= 1e-4
        assert abs(direct) <= 1e-4


def one_path_refine_jumps(psys, es, xbars):
    """The jump rule before the bracket test, kept to compare against: each
    cell whose ends differ by more than 0.01 is bisected down to 1e-6 in
    eps, every midpoint compared with the cell's first value."""
    jumps = []
    for i in range(len(es) - 1):
        if abs(xbars[i + 1] - xbars[i]) > _JUMP_SIZE:
            a, b = float(es[i]), float(es[i + 1])
            x0 = xa = xbars[i]
            xb = xbars[i + 1]
            while b - a > _JUMP_EPS_TOL:
                m = 0.5 * (a + b)
                xm = x_bar_star(psys, m, _CURVE_GRID_N)
                if abs(xm - x0) > _JUMP_SIZE:
                    b, xb = m, xm
                else:
                    a, xa = m, xm
            if abs(xb - xa) > _JUMP_SIZE:
                jumps.append(0.5 * (a + b))
    return jumps


FAMILIES = ["ldpc8", "ldgm9", "isi36", "gldpc31", "gldpc63"]


class TestMapJumps:
    """map_jumps bisects a cell only while its ends differ by more than
    the jump size, which is sound because the largest minimizer does not
    decrease in eps."""

    @pytest.fixture
    def minimizations(self, monkeypatch):
        import maxsat.thresholds as thr
        calls = []
        real = thr.minimize_us_at

        def counting(psys, eps, *a, **k):
            calls.append(eps)
            return real(psys, eps, *a, **k)

        monkeypatch.setattr(thr, "minimize_us_at", counting)
        return calls

    @pytest.mark.parametrize("which", FAMILIES)
    def test_largest_minimizer_non_decreasing(self, request, which):
        # the rule's premise, on the minimizer grid the rule bisects with
        psys = request.getfixturevalue(which)
        xs = [x_bar_star(psys, e, _CURVE_GRID_N) for e in np.linspace(0.0, psys.eps_max, 401)]
        assert np.all(np.diff(xs) >= 0.0)

    @pytest.mark.parametrize("which, jumps, searched", [
        ("ldpc8", [0.6219, 0.7230], 70),
        ("ldgm9", [0.5074], 80),
        ("isi36", [0.6387], 80),
        ("gldpc31", [0.2555], 80),
        ("gldpc63", [0.1576], 80),
    ])
    def test_default_window(self, minimizations, request, which, jumps, searched):
        # the CLI's default exit-curves window; the old rule spent 518, 14,
        # 490, 462 and 308 minimizations on its jumps, and without the
        # endpoint rule x_max tied the minimum at 1, 0, 2, 38 and 61 eps,
        # each a phantom jump. The curve's own points are one batch, which
        # does not call minimize_us_at, so every call counted is the jump
        # search's
        psys = request.getfixturevalue(which)
        es = np.linspace(0.0, psys.eps_max, 101)
        crv = map_exit_curve(psys, es)
        assert not minimizations
        assert map_jumps(psys, crv) == pytest.approx(jumps, abs=1e-4)
        assert len(minimizations) <= searched
        for x, e in zip(crv.x_stars, es):
            assert x < psys.x_max or abs(float(psys.h(x, e)) - x) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_jumps_equal_parent_rule(self, request, seed):
        # the one-path rule's jumps, bit for bit, and any other jump it
        # lost (seed 0 holds ldpc8's jump near 0.7230, which it misses) is
        # one: the largest minimizers 1e-6 apart across it differ by over 0.01
        rng = np.random.default_rng(7000 + seed)
        psys = request.getfixturevalue(FAMILIES[seed % len(FAMILIES)])
        lo = rng.uniform(0.0, 0.8 * psys.eps_max)
        hi = min(lo + rng.uniform(0.1, 0.5) * psys.eps_max, psys.eps_max)
        crv = map_exit_curve(psys, np.linspace(lo, hi, int(rng.integers(5, 31))))
        jumps = map_jumps(psys, crv)
        assert set(one_path_refine_jumps(psys, crv.eps, crv.x_stars)) <= set(jumps)
        for j in jumps:
            step = 0.5 * _JUMP_EPS_TOL
            rise = (x_bar_star(psys, j + step, _CURVE_GRID_N)
                    - x_bar_star(psys, j - step, _CURVE_GRID_N))
            assert rise > _JUMP_SIZE

    @pytest.mark.parametrize("which, jumps", [("ldpc8", [0.6219, 0.7230]),
                                              ("ldgm9", [0.5074])])
    def test_rise_before_a_jump_keeps_it(self, request, which, jumps):
        # on 5 points of [0.377, 0.808] x_bar_star rises continuously by
        # more than 0.01 ahead of ldpc8's jump near 0.7230 (0.2249 at
        # 0.7003, 0.2622 at 0.7229, 0.6771 at 0.7231), and of ldgm9's near
        # 0.5074; a bracket that closed to the left of the rise lost both
        psys = request.getfixturevalue(which)
        crv = map_exit_curve(psys, np.linspace(0.377, 0.808, 5))
        assert map_jumps(psys, crv) == pytest.approx(jumps, abs=1e-4)

    def test_descending_grid_raises(self, ldpc8):
        with pytest.raises(DomainError, match="^map_exit_curve needs an eps grid in ascending order$"):
            map_exit_curve(ldpc8, np.linspace(1.0, 0.0, 21))

    @pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("entry", [
        minimize_us_at, Psi, x_bar_star, x_lower_star, psi_exit, psi_integral,
        lambda psys, e: map_exit_curve(psys, [0.5, e]),
    ], ids=["minimize_us_at", "Psi", "x_bar_star", "x_lower_star", "psi_exit",
            "psi_integral", "map_exit_curve"])
    def test_eps_outside_the_family_raises(self, ldpc8, entry, eps):
        with pytest.raises(DomainError):
            entry(ldpc8, eps)


def per_point_curve(psys, es):
    """map_exit_curve as it was before its grid became one batch: an
    x_bar_star per eps."""
    es = np.asarray(es, dtype=float)
    xbars = np.array([x_bar_star(psys, float(e), _CURVE_GRID_N) for e in es])
    ex = np.broadcast_to(np.asarray(psys.exit_value(xbars, es), dtype=float), es.shape)
    return thresholds.MapExitCurve(es, ex, xbars)


def assert_same_curve(got, want):
    # map_jumps reads only eps and x_stars, so equal curves give equal jumps
    for name in ("eps", "exit_values", "x_stars"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist(), name


# the eps windows of the benchmark's analysis/exit pools (bench/refs.json)
BENCH_EXIT_WINDOWS = [
    ("ldgm9", 0.449623, 0.583999), ("ldgm9", 0.449993, 0.554709),
    ("ldgm9", 0.454316, 0.585218), ("ldgm9", 0.467495, 0.53015),
    ("ldpc8", 0.507631, 0.699056), ("ldpc8", 0.544223, 0.716394),
    ("ldpc8", 0.594347, 0.662749), ("ldpc8", 0.581543, 0.691055),
]


@pytest.mark.parametrize("which, lo, hi", BENCH_EXIT_WINDOWS)
def test_map_exit_matches_the_oracle(request, which, lo, hi):
    # the 40-digit MAP curve of tests/oracle.py, which uses none of the
    # library's solvers. The worst errors measured over the 101 eps of
    # each window, in BENCH_EXIT_WINDOWS' order: ldgm9 2.64e-8, 3.13e-8,
    # 2.51e-8 and 2.43e-8; ldpc8 3.14e-8, 4.48e-8 (at index 47 of
    # [0.544223, 0.716394]), 4.00e-8 and 3.57e-8. Golden refinement on a
    # flat minimum limits x* to about 1e-8; ROADMAP item 1 tightens the
    # bound to 1e-12
    es = np.linspace(lo, hi, 101)
    got = map_exit_curve(request.getfixturevalue(which), es).exit_values
    errs = [abs(oracle.map_exit(which, e) - g) for e, g in zip(es.tolist(), got.tolist())]
    assert max(errs) <= 5e-8


# points of isi's default exit-curves window (101 eps of [0, 1]) with the
# bounds on |exit - oracle| and |x* - oracle| there; the measured errors
# are beside them. x* = 0 below the Maxwell threshold, and x* = 1 at
# eps = 1. At eps = 0.98 x* misses its fixed point by 7.1e-6, which
# ROADMAP item 1 removes
ISI_WINDOW_CHECKS = [
    (50, 0.0, 0.0),
    (65, 1.1e-8, 2.5e-8),   # 1.050e-8 and 2.396e-8
    (84, 2.7e-9, 2.1e-7),   # 2.602e-9 and 2.086e-7
    (98, 1.8e-11, 7.2e-6),  # 1.760e-11 and 7.121e-6
    (100, 0.0, 0.0),
]


def test_isi_map_exit_matches_the_oracle(isi36):
    es = np.linspace(0.0, isi36.eps_max, 101)[[i for i, _, _ in ISI_WINDOW_CHECKS]]
    curve = map_exit_curve(isi36, es)
    for (i, exit_tol, x_tol), e, ex, xs in zip(ISI_WINDOW_CHECKS, es.tolist(),
                                               curve.exit_values.tolist(),
                                               curve.x_stars.tolist()):
        assert abs(oracle.map_exit("isi", e) - ex) <= exit_tol, e
        assert abs(oracle.x_star("isi", e) - xs) <= x_tol, e


def test_isi_maxwell_matches_the_oracle(isi36):
    # the oracle gives 0.63865862035296488, the library 0.638658620352965,
    # 6.54e-17 above it: each root of Q is polished to a few ulps of x and
    # eps(x) solved to float precision. With eps(x) bisected to 1e-12 and
    # the roots bracketed to 1e-12 the error was 3.38e-14
    assert abs(oracle.maxwell("isi", 0.5, 0.8) - maxwell_threshold(isi36)) <= 7e-17


@pytest.mark.parametrize("which, family, lo, bound", [
    # the measured worst errors: ldgm9 1.084e-15 (x = 0.925), isi 4.81e-16
    # (x = 0.05), ldpc8 1.107e-15 (x = 0.05) and gldpc(31,4) 1.311e-15
    # (x = 0.586), each a few ulps of x over the slope h_eps; the bounds
    # leave margins of 1.6e-17, 1.9e-17, 9.3e-17 and 8.9e-17. eps(x)
    # bisected to 1e-12 erred by up to 4.55e-13 on ldgm9 and isi
    ("ldgm9", "ldgm9", 0.025, 1.1e-15),
    ("isi36", "isi", 0.05, 5e-16),
    ("ldpc8", "ldpc8", 0.025, 1.2e-15),
    ("gldpc31", "gldpc31", 0.05, 1.4e-15),
])
def test_eps_of_x_matches_the_oracle(request, which, family, lo, bound):
    # 40 x of the fixed-point domain, the array lane against the 40-digit
    # root of h(x; eps) = x, and each float lane bit-equal to its entry
    psys = request.getfixturevalue(which)
    xs = np.linspace(lo, 1.0, 40)
    lanes = eps_of_x(psys, xs)
    for x, e in zip(xs.tolist(), lanes.tolist()):
        assert abs(oracle.eps_of_x(family, x) - e) <= bound, x
        assert eps_of_x(psys, x).hex() == e.hex(), x


class TestBatchedMapCurve:
    """map_exit_curve minimizes its whole eps grid as one batch, whose
    searches run as lanes taking the float calls' steps: its x_stars and
    exit values equal those of an x_bar_star per eps, bit for bit."""

    @pytest.mark.parametrize("which", FAMILIES)
    def test_default_window(self, request, which):
        psys = request.getfixturevalue(which)
        es = np.linspace(0.0, psys.eps_max, 101)
        assert_same_curve(map_exit_curve(psys, es), per_point_curve(psys, es))

    @pytest.mark.parametrize("which, lo, hi", BENCH_EXIT_WINDOWS)
    def test_benchmark_window(self, request, which, lo, hi):
        psys = request.getfixturevalue(which)
        es = np.linspace(lo, hi, 101)
        assert_same_curve(map_exit_curve(psys, es), per_point_curve(psys, es))

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_window(self, request, seed):
        rng = np.random.default_rng(8100 + seed)
        psys = request.getfixturevalue(FAMILIES[seed % len(FAMILIES)])
        n = [1, 2, int(rng.integers(3, 41))][seed % 3]
        lo, hi = np.sort(rng.uniform(0.0, psys.eps_max, 2))
        if seed == 9:
            lo, hi = 0.0, psys.eps_max
        es = np.linspace(lo, hi, n)
        assert_same_curve(map_exit_curve(psys, es), per_point_curve(psys, es))

    def test_empty_grid(self, ldpc8):
        assert_same_curve(map_exit_curve(ldpc8, []), per_point_curve(ldpc8, []))

    def test_envelope_integral(self, ldpc8, monkeypatch):
        batched = psi_integral(ldpc8, 0.66)
        monkeypatch.setattr(thresholds, "map_exit_curve", per_point_curve)
        assert batched.hex() == psi_integral(ldpc8, 0.66).hex()


def _cold_run(psys, e, spec, cfg=IterationConfig()):
    try:
        return coupled_fixed_point(psys.at_eps(e), spec, cfg)
    except NonConvergenceError as exc:
        return exc


def _values(res):
    return res.last.values if isinstance(res, NonConvergenceError) else res.profile.values


class TestCoupledSweep:
    """coupled_sweep runs eps downward, each run started from the previous
    profile; f and g non-decreasing in eps make that start an upper bound
    of the next fixed point, so the sweep lands where cold runs from x_max
    land."""

    SPEC = CouplingSpec(40, 4)

    @pytest.mark.parametrize("family,lo,hi", [("ldpc8", 0.55, 0.65), ("ldgm9", 0.45, 0.55),
                                              ("isi36", 0.6, 0.75), ("gldpc31", 0.2, 0.3)])
    def test_matches_cold_runs_in_fewer_iterations(self, request, family, lo, hi):
        psys = request.getfixturevalue(family)
        es = np.linspace(lo, hi, 5).tolist()
        sweep = coupled_sweep(psys, es, self.SPEC)
        cold = [_cold_run(psys, e, self.SPEC) for e in es]
        assert all(not isinstance(r, NonConvergenceError) for r in sweep + cold)
        for warm, ref in zip(sweep, cold):
            assert np.max(np.abs(warm.profile.values - ref.profile.values)) <= 1e-10
            assert np.array_equal(warm.profile.values, warm.profile.values[::-1])
        assert sum(r.iters for r in sweep) <= sum(r.iters for r in cold)
        # the largest eps starts from x_max, as a cold run does
        assert sweep[-1].iters == cold[-1].iters

    def test_decoded_top_decodes_the_rest_at_once(self, ldpc8):
        es = [0.52, 0.54, 0.56, 0.58]
        sweep = coupled_sweep(ldpc8, es, self.SPEC)
        assert sweep[-1].profile.max <= 1e-9
        assert all(r.iters <= 2 for r in sweep[:-1])

    def test_results_in_input_order(self, ldgm9):
        es = [0.5, 0.46, 0.54]
        sweep = coupled_sweep(ldgm9, es, self.SPEC)
        for e, res in zip(es, sweep):
            ref = _cold_run(ldgm9, e, self.SPEC)
            assert np.max(np.abs(res.profile.values - ref.profile.values)) <= 1e-10

    def test_warm_start_jumps_on_a_long_chain(self, gldpc31):
        # the top slice is stuck, and from its profile a front travels across
        # the next one; SPEC's chains are too short for a jump
        spec = CouplingSpec(443, 6)
        low, top = coupled_sweep(gldpc31, [0.245, 0.26], spec)
        assert top.jumps == 0 and top.profile.max > 0.2
        plain = recursion._run_coupled(gldpc31.at_eps(0.245), spec, IterationConfig(),
                                       pin_tail=False, start=top.profile.values)
        assert low.jumps >= 2 and low.iters < plain.iters // 2
        assert np.max(np.abs(low.profile.values - plain.profile.values)) <= 1e-12
        assert low.profile.max <= 1e-10

    def test_capped_run_seeds_the_next(self, ldpc8):
        capped = IterationConfig(max_iters=100)
        es = [0.5, 0.65]
        low, top = coupled_sweep(ldpc8, es, self.SPEC, capped)
        assert isinstance(top, NonConvergenceError) and top.iters == 100
        assert np.array_equal(_values(top), _values(_cold_run(ldpc8, 0.65, self.SPEC, capped)))
        seeded = coupled_fixed_point(ldpc8.at_eps(0.5), self.SPEC, capped, start=_values(top))
        assert low.iters == seeded.iters
        assert np.array_equal(low.profile.values, seeded.profile.values)
        assert low.iters < _cold_run(ldpc8, 0.5, self.SPEC, capped).iters


class TestInverseEnvelope:
    def test_round_trip_below_jump(self, ldgm9):
        e = EX9_JUMP - 0.004
        xb = x_bar_star(ldgm9, e)
        assert inverse_Psi_threshold(ldgm9, xb) == pytest.approx(e, abs=1e-6)

    def test_near_jump_value(self, ldgm9):
        xb = x_bar_star(ldgm9, EX9_JUMP - 0.0005)
        assert inverse_Psi_threshold(ldgm9, xb) == pytest.approx(EX9_JUMP, abs=2e-3)

    def test_monotone_in_x(self, ldgm9):
        # sampled along the minimizer branch, where the quantity means "the
        # parameter below which the largest minimizer stays at or below x";
        # off-branch points have positive fixed-point potential and raise
        xs = [x_bar_star(ldgm9, float(e))
              for e in np.concatenate([np.linspace(0.1, EX9_JUMP - 0.002, 6),
                                       np.linspace(EX9_JUMP + 0.002, 0.9, 6)])]
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        vals = [inverse_Psi_threshold(ldgm9, x) for x in xs]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_off_branch_raises(self, ldgm9):
        with pytest.raises(DomainError):
            inverse_Psi_threshold(ldgm9, 0.44)

    def test_q_root_maps_to_eps_c(self, ldpc8):
        # at the fixed-point-potential root the inverse envelope recovers
        # the coupled threshold
        ec = eps_c(ldpc8)
        xroot = x_bar_star(ldpc8, ec + 1e-7)
        assert inverse_Psi_threshold(ldpc8, xroot) == pytest.approx(ec, abs=1e-5)


class TestEnvelopeSearch:
    """eps_c and the inverse envelope thresholds come from a safeguarded
    Newton search on Psi, whose slope is u_eps at the largest minimizer;
    eps_c first probes around the Maxwell threshold, and where both probes
    straddle it no Newton step follows.
    The counts are of minimize_us_at calls, a work count, not a clock;
    a 30-step bisection of [0, eps_max] made 35 per report, 33 for eps_c
    at a continuous transition and 184 for the ldgm9 table."""

    # the ldgm9 table as the bisection computed it, each entry within
    # 5e-10 of its predicate's sup
    LDGM9_TABLE = [
        (0.00010001000100010001, 0.1582979685626924),
        (0.1000900090009001, 0.5126267089508474),
        (0.20008000800080009, 0.5176721219904721),
        (0.3000700070007, 0.5090539236553013),
        (0.9000100010001001, 0.6138880546204746),
        (1.0, 1.0),
    ]

    @pytest.fixture
    def minimizations(self, monkeypatch):
        import maxsat.thresholds as thr
        calls = []
        real = thr.minimize_us_at

        def counting(psys, eps, *a, **k):
            # a cap, so that a search that does not stop fails, not hangs
            assert len(calls) < 200, "the envelope search does not stop"
            res = real(psys, eps, *a, **k)
            calls.append((eps, res.value))
            return res

        monkeypatch.setattr(thr, "minimize_us_at", counting)
        return calls

    @pytest.mark.parametrize("family, anchor", [
        ("ldpc8", 0.62192946106121),
        ("gldpc31", 0.25545820811870525),
        ("gldpc63", 0.1576458811743199),
    ])
    def test_eps_c_matches_anchor(self, minimizations, ldpc8, gldpc31, family, anchor):
        # 40-digit mpmath Maxwell thresholds (tests/test_reference.py)
        psys = {"ldpc8": ldpc8, "gldpc31": gldpc31,
                "gldpc63": gldpc_system(GldpcParams(63, 5))}[family]
        assert abs(eps_c(psys) - anchor) <= 1e-9
        assert len(minimizations) <= 12

    def test_tol_below_float_spacing_terminates(self, minimizations, ldpc8):
        # 1e-17 is below the float spacing near eps_c (1.1e-16): the
        # search stops once its bracket ends are adjacent floats
        assert abs(eps_c(ldpc8, 1e-17) - 0.62192946106121) <= 1e-9
        assert len(minimizations) <= 40

    def test_cross_check_window_clears_rounding(self, minimizations, ldpc8):
        # the last two minimizations are the cross-check: eps_c +- 10 tol at
        # the default tol, and at 1e-17 the offset, about 4.0e-13 on ldpc8,
        # over which Psi (slope about -0.035) moves by minimize_potential's
        # rounding level of 64 ulps; +-1e-16 reads rounding noise there
        ec = eps_c(ldpc8)
        assert [e for e, _ in minimizations[-2:]] == [ec - 10 * 1e-9, ec + 10 * 1e-9]
        minimizations.clear()
        ec = eps_c(ldpc8, 1e-17)
        (lo, v_lo), (hi, v_hi) = minimizations[-2:]
        assert 3e-13 < ec - lo < 5e-13 and 3e-13 < hi - ec < 5e-13
        assert v_lo >= -1e-12
        assert v_hi < -1e-12 - 64 * np.finfo(float).eps

    @pytest.mark.parametrize("shift", [-1e-3, 1e-3])
    def test_cross_check_failure_raises(self, monkeypatch, ldpc8, shift):
        # a search result off the threshold fails the cross-check: 1e-3
        # below it Psi is still 0 at ec + 10 tol, 1e-3 above it already
        # negative at ec - 10 tol
        real = thresholds._envelope_sup

        def off(*args):
            ec, res_b, certified = real(*args)
            return ec + shift, res_b, certified

        monkeypatch.setattr(thresholds, "_envelope_sup", off)
        with pytest.raises(ThresholdUndefinedError,
                           match=r"^potential-threshold cross-check failed around eps_c \("):
            eps_c(ldpc8)

    @pytest.mark.parametrize("family", ["ldpc8", "gldpc31"])
    def test_report_count(self, minimizations, ldpc8, gldpc31, family):
        threshold_report({"ldpc8": ldpc8, "gldpc31": gldpc31}[family])
        assert len(minimizations) <= 14

    def test_continuous_transition_is_eps_stab(self, minimizations):
        # (2, 6)-regular: Psi(eps_stab) is within the 1e-12 margin
        psys = ldpc_system("x^2", "x^6")
        assert eps_c(psys) == eps_stab(psys)
        assert len(minimizations) <= 4

    def test_ldgm9_table(self, minimizations, ldgm9):
        table = inverse_psi_table(ldgm9)
        assert len(minimizations) <= 80
        assert [x for x, _ in table] == [x for x, _ in self.LDGM9_TABLE]
        for (_, e), (_, ref) in zip(table, self.LDGM9_TABLE):
            assert abs(e - ref) <= 1e-9

    @pytest.mark.parametrize("family", ["ldpc8", "ldgm9"])
    def test_ends_on_a_tol_bracket(self, minimizations, ldpc8, ldgm9, family):
        # the result is the midpoint of the closest probes around it, one
        # meeting Psi >= level - 1e-12 and one not, at most tol apart
        if family == "ldpc8":
            level, tol, result = 0.0, 1e-9, eps_c(ldpc8)
        else:
            x = self.LDGM9_TABLE[2][0]
            level, tol = float(Q_of_x(ldgm9, x)), 1e-9
            result = inverse_Psi_threshold(ldgm9, x)
        a = max(e for e, v in minimizations if v >= level - 1e-12 and e <= result)
        b = min(e for e, v in minimizations if v < level - 1e-12 and e >= result)
        assert b - a <= tol
        assert result == 0.5 * (a + b)

    def test_table_entries_are_inverse_thresholds(self, ldgm9):
        for x, e in inverse_psi_table(ldgm9)[:2]:
            assert inverse_Psi_threshold(ldgm9, x) == e

    def test_table_empty_when_not_proper(self):
        psys = ldgm_system("x^6", "x^3")  # no degree-1 checks
        assert not psys.proper
        assert inverse_psi_table(psys) == []

    @pytest.mark.parametrize("family, eps", [
        ("ldpc8", 0.65), ("ldpc8", 0.8), ("ldgm9", 0.3), ("ldgm9", 0.8),
    ])
    def test_envelope_slope(self, ldpc8, ldgm9, family, eps):
        # away from the minimizer jumps (0.6219 and 0.5074) Psi is smooth
        # and its slope is the eps-partial of U_s at the minimizer
        psys = {"ldpc8": ldpc8, "ldgm9": ldgm9}[family]
        d = 1e-5
        central = (Psi(psys, eps + d) - Psi(psys, eps - d)) / (2 * d)
        slope = float(psys.u_eps(x_bar_star(psys, eps), eps))
        assert slope < 0.0
        assert abs(central - slope) <= 1e-6 * abs(slope)


class TestReport:
    def test_ldpc_report(self, ldpc8):
        rep = threshold_report(ldpc8)
        assert rep.eps_single < rep.eps_c
        assert rep.eps_stab == pytest.approx(1.0 / 1.44, abs=1e-9)
        assert rep.eps_c == pytest.approx(EX8_EPS_C, abs=1e-6)
        assert abs(rep.eps_maxwell - rep.eps_c) <= 1e-6

    def test_gldpc_report(self, gldpc31):
        rep = threshold_report(gldpc31)
        assert rep.eps_stab == 1.0
        assert rep.eps_c < 1.0
        assert abs(rep.eps_maxwell - rep.eps_c) <= 1e-6

    def test_family_from_callables_alone(self, ldpc8):
        # the stability threshold and the boundary candidate of the Maxwell
        # threshold come from f_x and g_x, with no closed form supplied
        names = ("f", "g", "f_x", "g_x", "g_xx", "f_eps", "g_eps",
                 "F", "G", "F_eps", "G_eps")
        bare = ParamSystem(**{n: getattr(ldpc8, n) for n in names})
        assert bare.proper and bare.zero_is_fixed_point
        rep = threshold_report(bare)
        assert rep.eps_stab == pytest.approx(25.0 / 36.0, abs=1e-9)
        assert rep.eps_maxwell == pytest.approx(0.62192946106121, abs=1e-8)

    def test_continuous_transition_meets_stability(self):
        # (2, 3)-regular: h = eps (2x - x^2), whose non-zero fixed point
        # 2 - 1/eps grows from 0 at eps = 1/2, so all four thresholds are
        # 1/2, which the value margins of eps_single and eps_c overshoot
        # unless eps_stab caps them
        rep = threshold_report(ldpc_system("x^2", "x^3"))
        for value in (rep.eps_single, rep.eps_stab, rep.eps_c, rep.eps_maxwell):
            assert value == pytest.approx(0.5, abs=1e-9)

    def test_maxwell_is_eps_max_when_q_stays_positive(self):
        # the potential never goes negative, so eps_c = eps_max; the
        # fixed-point domain is about [0.262, 1] with Q in [0.0065, 0.067]
        psys = isi_system("0.185893 x^3 + 0.814107 x^6", "0.185893 x^2 + 0.814107 x^6")
        rep = threshold_report(psys)
        assert rep.eps_c == 1.0
        assert rep.eps_maxwell == 1.0
        assert dict(rep.notes)["eps_maxwell"] == "eps_max: Q > 0 on the whole fixed-point domain"

    def test_maxwell_is_eps_max_on_an_empty_fixed_point_domain(self):
        # degree-1 checks keep h(x; 1) < x on all of (0, 1]: no x > 0
        # supports a fixed point, and the chain decodes up to eps_max
        psys = ldpc_system("x^3", "0.5 x + 0.5 x^3")
        assert xf_intervals(psys) == ([], False)
        rep = threshold_report(psys)
        assert rep.eps_c == 1.0
        assert rep.eps_maxwell == 1.0

    def test_maxwell_note_at_a_root(self, ldpc8):
        notes = dict(threshold_report(ldpc8).notes)
        assert notes["eps_maxwell"] == "min eps(x) over roots of the fixed-point potential"

    @pytest.mark.parametrize("family", ["ldpc8", "gldpc31", "ldgm9"])
    def test_matches_the_single_thresholds(self, ldpc8, gldpc31, ldgm9, family):
        # at the default tol the report gives each threshold's own value
        psys = {"ldpc8": ldpc8, "gldpc31": gldpc31, "ldgm9": ldgm9}[family]
        rep = threshold_report(psys)
        notes = dict(rep.notes)
        for name, fn in (("eps_single", eps_single), ("eps_stab", eps_stab),
                         ("eps_c", eps_c), ("eps_maxwell", maxwell_threshold)):
            try:
                want = fn(psys)
            except ThresholdUndefinedError as exc:
                assert getattr(rep, name) is None
                assert notes[name] == f"undefined: {exc}"
            else:
                assert getattr(rep, name) == want

    def test_ldgm_report_tags_undefined(self, ldgm9):
        rep = threshold_report(ldgm9)
        assert rep.eps_c is None and rep.eps_stab is None
        notes = dict(rep.notes)
        assert "undefined" in notes["eps_c"]
        assert rep.eps_single is not None


class TestMonotoneConvergence:
    @pytest.mark.parametrize("which,seed", [("ldpc8", 1), ("ldgm9", 2),
                                            ("gldpc31", 3), ("isi36", 4)])
    def test_uncoupled_sequence_non_increasing_from_xmax(self, which, seed, request):
        psys = request.getfixturevalue(which)
        rng = np.random.default_rng(seed)
        for e in rng.uniform(0.0, psys.eps_max, 100):
            x = psys.x_max
            for _ in range(300):
                xn = float(psys.h(x, float(e)))
                # a few ulps of update rounding may tick upward at the
                # fixed point itself
                assert xn <= x + 5e-15
                if abs(xn - x) < 1e-13:
                    break
                x = xn


class TestSandwich:
    def test_finite_chain_tracks_minimizer_above_threshold(self, ldpc8):
        run = coupled_fixed_point(ldpc8.at_eps(0.64), CouplingSpec(800, 11))
        assert abs(run.profile.max - x_bar_star(ldpc8, 0.64)) <= 0.01

    @pytest.mark.parametrize("which,eps_list", [
        ("ldpc8", (0.4, 0.66, 0.8)),
        ("gldpc31", (0.15, 0.32, 0.6)),
        ("isi36", (0.45, 0.7, 0.9)),
    ])
    def test_coupled_max_between_minimizers(self, which, eps_list, request):
        psys = request.getfixturevalue(which)
        spec = CouplingSpec(512, 16)
        cfg = IterationConfig(max_iters=2 * 10**5)
        for e in eps_list:
            res = minimize_us_at(psys, e)
            run = coupled_fixed_point(psys.at_eps(e), spec, cfg)
            m = run.profile.max
            assert m <= res.x_upper + 0.01
            assert m >= res.x_lower - 0.01

    @pytest.mark.parametrize("fixed_point", [coupled_fixed_point, modified_coupled_fixed_point],
                             ids=["plain", "modified"])
    @pytest.mark.parametrize("which,eps_list", [("ldpc8", (0.63, 0.65, 0.70)),
                                                ("ldgm9", (0.55, 0.6))], ids=["ldpc8", "ldgm9"])
    def test_midpoint_saturates_from_below(self, which, eps_list, fixed_point, request):
        # the half of Maxwell saturation that holds at 1e-7: on N = 200 the
        # midpoint never passes x_bar_star, meets it for w <= 5 (gaps from
        # -4.6e-8 to +3.1e-12) and falls further below as w grows (to
        # -1.1e-3 at w = 17)
        psys = request.getfixturevalue(which)
        for e in eps_list:
            xb, s = x_bar_star(psys, e), psys.at_eps(e)
            gaps = [fixed_point(s, CouplingSpec(200, w)).profile.midpoint - xb
                    for w in (2, 3, 5, 17)]
            assert max(gaps) <= 1e-11, gaps
            assert all(abs(gap) <= 1e-7 for gap in gaps[:3]), gaps
            assert all(b <= a + 1e-11 for a, b in zip(gaps, gaps[1:])), gaps


SHARED_EPS = {
    "ldpc8": (0.55, 0.63, 0.8),
    "ldgm9": (0.3, 0.5074, 0.7),
    "isi36": (0.5, 0.6387, 0.8),
    "gldpc31": (0.2, 0.2555, 0.5),
    "gldpc63": (0.13, 0.1576, 0.4),
}


def per_call_route(psys, e, grid_n=ANALYSIS_GRID_N):
    """minimize_us_at as it was before g was shared: U_s and h each
    evaluate g on the grid, through ParamSystem.u and ParamSystem.h."""
    return thresholds.minimize_potential(lambda x: psys.u(x, e), lambda x: psys.h(x, e),
                                         psys.x_max, float(psys.g(psys.x_max, e)), grid_n)


def grid_call_counts(psys, names, sizes=(ANALYSIS_GRID_N, _CURVE_GRID_N)):
    """A copy of psys whose callables in names count their calls on
    arguments of a grid's size, and the counts by name."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(x, e):
            if np.size(x) in sizes:
                counts[name] += 1
            return fn(x, e)
        return wrapper

    return dataclasses.replace(
        psys, **{n: counted(n, getattr(psys, n)) for n in names}), counts


class TestSharedCheckSide:
    """minimize_us_at evaluates g once per grid point, and a family whose
    check side does not depend on eps tabulates g and x g - G once per
    grid; every result stays bit-identical to the per-call route."""

    @pytest.mark.parametrize("which, expected", [
        ("ldpc8", True), ("isi36", True), ("gldpc31", True), ("gldpc63", True),
        ("ldgm9", False)])
    def test_measured_fact(self, request, which, expected):
        assert request.getfixturevalue(which).eps_free_check_side is expected

    @pytest.mark.parametrize("which", list(SHARED_EPS))
    def test_minimizations_equal_per_call_route(self, request, which):
        psys = request.getfixturevalue(which)
        for e in SHARED_EPS[which]:
            assert minimize_us_at(psys, e) == per_call_route(psys, e)
            assert x_bar_star(psys, e, _CURVE_GRID_N) == \
                per_call_route(psys, e, _CURVE_GRID_N).x_upper

    @pytest.mark.parametrize("which", ["ldpc8", "isi36", "gldpc31"])
    def test_eps_free_family_tabulates_once(self, request, which):
        psys, counts = grid_call_counts(request.getfixturevalue(which), ("g", "G", "F", "f"))
        es = SHARED_EPS[which]
        for e in es:
            minimize_us_at(psys, e)
        assert counts == {"g": 1, "G": 1, "F": len(es), "f": len(es)}
        for e in es:
            x_bar_star(psys, e, _CURVE_GRID_N)
        assert counts == {"g": 2, "G": 2, "F": 2 * len(es), "f": 2 * len(es)}

    def test_ldgm_evaluates_g_once_per_minimization(self, ldgm9):
        psys, counts = grid_call_counts(ldgm9, ("g", "G", "F", "f"))
        es = SHARED_EPS["ldgm9"]
        for e in es:
            minimize_us_at(psys, e)
        assert counts == dict.fromkeys(("g", "G", "F", "f"), len(es))

    def test_tables_are_read_only(self):
        psys = ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                           DegreeDistribution.from_edge(EX8_RHO))
        minimize_us_at(psys, 0.6)
        x_bar_star(psys, 0.6, _CURVE_GRID_N)
        tables = psys._check_side_tables
        assert sorted(tables) == [_CURVE_GRID_N, ANALYSIS_GRID_N]
        for table in tables.values():
            for a in table:
                with pytest.raises(ValueError):
                    a[0] = 1.0


CROSSING_FAMILIES = ("ldpc8", "ldgm9", "isi36", "gldpc31", "gldpc63")


def fresh_family(which):
    """A fresh build of a fixture family, so its cached tables are its own."""
    return {
        "ldpc8": lambda: ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                                     DegreeDistribution.from_edge(EX8_RHO)),
        "isi36": lambda: isi_system("x^3", "x^6"),
        "gldpc31": lambda: gldpc_system(GldpcParams(31, 4)),
        "gldpc63": lambda: gldpc_system(GldpcParams(63, 5)),
    }[which]()


def crosses_near(xs, d, x):
    """x - h(x) (d on the grid xs) goes from <= 0 to >= 0 within the grid
    points from the one below x's cell to the one above it: the bracket of
    any golden refinement that can have ended at x."""
    i = int(np.searchsorted(xs, x, side="right")) - 1
    seg = d[max(i - 1, 0):min(i + 3, xs.size)]
    return bool(np.any((np.minimum.accumulate(seg)[:-1] <= 0.0) & (seg[1:] >= 0.0)))


class TestCrossingRule:
    """minimize_potential golden-refines a resolved grid minimum only when
    x - h(x) crosses zero upwards in its bracket, since U_s' = (x - h) g'
    with g' > 0 turns only there; x_upper and value keep their bits."""

    @pytest.mark.parametrize("which", ["gldpc31", "gldpc63"])
    def test_threshold_report_golden_searches(self, monkeypatch, which):
        # of gldpc(63,5)'s 48 searches before the rule, 41 started on the
        # plateaus where g is about 1. One search per minimization of eps_c
        # near its threshold: the two probes that certify the Maxwell
        # threshold and the two of the cross-check; a Newton search without
        # the certificate makes seven
        psys = fresh_family(which)
        real, calls = potential.golden_min, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(potential, "golden_min", counted)
        threshold_report(psys)
        assert len(calls) == 4

    @pytest.mark.parametrize("e", [0.5, 1.0])
    def test_plateau_lists_only_fixed_points(self, gldpc63, e):
        res = minimize_us_at(gldpc63, e)
        assert res.minimizers == (res.x_upper,)
        assert set(res.minimizers) <= set(res.fixed_points)

    @pytest.mark.parametrize("which", CROSSING_FAMILIES)
    def test_minimizers_are_critical(self, request, which):
        psys = request.getfixturevalue(which)
        xs = np.linspace(0.0, psys.x_max, ANALYSIS_GRID_N)
        for e in np.linspace(0.0, psys.eps_max, 201).tolist():
            d = xs - np.asarray(psys.h(xs, e), dtype=float)
            for x in minimize_us_at(psys, e).minimizers:
                assert abs(x - float(psys.h(x, e))) <= 1e-9 or crosses_near(xs, d, x), (e, x)

    @pytest.mark.parametrize("which, e, x_upper, value", [
        # minimize_us_at before the rule, which listed 2 to 30 minimizers here
        ("ldpc8", 0.99, "0x1.fae145a084e5cp-1", "-0x1.0eb232d214ab8p-4"),
        ("ldpc8", 1.0, "0x1.0000000000000p+0", "-0x1.17ab144ade478p-4"),
        ("isi36", 0.99, "0x1.fade00d563bc4p-1", "-0x1.4b1c48cb8091ep-3"),
        ("gldpc31", 0.6, "0x1.333332dbb0466p-1", "-0x1.5e2455eb2b19cp-3"),
        ("gldpc31", 1.0, "0x1.0000000000000p+0", "-0x1.7bdef7bdef7bep-2"),
        ("gldpc63", 0.38, "0x1.851eb80492b23p-2", "-0x1.c5291f684659ap-4"),
        ("gldpc63", 1.0, "0x1.0000000000000p+0", "-0x1.aebaebaebaebcp-2"),
    ])
    def test_flat_slices_keep_their_bits(self, request, which, e, x_upper, value):
        res = minimize_us_at(request.getfixturevalue(which), e)
        assert (res.x_upper.hex(), res.value.hex()) == (x_upper, value)
        assert res.minimizers == (res.x_upper,)


class TestFixedPointTableReadsCheckSide:
    """A family with eps_free_check_side builds its fixed-point table from
    the g table (ParamSystem._fp_check_side): h, eps(x) and Q keep the
    bits of h, the bisection without g, and u."""

    @pytest.mark.parametrize("which", ["ldpc8", "isi36", "gldpc31", "gldpc63"])
    def test_table_equals_per_call_route(self, which):
        psys = fresh_family(which)
        xs, h0, hmax = psys._fp_grid
        eps, q = psys._fp_curve
        assert psys._fp_check_side is not None
        assert h0.tobytes() == np.asarray(psys.h(xs, 0.0), dtype=float).tobytes()
        assert hmax.tobytes() == np.asarray(psys.h(xs, psys.eps_max), dtype=float).tobytes()
        at = ~np.isnan(eps)
        assert at.sum() > 1000
        ref = thresholds._solve_eps(psys, xs[at], hmax[at])
        assert eps[at].tobytes() == ref.tobytes()
        assert eps[at].tobytes() == eps_of_x(psys, xs[at]).tobytes()
        assert q[at].tobytes() == np.asarray(psys.u(xs[at], eps[at]), dtype=float).tobytes()

    @pytest.mark.parametrize("which", ["ldpc8", "isi36", "gldpc31", "gldpc63"])
    def test_bisection_with_g_equals_without(self, which):
        psys = fresh_family(which)
        xs, h0, hmax = psys._fp_grid
        g = psys._fp_check_side[0]
        at = np.flatnonzero((h0 <= xs + 1e-12) & (hmax >= xs))[::50]
        assert thresholds._solve_eps(psys, xs[at], hmax[at], g[at]).tobytes() == \
            thresholds._solve_eps(psys, xs[at], hmax[at]).tobytes()
        for x, hx, gx in zip(xs[at[::10]].tolist(), hmax[at[::10]].tolist(),
                             g[at[::10]].tolist()):
            assert thresholds._solve_eps(psys, x, hx, gx).hex() == \
                thresholds._solve_eps(psys, x, hx).hex()

    def test_ldgm_table_evaluates_h(self):
        psys = ldgm_system("x^6", DegreeDistribution.from_edge(EX9_RHO))
        assert psys._fp_check_side is None
        xs, h0, hmax = psys._fp_grid
        assert h0.tobytes() == np.asarray(psys.h(xs, 0.0), dtype=float).tobytes()
        assert hmax.tobytes() == np.asarray(psys.h(xs, psys.eps_max), dtype=float).tobytes()
