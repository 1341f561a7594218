import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc as scipy_betainc
from scipy.stats import beta as scipy_beta

from maxsat.errors import ConstructionError, DomainError, ThresholdUndefinedError
from maxsat.invariants import gldpc_trial_entropy_signs
from maxsat.potential import K_fg_bound, U_s, minimize_Us
from maxsat.recursion import uncoupled_fixed_point
from maxsat.systems import (
    CsParams,
    DegreeDistribution,
    GaussianPrior,
    GldpcParams,
    TwoPointPrior,
    cs_system,
    dec_phi,
    example1_system,
    example2_system,
    gldpc_system,
    isi_system,
    ldgm_system,
    ldpc_system,
    pathological_system,
)
from maxsat.thresholds import (Psi, Q_of_x, eps_of_x, inverse_Psi_threshold, maxwell_threshold,
                               threshold_report)

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


@pytest.fixture(scope="module")
def gldpc31():
    return gldpc_system(GldpcParams(31, 4))


class TestDegreeDistribution:
    def test_node_form(self):
        d = DegreeDistribution.from_node("x^3")
        assert d.lp1 == 3.0
        assert d.edge.coeffs == (0.0, 0.0, 1.0)

    def test_edge_to_node_roundtrip(self):
        d = DegreeDistribution.from_edge(EX8_LAMBDA)
        assert d.edge(1.0) == pytest.approx(1.0, abs=1e-12)
        d2 = DegreeDistribution.from_edge(d.edge)
        assert np.allclose(d2.node.coeffs, d.node.coeffs, atol=1e-15)

    def test_normalization_enforced(self):
        with pytest.raises(ConstructionError):
            DegreeDistribution.from_node("0.5 x^2")
        with pytest.raises(ConstructionError):
            DegreeDistribution.from_edge("0.9 x")

    def test_nonnegative_coefficients(self):
        with pytest.raises(ConstructionError):
            DegreeDistribution.from_node([0.0, 0.0, 1.5, -0.5])

    def test_constant_term_rejected(self):
        with pytest.raises(ConstructionError):
            DegreeDistribution.from_node([0.5, 0.0, 0.5])


class TestLdpc:
    def test_33_regular_slice_matches_example1(self):
        # example 1 is this slice; hold it to the paper's closed forms
        s097 = example1_system()
        assert s097.name == "ldpc@eps=0.97"
        xs = np.linspace(0, 1, 101)
        g = 1.0 - (1.0 - xs) ** 2
        u = xs * g - (xs + ((1.0 - xs) ** 3 - 1.0) / 3.0) - (97.0 / 300.0) * g**3
        for got, want in ((s097.f(xs), 0.97 * xs**2), (s097.g(xs), g), (U_s(s097, xs), u),
                          (s097.f_prime(xs), 1.94 * xs), (s097.g_prime(xs), 2.0 * (1.0 - xs)),
                          (s097.g_second(xs), -2.0)):
            assert np.max(np.abs(np.asarray(got) - want)) <= 1e-14
        assert (s097.f_prime_sup, s097.g_prime_sup, s097.g_second_sup) == (1.94, 2.0, 2.0)

    def test_rate_identity(self, ldpc8):
        lp1 = 1.0 / (0.2 / 2 + 0.25 / 3 + 0.1 / 7 + 0.45 / 21)
        rp1 = 1.0 / (0.6 / 5 + 0.4 / 13)
        u11 = float(ldpc8.u(1.0, 1.0))
        assert lp1 * u11 == pytest.approx(lp1 / rp1 - 1.0, abs=1e-12)

    def test_eps_of_x_regular_formula(self, ldpc8):
        # (3,3)-regular: eps(x) = x / (1-(1-x)^2)^2 and eps(1) = 1
        psys = ldpc_system("x^3", "x^3")
        xs = np.linspace(0.05, 1.0, 25)
        ref = xs / (1 - (1 - xs) ** 2) ** 2
        ours = np.array([eps_of_x(psys, float(x)) for x in xs[ref <= 1.0]])
        assert np.allclose(ours, ref[ref <= 1.0], atol=1e-12)
        assert eps_of_x(psys, 1.0) == 1.0

    def test_trial_entropy_scaling(self, ldpc8):
        xs = np.linspace(0.15, 0.9, 9)
        lp1 = 1.0 / (0.2 / 2 + 0.25 / 3 + 0.1 / 7 + 0.45 / 21)
        for x in xs:
            assert float(ldpc8.trial_entropy(x)) == pytest.approx(
                -lp1 * float(Q_of_x(ldpc8, float(x))), abs=1e-12)

    def test_trial_entropy_is_the_potential_at_eps_of_x(self, ldpc8):
        # -L'(1) U_s(x; eps(x)), bit for bit, on an array and on floats
        # with ldpc's eps(x) = x / lam(1 - rho(1 - x)) written out
        lam_dist = DegreeDistribution.from_edge(EX8_LAMBDA)
        lam, lp1 = lam_dist.edge, lam_dist.lp1
        rho = DegreeDistribution.from_edge(EX8_RHO).edge
        xs = np.linspace(0.05, 1.0, 96)
        want = -lp1 * ldpc8.u(xs, xs / lam(1.0 - rho(1.0 - xs)))
        assert ldpc8.trial_entropy(xs).tobytes() == want.tobytes()
        for x, w in zip(xs.tolist(), want.tolist()):
            assert ldpc8.trial_entropy(x) == w

    def test_flags(self, ldpc8):
        assert ldpc8.proper and ldpc8.zero_is_fixed_point


class TestLdgm:
    def test_example2_slice(self, ldgm9):
        # example 2 (node-form R) and the edge-form ldgm9 slice against the
        # closed forms f = y^5, g = 1 - rho(1-x)/2, F = y^6/6 and
        # G = x - (1 - R(1-x))/(2 R'(1)), R'(1) = 3
        def rho(z):
            return 2 / 45 + 2 / 45 * z + 7 / 15 * z**2 + 4 / 9 * z**3

        def R(z):
            return 2 / 15 * z + 1 / 15 * z**2 + 7 / 15 * z**3 + 1 / 3 * z**4

        xs = np.linspace(0, 1, 101)
        g = 1.0 - 0.5 * rho(1.0 - xs)
        u = xs * g - (xs - (1.0 - R(1.0 - xs)) / 6.0) - g**6 / 6.0
        ex2 = example2_system()
        assert ex2.name == "ldgm@eps=0.5"
        for s in (ex2, ldgm9.at_eps(0.5)):
            for got, want in ((s.f(xs), xs**5), (s.g(xs), g), (U_s(s, xs), u)):
                assert np.max(np.abs(np.asarray(got) - want)) <= 1e-14

    def test_minimizer_near_005_at_half(self, ldgm9):
        res = minimize_Us(ldgm9.at_eps(0.5))
        assert 0.04 <= res.x_upper <= 0.06

    def test_entropy_per_code_bit_bound(self, ldgm9):
        rp1 = 3.0
        for e in np.linspace(0.0, 1.0, 11):
            assert -rp1 * Psi(ldgm9, float(e)) >= -1e-12

    def test_zero_not_fixed_point(self, ldgm9):
        assert not ldgm9.zero_is_fixed_point
        assert float(ldgm9.h(0.0, 0.3)) > 0.0

    def test_without_degree_one_checks_not_proper(self):
        # rho(0) = 0, so h_eps = lam'(g) rho(1-x) vanishes at x = 1: the
        # family builds, and the thresholds that need properness are undefined
        psys = ldgm_system("x^3", "x^4")
        assert not psys.proper and not psys.zero_is_fixed_point
        with pytest.raises(ThresholdUndefinedError):
            maxwell_threshold(psys)
        with pytest.raises(ThresholdUndefinedError):
            inverse_Psi_threshold(psys, 0.5)

    def test_eps_of_x_matches_fixed_point(self, ldgm9):
        for x in (0.3, 0.6, 0.9):
            e = eps_of_x(ldgm9, x)
            assert float(ldgm9.h(x, e)) == pytest.approx(x, abs=1e-12)
        assert eps_of_x(ldgm9, 1.0) == pytest.approx(1.0, abs=1e-12)


class TestGldpc:
    @pytest.mark.parametrize("n,t", [(31, 4), (63, 5)])
    def test_q_at_one(self, n, t):
        psys = gldpc_system(GldpcParams(n, t))
        assert float(Q_of_x(psys, 1.0)) == pytest.approx(-(1 - 2 * t / n) / 2, abs=1e-12)
        assert float(psys.trial_entropy(1.0)) == pytest.approx(1 - 2 * t / n, abs=1e-12)

    def test_transfer_matches_incomplete_beta(self, gldpc31):
        xs = np.linspace(0, 1, 101)
        ours = np.asarray(gldpc31.g(xs, 0.0))
        ref_scipy = scipy_betainc(4, 27, xs)
        assert np.max(np.abs(ours - ref_scipy)) <= 1e-13

    @pytest.mark.parametrize("n,t", [(31, 4), (63, 5), (127, 9)])
    def test_transfer_scalar_equals_array_and_matches_betainc(self, n, t):
        # fixed_points_of scans a grid and bisects with scalars, so both
        # must see one function
        g = gldpc_system(GldpcParams(n, t)).g
        xs = np.concatenate(([0.0, 0.5, 1.0], np.logspace(-30, -1, 30),
                             1.0 - np.logspace(-16, -1, 30), np.linspace(0.0, 1.0, 41)))
        arr = np.asarray(g(xs, 0.0))
        scalars = np.array([g(float(x), 0.0) for x in xs])
        assert arr.tobytes() == scalars.tobytes()
        with mp.workdps(40):
            ref = np.array([float(mp.betainc(t, n - t, 0, mp.mpf(float(x)), regularized=True))
                            for x in xs])
        assert np.all(np.isfinite(arr))
        assert np.max(np.abs(arr - ref) / np.where(ref > 0.0, ref, 1.0)) <= 1e-13
        assert g(0.0, 0.0) == 0.0 and g(1.0, 0.0) == 1.0

    @pytest.mark.parametrize("n,t", [(31, 4), (63, 5), (127, 9), (255, 12)])
    def test_derivatives_match_beta_density(self, n, t):
        # g = I_x(t, n-t), so g' is the Beta(t, n-t) density, and
        # G = int_0^x g = x I_x(t, n-t) - (t/n) I_x(t+1, n-t); the transfer
        # itself, since gldpc_system rejects (255, 12), whose g' underflows
        # to 0 near x = 1
        from maxsat.systems import _bch_transfer
        _, g_x, g_xx, G, _ = _bch_transfer(n, t)
        xs = np.linspace(0.0, 1.0, 101)
        ref = scipy_beta.pdf(xs, t, n - t)
        assert np.max(np.abs(np.asarray(g_x(xs)) - ref)) <= 1e-12 * np.max(ref)
        with mp.workdps(40):
            inv_beta = 1 / mp.beta(t, n - t)
            refs = []
            for x in map(mp.mpf, xs.tolist()):
                dens = inv_beta * x ** (t - 2) * (1 - x) ** (n - t - 2)
                refs.append([dens * x * (1 - x), dens * ((t - 1) * (1 - x) - (n - t - 1) * x),
                             x * mp.betainc(t, n - t, 0, x, regularized=True)
                             - mp.mpf(t) / n * mp.betainc(t + 1, n - t, 0, x, regularized=True)])
        ref_x, ref_xx, ref_G = (np.array([float(r[k]) for r in refs]) for k in range(3))
        for fn, want in ((g_x, ref_x), (g_xx, ref_xx)):
            got, big = np.asarray(fn(xs)), np.abs(want) > 1e-250
            assert np.max(np.abs(got[big] - want[big]) / np.abs(want[big])) <= 1e-12
        assert np.max(np.abs(np.asarray(G(xs)) - ref_G)) <= 1e-13

    def test_G_matches_quadrature(self, gldpc31):
        xs = np.linspace(0, 1, 100001)
        gx = np.asarray(gldpc31.g(xs, 0.0))
        trap = np.concatenate(([0.0], np.cumsum(0.5 * (gx[1:] + gx[:-1]) * np.diff(xs))))
        assert np.max(np.abs(np.asarray(gldpc31.G(xs, 0.0)) - trap)) <= 1e-9

    def test_trial_entropy_sign_pattern(self):
        assert gldpc_trial_entropy_signs(GldpcParams(31, 4), 200)

    def test_unique_trial_entropy_root(self, gldpc31):
        xs = np.linspace(1e-6, 1.0, 20001)
        p = np.asarray(gldpc31.trial_entropy(xs))
        assert int(np.sum(p[:-1] * p[1:] < 0)) == 1

    def test_flags_and_rates(self, gldpc31):
        assert gldpc31.zero_is_fixed_point
        params = GldpcParams(31, 4)
        assert params.rate_bec == pytest.approx(1 - 4 * 5 / 31)
        assert params.rate_bsc == pytest.approx(1 - 8 * 5 / 31)

    def test_parameter_validation(self):
        with pytest.raises(ConstructionError):
            GldpcParams(31, 1)
        with pytest.raises(ConstructionError):
            GldpcParams(31, 16)


class TestIsi:
    def test_shipped_phi_endpoints(self):
        assert dec_phi(0.3, 0.0) == 0.0
        assert dec_phi(1.0, 1.0) == 1.0

    def test_phi_nondecreasing_in_both_arguments(self):
        zs = np.linspace(0.0, 1.0, 101)
        Z, E = np.meshgrid(zs, zs, indexing="ij")
        pv = dec_phi(Z, E)
        assert np.min(np.diff(pv, axis=0)) >= -1e-9
        assert np.min(np.diff(pv, axis=1)) >= -1e-9

    def test_phi_partials_match_fd(self):
        from maxsat.systems import _dec_Phi, _dec_Phi_eps, _dec_phi_eps, _dec_phi_x
        rng = np.random.default_rng(21)
        for _ in range(50):
            x, e = rng.uniform(0.05, 0.95, 2)
            h = 1e-6
            assert _dec_phi_x(x, e) == pytest.approx(
                (dec_phi(x + h, e) - dec_phi(x - h, e)) / (2 * h), rel=1e-5, abs=1e-8)
            assert _dec_phi_eps(x, e) == pytest.approx(
                (dec_phi(x, e + h) - dec_phi(x, e - h)) / (2 * h), rel=1e-5, abs=1e-8)
            assert _dec_Phi_eps(x, e) == pytest.approx(
                (_dec_Phi(x, e + h) - _dec_Phi(x, e - h)) / (2 * h), rel=1e-5, abs=1e-8)

    def test_Phi_is_antiderivative(self):
        from maxsat.systems import _dec_Phi
        for e in (0.3, 0.8, 1.0):
            q, _ = quad(lambda z: dec_phi(z, e), 0.0, 0.7, epsabs=1e-13, epsrel=1e-13)
            assert q == pytest.approx(_dec_Phi(0.7, e), abs=1e-11)

    def test_q_at_one_equals_minus_rate_over_lp1(self):
        psys = isi_system("x^3", "x^6")
        r = 1 - 3 / 6
        assert eps_of_x(psys, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert float(Q_of_x(psys, 1.0)) == pytest.approx(-r / 3.0, abs=1e-10)


class TestCompressedSensing:
    def test_gaussian_mmse(self):
        p = GaussianPrior(1.0)
        assert p.mmse(0.0) == 1.0
        assert p.mmse(3.0) == pytest.approx(0.25)

    def test_fixed_point_matches_quadratic_root(self):
        v, s2, delta = 1.0, 0.25, 0.5
        sys_ = cs_system(CsParams(GaussianPrior(v), s2, delta))
        b = delta * s2 + delta * v - v
        root = (-b + math.sqrt(b * b + 4 * delta * v * s2)) / 2
        x, _ = uncoupled_fixed_point(sys_, sys_.x_max)
        assert abs(x - root) <= 1e-10

    def test_quadrature_F_matches_mutual_information_F(self):
        params = CsParams(GaussianPrior(1.0), 0.25, 0.5)
        quad = cs_system(params)
        closed = cs_system(params, use_closed_form_F=True)
        ys = np.linspace(0.0, quad.y_max, 25)
        diff = max(abs(float(quad.F(float(y))) - float(closed.F(float(y)))) for y in ys)
        assert diff <= 1e-8

    def test_two_point_mmse_at_zero_is_variance(self):
        prior = TwoPointPrior(2.0, 0.3)
        assert prior.mmse(0.0) == pytest.approx(4.0 * 0.3 * 0.7, abs=1e-12)

    def test_two_point_mmse_vanishes_at_high_snr(self):
        prior = TwoPointPrior(1.0, 0.1)
        assert prior.mmse(1e6) <= 1e-3

    def test_two_point_degenerate_prior(self):
        assert TwoPointPrior(1.0, 1.0).mmse(5.0) == 0.0
        assert TwoPointPrior(1.0, 0.0).mmse(5.0) == 0.0

    def test_two_point_mmse_monotone(self):
        prior = TwoPointPrior(1.5, 0.2)
        snrs = np.linspace(0.0, 40.0, 300)
        vals = np.asarray(prior.mmse(snrs))
        assert np.min(-np.diff(vals)) >= -1e-12

    def test_two_point_system_builds_and_f_nondecreasing(self):
        sys_ = cs_system(CsParams(TwoPointPrior(1.0, 0.1), 0.3, 0.4))
        ys = np.linspace(0.0, sys_.y_max, 200)
        assert np.min(np.diff(np.asarray(sys_.f(ys)))) >= -1e-12

    def test_gaussian_derivatives(self):
        # f(y) = v / (1 + v (1/s2 - y)) and g(x) = 1/s2 - 1/(s2 + x/delta):
        # f' = v^2 / (1 + v (1/s2 - y))^2 through GaussianPrior.mmse_prime,
        # and g'' against central differences of g'
        v, s2, delta = 1.5, 0.25, 0.5
        s = cs_system(CsParams(GaussianPrior(v), s2, delta))
        ys = np.linspace(0.0, s.y_max, 21)
        assert np.allclose(s.f_prime(ys), v**2 / (1.0 + v * (1.0 / s2 - ys)) ** 2,
                           rtol=1e-14, atol=0.0)
        step = 1e-6
        fd = (s.f(ys[1:-1] + step) - s.f(ys[1:-1] - step)) / (2 * step)
        assert np.allclose(fd, s.f_prime(ys[1:-1]), rtol=1e-7, atol=0.0)
        xs = np.linspace(0.05, 0.95, 19) * s.x_max
        fd = (s.g_prime(xs + step) - s.g_prime(xs - step)) / (2 * step)
        assert np.allclose(fd, s.g_second(xs), rtol=1e-7, atol=0.0)
        assert np.all(np.abs(s.g_second(xs)) <= s.g_second_sup)

    def test_K_fg_bound(self):
        # g' and g'' carry their suprema at x = 0; f' is grid-maximized, and
        # rises in y, so its sup is at y_max, where 1/s2 - y = 1/(s2 + v/delta)
        v, s2, delta = 1.5, 0.25, 0.5
        s = cs_system(CsParams(GaussianPrior(v), s2, delta))
        gp, gpp = 1.0 / (delta * s2**2), 2.0 / (delta**2 * s2**3)
        fp = 1.01 * v**2 / (1.0 + v / (s2 + v / delta)) ** 2
        assert (s.g_prime_sup, s.g_second_sup) == pytest.approx((gp, gpp), rel=1e-15)
        assert K_fg_bound(s) == pytest.approx(gpp * v + gp + fp * gp * gp, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ConstructionError):
            CsParams(GaussianPrior(1.0), -0.1, 0.5)
        with pytest.raises(ConstructionError):
            CsParams(GaussianPrior(1.0), 0.1, 0.0)
        for variance in (0.0, -1.0):
            with pytest.raises(ConstructionError, match="variance must be positive"):
                GaussianPrior(variance)
        for rho_s in (-0.1, 1.5):
            with pytest.raises(ConstructionError, match=r"rho_s must lie in \[0, 1\]"):
                TwoPointPrior(1.0, rho_s)
        for snr in (-1.0, np.array([0.5, -1e-3])):
            with pytest.raises(DomainError, match="snr must be >= 0"):
                TwoPointPrior(1.0, 0.1).mmse(snr)
        with pytest.raises(ConstructionError, match="degenerate prior"):
            cs_system(CsParams(TwoPointPrior(0.0, 0.3), 0.1, 0.5))
        with pytest.raises(ConstructionError, match="only available for the Gaussian prior"):
            cs_system(CsParams(TwoPointPrior(1.0, 0.1), 0.1, 0.5), use_closed_form_F=True)


class TestPathological:
    def test_f_prime_matches_fd(self):
        s = pathological_system()
        rng = np.random.default_rng(23)
        for x in rng.uniform(0.05, 0.99, 100):
            h = 1e-8
            fd = (s.f(x + h) - s.f(x - h)) / (2 * h)
            assert abs(fd - s.f_prime(float(x))) <= 1e-5

    def test_f_prime_limit_at_zero(self):
        s = pathological_system()
        assert s.f_prime(0.0) == 1.0
        assert s.f(0.0) == 0.0

    def test_local_minima_accumulate(self):
        s = pathological_system()
        xs = np.linspace(0.01, 0.1, 20001)
        us = np.asarray(U_s(s, xs))
        interior = np.arange(1, len(xs) - 1)
        n_min = int(np.sum((us[interior] < us[interior - 1])
                           & (us[interior] <= us[interior + 1])))
        assert n_min >= 5


@pytest.mark.parametrize("build", [
    lambda: ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                        DegreeDistribution.from_edge(EX8_RHO)),
    lambda: ldgm_system("x^6", DegreeDistribution.from_edge(EX9_RHO)),
    lambda: gldpc_system(GldpcParams(31, 4)),
    lambda: isi_system("x^3", "x^6"),
], ids=["ldpc8", "ldgm9", "gldpc31", "isi36"])
def test_family_is_freed_by_reference_counting(build):
    # a family holds tables of the analysis grid once analysed; a reference
    # cycle through one of its fields would keep them until the cyclic
    # collector runs, which raised the benchmark's peak memory by 3 MB
    psys = build()
    threshold_report(psys)
    ref = weakref.ref(psys)
    gc.disable()
    try:
        del psys
        assert ref() is None
    finally:
        gc.enable()
