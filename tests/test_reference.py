"""High-precision references: values computed at 40 digits with mpmath
from the closed forms of the systems, or certified by exact root isolation
(certified.py), using none of the library's solvers, against what the
library computes. Each comparison uses the tolerance the library routine
states for itself.
"""

import mpmath as mp
import pytest
import sympy as sp

import certified

from maxsat.potential import potential_report
from maxsat.recursion import fixed_points_of
from maxsat.systems import (
    DegreeDistribution,
    GldpcParams,
    example2_system,
    gldpc_system,
    ldgm_system,
    ldpc_system,
)
from maxsat.errors import ThresholdUndefinedError
from maxsat.thresholds import ParamSystem, eps_c, eps_stab, maxwell_threshold, threshold_report

mp.mp.dps = 40
D = mp.mpf

# polynomials as (coefficient, power) pairs
LAMBDA8 = [(D("0.2"), 1), (D("0.25"), 2), (D("0.1"), 6), (D("0.45"), 20)]
RHO8 = [(D("0.6"), 4), (D("0.4"), 12)]
R_EX2 = [(D(2) / 15, 1), (D(1) / 15, 2), (D(7) / 15, 3), (D(1) / 3, 4)]
RHO9 = [(D(2) / 45, 0), (D(2) / 45, 1), (D(7) / 15, 2), (D(4) / 9, 3)]


def poly(p, x):
    return sum(c * x**k for c, k in p)


def integral(p, x):
    return sum(c * x ** (k + 1) / (k + 1) for c, k in p)


def roots_on_unit_interval(fn, n=1000):
    """Roots of fn on (0, 1] bracketed by sign changes on the grid i/n."""
    xs = [D(i) / n for i in range(1, n + 1)]
    vals = [fn(x) for x in xs]
    return [mp.findroot(fn, (a, b), solver="anderson")
            for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]) if fa * fb < 0]


def fresh_ldpc8():
    """ldpc8 built anew, so that its kept thresholds are its own."""
    return ldpc_system(DegreeDistribution.from_edge("0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"),
                       DegreeDistribution.from_edge("0.6 x^4 + 0.4 x^12"))


@pytest.fixture(scope="module")
def ldpc8():
    return fresh_ldpc8()


def ldpc8_maxwell_reference():
    # along the fixed-point curve eps(x) = x / lambda(g(x)) the potential is
    # Q(x) = x g(x) - G(x) - eps(x) Lambda(g(x)), with g(x) = 1 - rho(1-x)
    def g(x):
        return 1 - poly(RHO8, 1 - x)

    def eps(x):
        return x / poly(LAMBDA8, g(x))

    def Q(x):
        G = x - integral(RHO8, 1) + integral(RHO8, 1 - x)
        return x * g(x) - G - eps(x) * integral(LAMBDA8, g(x))

    (root,) = roots_on_unit_interval(Q)
    return eps(root)


def test_ldpc8_thresholds(ldpc8):
    maxwell = ldpc8_maxwell_reference()
    # 1 / (lambda'(0) rho'(1)), lambda'(0) being the coefficient of x
    stab = 1 / (LAMBDA8[0][0] * sum(c * k for c, k in RHO8))
    assert mp.nstr(maxwell, 17) == "0.62192946106120967"
    assert mp.almosteq(stab, D(25) / 36, rel_eps=D(10) ** -35)
    assert abs(maxwell_threshold(ldpc8) - maxwell) <= 1e-12
    assert abs(eps_c(ldpc8) - maxwell) <= 1e-9
    assert abs(eps_stab(ldpc8) - stab) <= 1e-9


def bisect(fn, lo, hi, steps=140):
    """Root of fn in [lo, hi], given a sign change there; 140 halvings of a
    1e-2 bracket reach below 1e-40."""
    f_lo = fn(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if fn(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def gldpc_maxwell_reference(n, t):
    # g(x) = I_x(t, n - t), the chance that t or more of the other n - 1
    # bits are erased, f(y; eps) = eps y and F(y; eps) = eps y^2 / 2, and
    # G(x) = x I_x(t, n - t) - (t/n) I_x(t + 1, n - t); so along
    # eps(x) = x / g(x) the potential x g - G - F(g; eps) becomes
    # Q(x) = (t/n) I_x(t + 1, n - t) - x I_x(t, n - t) / 2
    def I(x, a, b):
        return mp.betainc(a, b, 0, x, regularized=True)

    def Q(x):
        return D(t) / n * I(x, t + 1, n - t) - x * I(x, t, n - t) / 2

    # Q ~ C(n-1, t) x^(t+1) (t/(t+1) - 1/2) > 0 near 0; the grid i/100
    # must show exactly one sign change
    xs = [D(i) / 100 for i in range(1, 101)]
    qs = [Q(x) for x in xs]
    ((lo, hi),) = [(a, b) for a, b, qa, qb in zip(xs, xs[1:], qs, qs[1:]) if qa * qb < 0]
    root = bisect(Q, lo, hi)
    return root / I(root, t, n - t)


@pytest.mark.parametrize("n, t, digits", [
    (31, 4, "0.25545820811870525"),
    (63, 5, "0.1576458811743199"),
])
def test_gldpc_thresholds(n, t, digits):
    maxwell = gldpc_maxwell_reference(n, t)
    assert mp.nstr(maxwell, 17) == digits
    psys = gldpc_system(GldpcParams(n, t))
    assert abs(maxwell_threshold(psys) - maxwell) <= 1e-12
    assert abs(eps_c(psys) - maxwell) <= 1e-9


# ldpc8's certified thresholds, printed by `python tests/certified.py`,
# which takes about 25 s for ldpc8
LDPC8_CERTIFIED = {"eps_maxwell": 0.62192946106120966856,
                   "eps_single": 0.61468580538383431884}


def assert_certified_thresholds(psys, cert):
    tol = 1e-9
    rep = threshold_report(psys, tol)
    assert abs(rep.eps_maxwell - float(cert["eps_maxwell"])) <= 2e-13
    # eps_c certifies the Maxwell threshold, so it meets that bound too,
    # well inside tol; the Newton search alone landed 1.8e-10 to 2.5e-10 off
    assert abs(rep.eps_c - float(cert["eps_maxwell"])) <= 2e-13
    # eps_single is a minimum over grid points, so it lies above the
    # threshold, by about 1e-8 on a grid of spacing 1e-4
    assert float(cert["eps_single"]) <= rep.eps_single <= float(cert["eps_single"]) + 5e-8
    return rep


def test_certified_ldpc8_thresholds(ldpc8):
    rep = assert_certified_thresholds(ldpc8, LDPC8_CERTIFIED)
    # 1 / (lambda'(0) rho'(1))
    stab = 1 / (certified.LAMBDA8.diff().eval(0) * certified.RHO8.diff().eval(1))
    assert stab == sp.Rational(25, 36)
    assert abs(rep.eps_stab - float(stab)) <= 1e-12


@pytest.mark.parametrize("n, t", [(31, 4), (63, 5)])
def test_certified_gldpc_thresholds(n, t):
    assert_certified_thresholds(gldpc_system(GldpcParams(n, t)), certified.gldpc(n, t))


@pytest.fixture
def minimizations(monkeypatch):
    import maxsat.thresholds as thr
    calls, real = [], thr.minimize_us_at

    def counting(psys, eps, *a, **k):
        calls.append(eps)
        return real(psys, eps, *a, **k)

    monkeypatch.setattr(thr, "minimize_us_at", counting)
    return calls


def test_eps_c_certificate_takes_six_minimizations(minimizations):
    # Psi at 0 and eps_stab, the two probes at eps_maxwell -+ 0.4 tol and
    # the cross-check's two; the midpoint of the probes is eps_maxwell
    psys = fresh_ldpc8()
    assert eps_c(psys) == maxwell_threshold(psys)
    assert len(minimizations) == 6


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_eps_c_recovers_from_a_wrong_maxwell_value(monkeypatch, minimizations, offset):
    # a Maxwell value 1e-6 off fails its certificate, and the Newton search
    # goes on from the bracket the probes left
    psys = fresh_ldpc8()
    (value, note), _ = psys._maxwell
    monkeypatch.setitem(psys.__dict__, "_maxwell", ((value + offset, note), None))
    tol = 1e-9
    assert abs(eps_c(psys, tol) - float(LDPC8_CERTIFIED["eps_maxwell"])) <= tol
    assert len(minimizations) > 6
    assert eps_c_note(psys, tol) == NEWTON_NOTE


# the note of eps_c in a threshold report, one per route
STAB_NOTE = "eps_stab, where min_x U_s(x;eps) >= 0 still holds"
CERTIFIED_NOTE = "min_x U_s(x;eps) >= 0 certified at eps_maxwell -+ 0.4 tol"
NEWTON_NOTE = "min_x U_s(x;eps) >= 0 found by safeguarded Newton"


def eps_c_note(psys, tol=1e-9):
    return dict(threshold_report(psys, tol).notes)["eps_c"]


def test_eps_c_note_names_the_certificate():
    assert eps_c_note(fresh_ldpc8()) == CERTIFIED_NOTE


def test_eps_c_note_names_the_eps_stab_return():
    # a continuous transition: Psi(eps_stab) is within the -1e-12 margin,
    # so eps_c returns eps_stab and runs neither search
    psys = ldpc_system("x^2", "x^6")
    rep = threshold_report(psys)
    assert rep.eps_c == rep.eps_stab
    assert eps_c_note(psys) == STAB_NOTE


# ldpc8's eps_c by the Newton search alone, the value before eps_c
# certified the Maxwell threshold
LDPC8_NEWTON_EPS_C = 0.6219294608435273


@pytest.mark.parametrize("kept", ["undefined", "at eps_stab"])
def test_eps_c_without_a_maxwell_value_keeps_the_newton_bits(monkeypatch, kept):
    # a Maxwell threshold that is undefined, or not below eps_stab, gives
    # no value to certify
    psys = fresh_ldpc8()
    held = (None, "no root") if kept == "undefined" else ((eps_stab(psys), "rule"), None)
    monkeypatch.setitem(psys.__dict__, "_maxwell", held)
    assert eps_c(psys) == LDPC8_NEWTON_EPS_C


def test_eps_c_of_a_family_that_is_not_proper_keeps_the_newton_bits():
    # ldpc8's callables with f_eps = 0, so h_eps = 0 and the Maxwell
    # threshold is undefined, while eps_c reads neither f_eps nor h_eps
    ldpc8 = fresh_ldpc8()
    names = ("f", "g", "f_x", "g_x", "g_xx", "g_eps", "F", "G", "F_eps", "G_eps")
    psys = ParamSystem(**{n: getattr(ldpc8, n) for n in names}, f_eps=lambda x, e: 0.0)
    assert not psys.proper
    with pytest.raises(ThresholdUndefinedError):
        maxwell_threshold(psys)
    assert eps_c(psys) == LDPC8_NEWTON_EPS_C


def test_example2_gap_and_minimizer():
    # f(y) = y^5 and g(x) = 1 - rho(1-x)/2 with rho = R'/R'(1), R'(1) = 3
    def g(x):
        return 1 - sum(c * k * (1 - x) ** (k - 1) for c, k in R_EX2) / 6

    def U(x):
        G = x - (1 - poly(R_EX2, 1 - x)) / 6
        return x * g(x) - G - g(x) ** 6 / 6

    fixed = roots_on_unit_interval(lambda x: x - g(x) ** 5)
    assert len(fixed) == 3
    # no minimizer at the ends: both lie above the lowest fixed point
    x_upper = min(fixed, key=U)
    assert U(x_upper) < min(U(D(0)), U(D(1)))
    delta = min(U(x) - U(x_upper) for x in fixed if x > x_upper)
    assert mp.nstr(delta, 15) == "0.00201100077694863"

    rep = potential_report(example2_system())
    assert abs(rep.delta_gap - delta) <= 1e-12
    # the golden candidate merges with the bisected fixed point, which is
    # kept; bisection resolves it to 1e-12
    assert abs(rep.x_upper_star - x_upper) <= 1e-12


def test_fixed_point_near_zero_keeps_its_digits():
    # ldgm9 at eps = 0.04: h(x) = (1 - (1 - eps) rho(1 - x))^5, whose one
    # fixed point lies near eps^5 = 1.024e-7, in the grid's first cell; an
    # absolute 1e-12 bracket left it 3e-7 off relative
    eps = D("0.04")
    root = mp.findroot(lambda x: x - (1 - (1 - eps) * poly(RHO9, 1 - x)) ** 5,
                       (D("1e-8"), D("1e-6")), solver="anderson")
    assert mp.nstr(root, 19) == "1.024029081661664838e-7"
    psys = ldgm_system("x^6", DegreeDistribution.from_edge("2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"))
    s = psys.at_eps(0.04)
    (x,) = fixed_points_of(s.h, s.x_max)
    assert abs(x - root) <= 1e-12 * root
