"""The elementwise contract of family callables (maxsat.thresholds).

x of shape (K, M) with eps of shape (K, 1) evaluates K parameter values in
one call: maps return (K, M), partials broadcast to it, and row k equals
the call with the scalar eps[k, 0] bit for bit. A Python float x with a
float eps gives a Python float, equal bit for bit to the entry of the same
x in the array, and so does x as a 0-d array or a numpy scalar, up to
the kind of scalar, and x and eps both of shape (L,) give entry l the
bits of the call with their l-th entries.
On random degree profiles the families also keep potential descent and
symmetric, unimodal coupled iterates, and their thresholds computed from
these callables match coefficient oracles and stay ordered.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxsat.errors import ThresholdUndefinedError
from maxsat.invariants import coupled_symmetric_unimodal, potential_descent
from maxsat.recursion import CouplingSpec
from maxsat.systems import (
    DegreeDistribution,
    GldpcParams,
    gldpc_system,
    isi_system,
    ldgm_system,
    ldpc_system,
)
from maxsat.thresholds import (Psi, eps_c, eps_of_x, eps_single, eps_stab, map_exit_curve,
                               threshold_report, xf_intervals)

EX8_LAMBDA = "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"
EX8_RHO = "0.6 x^4 + 0.4 x^12"
EX9_RHO = "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3"

MAPS = ("f", "g", "F", "G", "exit_fn", "h", "u", "exit_value")
PARTIALS = ("f_x", "g_x", "g_xx", "f_eps", "g_eps", "F_eps", "G_eps",
            "h_x", "h_eps", "u_eps")
# callables of x alone, where a family has them
X_ONLY = ("trial_entropy", "trial_entropy_prime")

FAMILIES = {
    "ldpc8": lambda: ldpc_system(DegreeDistribution.from_edge(EX8_LAMBDA),
                                 DegreeDistribution.from_edge(EX8_RHO)),
    "ldgm9": lambda: ldgm_system("x^6", DegreeDistribution.from_edge(EX9_RHO)),
    "isi": lambda: isi_system("x^3", "x^6"),
    "gldpc31": lambda: gldpc_system(GldpcParams(31, 4)),
    "gldpc63": lambda: gldpc_system(GldpcParams(63, 5)),
}


# an eps whose square by a float's pow differs from numpy's array square
# in the last bit, which broke isi's lanes while dec_phi wrote eps**2
POW_ROUNDING_EPS = 0.42672114373024106


def lanes(K: int = 7, M: int = 50):
    """K lanes over eps in [0, 1], each on its own x-grid through 0 and 1."""
    rng = np.random.default_rng(6)
    X = np.sort(rng.uniform(0.0, 1.0, (K, M)), axis=1)
    X[:, 0], X[:, -1] = 0.0, 1.0
    E = np.concatenate(([0.0, 1.0, POW_ROUNDING_EPS], rng.uniform(0.0, 1.0, K - 3)))
    return X, E[:, None]


def assert_lane_contract(psys, X, E):
    K, M = X.shape
    for name in MAPS + PARTIALS:
        fn = getattr(psys, name)
        out = np.asarray(fn(X, E), dtype=float)
        if name in MAPS:
            assert out.shape == X.shape, name
        out = np.broadcast_to(out, X.shape)
        for k in range(K):
            row = np.broadcast_to(np.asarray(fn(X[k], float(E[k, 0])), dtype=float), (M,))
            assert np.array_equal(out[k], row), (name, k)


def assert_scalar_lane(psys, X, E):
    """Every callable at each Python float x (and the lane's float eps)
    gives a float equal bit for bit to the entry of x in the array call,
    and at x as a 0-d array or a numpy scalar a scalar with the same
    bits."""
    calls = [(name, getattr(psys, name)) for name in MAPS + PARTIALS]
    calls += [(name, (lambda fn: lambda x, e: fn(x))(getattr(psys, name)))
              for name in X_ONLY if getattr(psys, name) is not None]
    for name, fn in calls:
        for k in range(X.shape[0]):
            e = float(E[k, 0])
            # x = 0 is left out of the x-only callables: eps(x) is x / 0 there
            xs = X[k, 1:] if name in X_ONLY else X[k]
            row = np.broadcast_to(np.asarray(fn(xs, e), dtype=float), xs.shape)
            for x, want in zip(xs.tolist(), row.tolist()):
                got = fn(x, e)
                assert isinstance(got, float), (name, x, e, type(got))
                got_0d, got_np = fn(np.asarray(x), e), fn(np.float64(x), e)
                assert np.shape(got_0d) == () and np.shape(got_np) == (), (name, x, e)
                for out in (got, float(got_0d), float(got_np)):
                    assert out == want or (out != out and want != want), (name, x, e, out, want)
                    assert math.copysign(1.0, out) == math.copysign(1.0, want), (name, x, e)


def assert_vector_lane(psys, X, E):
    """Every map at x and eps both of shape (L,), one eps per entry, as the
    batched searches of map_exit_curve call u and h: each entry equal bit
    for bit to the call with that entry's floats."""
    x, e = X.ravel(), np.repeat(E[:, 0], X.shape[1])
    for name in MAPS:
        fn = getattr(psys, name)
        out = np.asarray(fn(x, e), dtype=float)
        assert out.shape == x.shape, name
        want = np.array([fn(a, b) for a, b in zip(x.tolist(), e.tolist())], dtype=float)
        assert out.view(np.int64).tolist() == want.view(np.int64).tolist(), name


def assert_open_grid(psys, X, E):
    """Every callable at x of shape (M,) with eps of shape (K, 1), the open
    grid the MAP batch scans, broadcast to (K, M) equals the call on the
    full mesh bit for bit."""
    x = X[0]
    mesh = np.broadcast_to(x, (E.shape[0], x.size))
    for name in MAPS + PARTIALS:
        fn = getattr(psys, name)
        out = np.broadcast_to(np.asarray(fn(x, E), dtype=float), mesh.shape)
        want = np.broadcast_to(np.asarray(fn(mesh, E), dtype=float), mesh.shape)
        assert np.array_equal(out.view(np.int64), want.view(np.int64)), name


@pytest.mark.parametrize("family", FAMILIES)
def test_lane_contract(family):
    assert_lane_contract(FAMILIES[family](), *lanes())


@pytest.mark.parametrize("family", FAMILIES)
def test_open_grid(family):
    assert_open_grid(FAMILIES[family](), *lanes(K=8, M=1000))


@pytest.mark.parametrize("family, fields", [("ldpc8", ("f", "g", "F", "G")),
                                            ("ldgm9", ("g", "G"))])
def test_map_batch_passes_open_grids(family, fields):
    # a 101-eps MAP curve evaluates each factor of x alone on a row, not
    # on a (k, M) mesh: g and G on both families, and f and F too where g
    # does not depend on eps; the jump bisection's probes are floats
    psys, seen = FAMILIES[family](), []

    def recorded(name, fn):
        def call(x, e):
            seen.append((name, np.ndim(x)))
            return fn(x, e)
        return call

    psys = dataclasses.replace(psys, **{n: recorded(n, getattr(psys, n)) for n in fields})
    # measured on validate_param_system's mesh, not part of the batch
    assert psys.eps_free_check_side is (family == "ldpc8")
    seen.clear()
    map_exit_curve(psys, np.linspace(0.0, psys.eps_max, 101))
    assert {name for name, _ in seen} == set(fields)
    assert max(ndim for _, ndim in seen) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_vector_lane(family):
    assert_vector_lane(FAMILIES[family](), *lanes(K=8, M=100))


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_lane(family):
    assert_scalar_lane(FAMILIES[family](), *lanes(K=8, M=1000))


@st.composite
def node_profile(draw, required):
    """Node-perspective coefficients over degrees 1..8 with every degree in
    required present and up to two more drawn."""
    degrees = list(required) + draw(st.lists(st.integers(1, 8), max_size=2))
    coeffs = [0.0] * 9
    for d in degrees:
        coeffs[d] += draw(st.floats(0.05, 1.0))
    total = sum(coeffs)
    return [c / total for c in coeffs]


@st.composite
def family_draw(draw):
    """A builder with a degree profile pair it accepts: g' > 0 inside the
    domain needs a check degree of at least 2. ldgm draws degree-1 checks
    (rho(0) > 0) and a bit degree of at least 2, which keep h_eps > 0 up
    to x = 1, so the drawn ldgm families are proper; without them one
    builds as a non-proper family."""
    builder = draw(st.sampled_from([ldpc_system, ldgm_system, isi_system]))
    top = draw(st.integers(2, 8))
    if builder is ldgm_system:
        L = draw(node_profile([draw(st.integers(2, 8))]))
        R = draw(node_profile([1, top]))
    else:
        L = draw(node_profile([draw(st.integers(1, 8))]))
        R = draw(node_profile([top]))
    return builder(L, R)


# the slice stays below eps = 1, where ldgm's g is the constant 1 (g' = 0,
# not a system) and its potential flat, so no update strictly descends
@settings(derandomize=True, deadline=None, max_examples=100)
@given(psys=family_draw(), eps=st.floats(0.0, 0.99))
def test_random_profiles_keep_contract_and_descent(psys, eps):
    assert_lane_contract(psys, *lanes(K=4, M=20))
    s = psys.at_eps(eps, validate=True)
    assert potential_descent([s], np.random.default_rng(0), 200)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(psys=family_draw())
def test_random_profiles_keep_scalar_lane(psys):
    assert_scalar_lane(psys, *lanes(K=4, M=50))


# a float x is solved on floats, an array lane by lane; the two must
# agree bit for bit wherever eps(x) is defined
@settings(derandomize=True, deadline=None, max_examples=40)
@given(psys=family_draw(), u=st.floats(0.0, 1.0))
def test_random_profiles_float_eps_of_x_matches_its_lane(psys, u):
    xs = np.linspace(1e-3, psys.x_max, 200)
    ok = ((np.asarray(psys.h(xs, 0.0), dtype=float) <= xs + 1e-12)
          & (np.asarray(psys.h(xs, psys.eps_max), dtype=float) >= xs - 1e-12))
    if not ok.any():
        return
    x = float(xs[ok][int(u * (ok.sum() - 1))])
    got = eps_of_x(psys, x)
    assert isinstance(got, float)
    assert got == float(eps_of_x(psys, np.array([x]))[0])


@st.composite
def gldpc_draw(draw):
    n = draw(st.sampled_from([15, 31, 63]))
    return gldpc_system(GldpcParams(n, draw(st.integers(2, (n - 1) // 2))))


def looped_xf_intervals(psys):
    """xf_intervals by a plain loop over the fixed-point-domain mask of the
    10^4-point grid of (0, x_max]."""
    xs = np.linspace(0.0, psys.x_max, 10**4)[1:]
    mask = ((np.asarray(psys.h(xs, 0.0), dtype=float) <= xs + 1e-12)
            & (np.asarray(psys.h(xs, psys.eps_max), dtype=float) >= xs - 1e-12))
    intervals, start = [], None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            intervals.append((float(xs[start]), float(xs[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(xs[start]), float(xs[-1])))
    return intervals, bool(intervals and intervals[0][0] <= float(xs[1]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(psys=st.one_of(family_draw(), gldpc_draw()))
def test_random_profiles_xf_intervals_match_loop(psys):
    assert xf_intervals(psys) == looped_xf_intervals(psys)


@st.composite
def stability_case(draw):
    """An ldpc or isi family and its stability threshold from the node
    coefficients alone, None when lam(0) > 0. h'(0; eps) is
    phi(0; eps) lam'(0) rho'(1) with phi(0; eps) = eps for ldpc and
    dec_phi(0; eps) = eps^2 for isi, lam'(0) = 2 L_2 / L'(1) and
    rho'(1) = R''(1) / R'(1)."""
    builder = draw(st.sampled_from([ldpc_system, isi_system]))
    # a required bit degree of 1, 2 or 3 draws undefined, finite and
    # unit thresholds alike
    L = draw(node_profile([draw(st.integers(1, 3))]))
    R = draw(node_profile([draw(st.integers(2, 8))]))
    if L[1] > 0.0:
        return builder(L, R), None
    s = (2.0 * L[2] / sum(d * c for d, c in enumerate(L))
         * sum(d * (d - 1) * c for d, c in enumerate(R))
         / sum(d * c for d, c in enumerate(R)))
    power = 1.0 if builder is ldpc_system else 2.0
    return builder(L, R), 1.0 if s <= 1.0 else s ** (-1.0 / power)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(case=stability_case())
def test_random_profiles_stability_and_threshold_order(case):
    psys, oracle = case
    if oracle is None:
        with pytest.raises(ThresholdUndefinedError):
            eps_stab(psys)
    else:
        assert eps_stab(psys) == pytest.approx(oracle, abs=1e-9)
    tol = 1e-9
    rep = threshold_report(psys, tol)
    if rep.eps_c is not None and rep.eps_stab is not None:
        assert rep.eps_c <= rep.eps_stab
    if rep.eps_single is not None and rep.eps_c is not None:
        assert rep.eps_single <= rep.eps_c + 10 * tol
    if rep.eps_c is not None:
        assert rep.eps_maxwell is not None
        assert abs(rep.eps_c - rep.eps_maxwell) <= 1e-8


def bisected_eps_c(psys, tol):
    """sup{eps : Psi(eps) >= -1e-12} by plain bisection of [0, eps_max]
    to tol, capped by eps_stab as eps_c is."""
    lo, hi = 0.0, psys.eps_max
    if Psi(psys, hi) >= -1e-12:
        lo = hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if Psi(psys, mid) >= -1e-12:
            lo = mid
        else:
            hi = mid
    return min(0.5 * (lo + hi), eps_stab(psys))


# ldgm draws and bit degree-1 draws have no zero fixed point, and eps_c
# is undefined; isi's U_s is not affine in eps, unlike ldpc's
@settings(derandomize=True, deadline=None, max_examples=40)
@given(psys=family_draw())
def test_random_profiles_eps_c_matches_bisection(psys):
    tol = 1e-9
    if not psys.zero_is_fixed_point:
        with pytest.raises(ThresholdUndefinedError):
            eps_c(psys, tol)
        return
    assert abs(eps_c(psys, tol) - bisected_eps_c(psys, tol)) <= 2 * tol


def table_grid(psys):
    """The fixed-point table's grid: the analysis grid with its first point
    at 1e-9."""
    xs = np.linspace(0.0, psys.x_max, 10**4)
    xs[0] = 1e-9
    return xs


def bisected_eps_single(psys):
    """sup{eps : h(x; eps) < x at every point of eps_single's grid} by
    plain bisection of [0, eps_max] to 1e-12 over that predicate, capped by
    eps_stab when 0 is a fixed point, as eps_single is."""
    xs = table_grid(psys)

    def below(e):
        return bool(np.all(np.asarray(psys.h(xs, e), dtype=float) < xs))

    if not below(0.0):
        return None
    lo, hi = 0.0, psys.eps_max
    if below(hi):
        lo = hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    es = 0.5 * (lo + hi)
    return min(es, eps_stab(psys)) if psys.zero_is_fixed_point else es


def assert_eps_single_matches_bisection(psys):
    oracle = bisected_eps_single(psys)
    if oracle is None:
        with pytest.raises(ThresholdUndefinedError):
            eps_single(psys)
    else:
        assert abs(eps_single(psys) - oracle) <= 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_eps_single_matches_bisection(family):
    assert_eps_single_matches_bisection(FAMILIES[family]())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(psys=family_draw())
def test_random_profiles_eps_single_matches_bisection(psys):
    assert_eps_single_matches_bisection(psys)


# eps_single is the minimum of the fixed-point table's eps column, solved
# as eps_of_x solves it: the value must be the minimum of eps_of_x over the
# table's points where h(x; eps_max) >= x
@settings(derandomize=True, deadline=None, max_examples=40)
@given(psys=family_draw())
def test_random_profiles_eps_single_equals_unpruned_minimum(psys):
    xs = table_grid(psys)
    if not np.all(np.asarray(psys.h(xs, 0.0), dtype=float) < xs):
        return  # undefined, as the comparison with the plain bisection checks
    xs = xs[np.asarray(psys.h(xs, psys.eps_max), dtype=float) >= xs]
    ref = float(np.min(eps_of_x(psys, xs))) if xs.size else psys.eps_max
    if psys.zero_is_fixed_point:
        ref = min(ref, eps_stab(psys))
    assert eps_single(psys) == ref


# from the all-x_max start every coupled iterate is symmetric and
# non-decreasing up to the midpoint; the draws hold chains that decode,
# chains that stop at a non-zero profile and some that take 1000 steps
@settings(derandomize=True, deadline=None, max_examples=100)
@given(psys=st.one_of(family_draw(), gldpc_draw()), eps=st.floats(0.0, 0.99),
       N=st.integers(8, 40), w=st.integers(2, 5))
def test_random_chains_stay_symmetric_and_unimodal(psys, eps, N, w):
    assert coupled_symmetric_unimodal([(psys.at_eps(eps), CouplingSpec(N, w))])
