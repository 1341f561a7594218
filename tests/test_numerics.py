import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxsat.errors import ConstructionError, DomainError
from maxsat.numerics import (
    Polynomial,
    _brent_lanes,
    _golden_lanes,
    bisect_root,
    gauss_hermite,
    golden_min,
    parse_polynomial,
)
from maxsat.recursion import IterationConfig


class TestPolynomial:
    def test_horner_matches_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            coeffs = rng.normal(size=rng.integers(1, 9))
            p = Polynomial(tuple(coeffs))
            xs = rng.uniform(-2, 2, 11)
            ref = np.polyval(coeffs[::-1], xs)
            assert np.allclose(p(xs), ref, rtol=1e-13, atol=1e-13)

    def test_scalar_in_scalar_out(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert isinstance(p(0.5), float)
        assert p(0.5) == 1.0 + 2.0 * 0.5 + 3.0 * 0.25

    @staticmethod
    def dense_horner(coeffs, x):
        r = 0.0
        for c in reversed(coeffs):
            r = r * x + c
        return r

    # degree 0 to 30 with about 70% of the coefficients zero; the constant
    # and the all-zero polynomial are drawn too. -0.0 and 0.0 are among
    # the points, so the sign of a zero result is compared as well
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(coeffs=st.lists(st.tuples(st.integers(0, 9), st.floats(-2.0, 2.0)),
                           min_size=1, max_size=31)
           .map(lambda terms: tuple(c if k >= 7 else 0.0 for k, c in terms)),
           x=st.floats(-2.0, 2.0),
           xs=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                     elements=st.floats(-2.0, 2.0)))
    @example(coeffs=(0.0,), x=-0.0, xs=np.array([[-0.0, 0.0, 1.5]]))
    @example(coeffs=(0.0, 0.0, -1.0), x=0.0, xs=np.array([[0.0, -0.0, 2.0]]))
    @example(coeffs=(0.5,), x=1.0, xs=np.array([[0.25]]))
    def test_zero_skipping_is_bit_equal_to_dense_horner(self, coeffs, x, xs):
        p = Polynomial(coeffs)
        out = p(x)
        assert type(out) is float
        ref = np.float64(self.dense_horner(p.coeffs, x)).tobytes()
        # a 0-d array takes the zero-skipping loop that arrays take
        assert np.float64(out).tobytes() == ref == np.float64(p(np.array(x))).tobytes()
        out = p(xs)
        ref = np.asarray(self.dense_horner(p.coeffs, xs))
        assert out.shape == xs.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_derivative_antiderivative_roundtrip(self):
        p = Polynomial((0.0, 0.2, 0.25, 0.0, 0.55))
        assert p.antiderivative().derivative().coeffs == p.coeffs
        assert p.antiderivative()(0.0) == 0.0

    def test_parse_edge_profile(self):
        p = parse_polynomial("0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20")
        assert p.degree == 20
        assert p.coeffs[1] == 0.2
        assert p.coeffs[6] == 0.1
        assert p(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_parse_fractions_and_constant(self):
        p = parse_polynomial("2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3")
        assert p.coeffs[0] == pytest.approx(2 / 45, abs=1e-16)
        assert p.coeffs[3] == pytest.approx(4 / 9, abs=1e-16)

    def test_parse_bare_and_star(self):
        assert parse_polynomial("x^5").coeffs == (0.0,) * 5 + (1.0,)
        assert parse_polynomial("0.5*x").coeffs == (0.0, 0.5)

    @pytest.mark.parametrize("bad", ["", "x^", "y + 1", "^2", "1 + ^3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(DomainError):
            parse_polynomial(bad)

    def test_parse_rejects_exponent_without_variable(self):
        with pytest.raises(DomainError, match=r"^exponent without variable in term ' 2\^3'$"):
            parse_polynomial("x + 2^3")


class TestSolvers:
    def test_bisect_root_sqrt2(self):
        r = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-9)
        assert abs(r - math.sqrt(2)) <= 1e-9

    def test_bisect_root_needs_bracket(self):
        with pytest.raises(DomainError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("solver", [bisect_root, golden_min])
    def test_reversed_bracket_rejected(self, solver):
        with pytest.raises(DomainError, match=r"^invalid bracket \[1\.0, 0\.0\]$"):
            solver(lambda x: x - 0.5, 1.0, 0.0)

    def test_golden_min_parabola(self):
        x = golden_min(lambda t: (t - 0.3) ** 2, 0.0, 1.0, 1e-10)
        assert abs(x - 0.3) <= 1e-9

    def test_deterministic(self):
        f = lambda x: math.cos(3 * x) + x
        assert bisect_root(lambda x: x**3 - 0.1, 0.0, 1.0) == \
            bisect_root(lambda x: x**3 - 0.1, 0.0, 1.0)
        assert golden_min(f, 0.0, 2.0) == golden_min(f, 0.0, 2.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN tol ends every loop at once and an infinite one returns the
        # first midpoint, so both are rejected before any evaluation
        calls = []

        def probe(t):
            calls.append(t)
            return t - 0.5

        with pytest.raises(DomainError):
            bisect_root(probe, 0.0, 1.0, tol)
        with pytest.raises(DomainError):
            golden_min(lambda t: probe(t) ** 2, 0.0, 1.0, tol)
        with pytest.raises(ConstructionError):
            IterationConfig(tol=tol)
        assert calls == []


_EPS = float(np.finfo(float).eps)


@st.composite
def monotone_root_problem(draw):
    """A strictly monotone function with a sign change on [lo, hi]: an
    expanded cubic a (x - r)^3 + b (x - r) or exp(k x) - c, either sign.
    Returns (fn, 40-digit root, lo, hi, noise), where noise bounds how far
    rounding in fn can move its sign change away from the root."""
    sign = draw(st.sampled_from((1.0, -1.0)))
    if draw(st.booleans()):
        a, b = draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 2.0))
        r = draw(st.floats(-1.0, 1.0))
        coeffs = (-a * r**3 - b * r, 3 * a * r * r + b, -3 * a * r, a)

        def fn(x):
            return sign * (((coeffs[3] * x + coeffs[2]) * x + coeffs[1]) * x + coeffs[0])

        with mp.workdps(40):
            root = mp.findroot(lambda t: mp.polyval([mp.mpf(c) for c in coeffs[::-1]], t),
                               (r - 1.0, r + 1.0), solver="anderson")
        # Horner's rounding, over the slope's lower bound b
        scale = sum(abs(c) * 3.0**i for i, c in enumerate(coeffs))
        noise = 8 * _EPS * scale / b
    else:
        k, c = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 10.0))

        def fn(x):
            return sign * (math.exp(k * x) - c)

        with mp.workdps(40):
            root = mp.log(mp.mpf(c)) / mp.mpf(k)
        # a few ulps of c, over the slope k c at the root
        noise = 8 * _EPS / k
    root = float(root)
    lo = root - draw(st.floats(1e-3, 1.0))
    hi = root + draw(st.floats(1e-3, 1.0))
    return fn, root, lo, hi, noise


def probed(fn, cap=10**4):
    """fn, and the list of (x, fn(x)) it appends every evaluation to; more
    than cap evaluations fail the test instead of hanging it."""
    probes = []

    def wrapped(x):
        assert len(probes) < cap, "the search does not stop"
        y = fn(x)
        probes.append((x, y))
        return y

    return wrapped, probes


class TestBrentRoot:
    """bisect_root is Brent's zeroin: its properties on random monotone
    functions against 40-digit roots."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(problem=monotone_root_problem(), tol=st.floats(1e-12, 1e-3))
    def test_within_tol_of_the_root(self, problem, tol):
        fn, root, lo, hi, noise = problem
        x = bisect_root(fn, lo, hi, tol)
        # the final bracket is at most tol + 4 eps |x| wide
        assert abs(x - root) <= tol + 4 * _EPS * abs(x) + noise

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(problem=monotone_root_problem(), tol=st.sampled_from((1e-300, 1e-12, 1e-6)))
    def test_every_probe_inside_the_bracket(self, problem, tol):
        fn, _, lo, hi, _ = problem
        f, probes = probed(fn)
        x = bisect_root(f, lo, hi, tol)
        assert probes[:2] == [(lo, fn(lo)), (hi, fn(hi))]
        # the tightest sign change so far; fn is monotone, so it is the
        # bracket of every earlier probe
        below, above = (lo, hi) if fn(lo) < 0.0 else (hi, lo)
        for t, y in probes[2:]:
            assert min(below, above) < t < max(below, above)
            if y == 0.0:
                below = above = t
            elif y < 0.0:
                below = t
            else:
                above = t
        # the result is the bracket end of smaller |fn|, or an exact zero,
        # which ends the search
        assert x in (below, above)
        assert abs(fn(x)) <= min(abs(fn(below)), abs(fn(above)))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(problem=monotone_root_problem())
    def test_tol_below_float_spacing_terminates(self, problem):
        # the stopping width keeps 2 eps |b|, so the bracket ends a few ulps
        # wide instead of looping on adjacent floats
        fn, root, lo, hi, noise = problem
        f, probes = probed(fn, cap=100)
        x = bisect_root(f, lo, hi, 1e-300)
        assert abs(x - root) <= 4 * _EPS * abs(x) + noise

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(r=st.floats(-1.0, 1.0), width=st.floats(1e-9, 1.0), tol=st.floats(1e-300, 1.0))
    def test_zero_endpoints_returned_as_they_are(self, r, width, tol):
        f, probes = probed(lambda x: x - r)
        assert bisect_root(f, r, r + width, tol) == r
        assert bisect_root(f, r - width, r, tol) == r
        assert bisect_root(f, r, r, tol) == r
        # the two ends at most, and nothing after them
        assert len(probes) <= 6

    def test_smooth_root_takes_few_evaluations(self):
        # a 1e-4 cell refined to 1e-12 costs bisection 30 evaluations
        f, probes = probed(lambda x: x * x - 2.0)
        x = bisect_root(f, 1.4142, 1.4143, 1e-12)
        assert abs(x - math.sqrt(2.0)) <= 1e-12
        assert len(probes) <= 8


def cubic(x, r, k):
    """A cubic in x - r: unimodal on most brackets, not on all."""
    t = x - r
    return k * t * t + 0.3 * t * t * t


def odd(x, r, k):
    """Increasing, with its root at r."""
    t = x - r
    return t * (k + t * t)


_LANE_TOLS = (1e-300, 1e-12, 1e-9, 1e-4)


@st.composite
def cell_lanes(draw, sign_change: bool):
    """Lanes of cells with one problem each, as the MAP batch gives its
    kernels: (lo, hi, tol, r, k), each cell wider than its tol, the widths
    spanning 15 decades, so lanes stop at different steps. Without
    sign_change every lane shares one tol (the golden lanes take a float)
    and r is anywhere; with it each lane has its own tol, and r lies
    strictly inside the cell, where odd changes sign strictly."""
    n = draw(st.integers(1, 12))
    shared = draw(st.sampled_from(_LANE_TOLS))
    lanes = []
    for _ in range(n):
        lo = draw(st.floats(-1.0, 1.0))
        tol = draw(st.sampled_from(_LANE_TOLS)) if sign_change else shared
        hi = lo + draw(st.floats(1e-15, 2.0).filter(lambda w: lo + w - lo > tol))
        k = draw(st.floats(0.1, 10.0))
        if sign_change:
            r = draw(st.floats(0.0, 1.0).map(lambda f: lo + f * (hi - lo))
                     .filter(lambda r: odd(lo, r, k) < 0.0 < odd(hi, r, k)))
        else:
            r = draw(st.floats(-1.5, 2.5))
        lanes.append((lo, hi, tol, r, k))
    return [np.array(v) for v in zip(*lanes)]


class TestLanes:
    """The MAP batch's private kernels, _golden_lanes and _brent_lanes, run
    one cell per lane in lockstep, each lane bit for bit the float call,
    with one call of fn per step: as many calls as the float call of the
    lane that runs longest, less, for Brent, the float call's two probes
    of the cell ends, whose values the kernel is given."""

    @staticmethod
    def solve_each(solver, fn, lo, hi, tol, params):
        """The float calls, one lane at a time, and their largest count of
        probes."""
        out, most = [], 0
        for lane in zip(lo.tolist(), hi.tolist(), tol.tolist(), *(p.tolist() for p in params)):
            f, probes = probed(lambda x, lane=lane: fn(x, *lane[3:]))
            out.append(solver(f, lane[0], lane[1], lane[2]))
            most = max(most, len(probes))
        return np.array(out), most

    @staticmethod
    def counted(fn):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return fn(x)

        return f, calls

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(lanes=cell_lanes(sign_change=False))
    def test_golden_lanes_are_float_calls(self, lanes):
        lo, hi, tol, r, k = lanes
        want, most = self.solve_each(golden_min, cubic, lo, hi, tol, (r, k))
        f, calls = self.counted(lambda x: cubic(x, r, k))
        got = _golden_lanes(f, lo, hi, float(tol[0]))
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert len(calls) == most
        assert all(shape == lo.shape for shape in calls)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(lanes=cell_lanes(sign_change=True))
    def test_brent_lanes_are_float_calls(self, lanes):
        lo, hi, tol, r, k = lanes
        want, most = self.solve_each(bisect_root, odd, lo, hi, tol, (r, k))
        f, calls = self.counted(lambda x: odd(x, r, k))
        got = _brent_lanes(f, lo, odd(lo, r, k), hi, odd(hi, r, k), tol)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert len(calls) == most - 2
        assert all(shape == lo.shape for shape in calls)

    def test_one_tol_for_all_lanes(self):
        # the golden kernel takes one float tol, each lane its own count
        lo, hi = np.array([1.0, 0.0]), np.array([2.0, 3.0])

        def fn(x):
            t = x * x - 2.0
            return t * t

        got = _golden_lanes(fn, lo, hi, 1e-12)
        assert got.tolist() == [golden_min(fn, a, b, 1e-12)
                                for a, b in zip(lo.tolist(), hi.tolist())]

    @pytest.mark.parametrize("solver", [bisect_root, golden_min])
    @pytest.mark.parametrize("lo, hi, tol", [
        ([0.0, 0.0], [1.0], 1e-12),
        ([[0.0]], [[1.0]], 1e-12),
        ([0.0, 0.0], [1.0, 1.0], [1e-12, 0.0]),
        ([0.0, 1.0], [1.0, 0.5], 1e-12),
        ([0.0, 0.25], [1.0, 1.0], 1e-12),
        (0.0, [1.0], 1e-12),
    ], ids=["lengths", "2-d", "tol", "reversed", "lanes", "one-array"])
    def test_bad_lanes_rejected_before_any_call(self, solver, lo, hi, tol):
        # the public searches take float brackets only: an array bracket,
        # well formed or not, raises before fn is called
        calls = []
        with pytest.raises(DomainError, match="^invalid bracket"):
            solver(lambda x: calls.append(x) or x - 0.5, np.array(lo), np.array(hi), tol)
        assert calls == []


def test_gauss_hermite_total_weight():
    nodes, weights = gauss_hermite(61)
    assert len(nodes) == 61
    assert float(np.sum(weights)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    # E[Z^2] under the standard normal through the exp(-u^2) weight
    ez2 = float(np.sum(weights * (math.sqrt(2) * nodes) ** 2)) / math.sqrt(math.pi)
    assert ez2 == pytest.approx(1.0, rel=1e-12)
