import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maxsat.errors import ConstructionError, DomainError
from maxsat.numerics import (
    Polynomial,
    bisect_root,
    bisect_sup,
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


class TestSolvers:
    def test_bisect_root_sqrt2(self):
        r = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-9)
        assert abs(r - math.sqrt(2)) <= 1e-9

    def test_bisect_root_needs_bracket(self):
        with pytest.raises(DomainError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bisect_sup(self):
        s = bisect_sup(lambda t: t < 0.37, 0.0, 1.0, 1e-10)
        assert abs(s - 0.37) <= 1e-9

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
            bisect_sup(lambda t: probe(t) < 0.0, 0.0, 1.0, tol)
        with pytest.raises(DomainError):
            golden_min(lambda t: probe(t) ** 2, 0.0, 1.0, tol)
        with pytest.raises(ConstructionError):
            IterationConfig(tol=tol)
        assert calls == []


def test_gauss_hermite_total_weight():
    nodes, weights = gauss_hermite(61)
    assert len(nodes) == 61
    assert float(np.sum(weights)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    # E[Z^2] under the standard normal through the exp(-u^2) weight
    ez2 = float(np.sum(weights * (math.sqrt(2) * nodes) ** 2)) / math.sqrt(math.pi)
    assert ez2 == pytest.approx(1.0, rel=1e-12)
