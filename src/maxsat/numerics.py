"""Numeric kernels: polynomials, bracketing solvers, and Gauss-Hermite
nodes. The package's one quadrature, a piecewise-Chebyshev table, lives
with the systems it integrates in :mod:`maxsat.recursion`.

Everything here is stateless and deterministic: identical inputs give
bit-identical outputs. The solvers take float brackets; their lockstep
forms (_brent_lanes, _golden_lanes) are private kernels of the MAP batch.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "Polynomial",
    "parse_polynomial",
    "bisect_root",
    "golden_min",
    "gauss_hermite",
]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as ascending-degree coefficients.

    Evaluation is Horner's rule, elementwise on numpy arrays, with the zero
    coefficients skipped: between two non-zero coefficients it multiplies
    by x once per degree and adds nothing, since r*x + 0.0 == r*x. So a
    sparse profile such as a degree-20 lam with 4 terms costs 24 array
    passes instead of 42, and the result is bit-identical to the dense rule
    at every finite x. A Python float takes the dense loop, which is the
    cheaper one per scalar and rounds the same. Writing the gaps as x**k or
    the sum as monomials would be cheaper still but changes the last bits.
    Derivative and antiderivative are exact in the coefficients.
    """

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            object.__setattr__(self, "coeffs", (0.0,))
        else:
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @cached_property
    def _horner_steps(self) -> tuple:
        """The top non-zero coefficient and, below it, one (multiplications
        by x, coefficient added) pair per non-zero coefficient. A last pair
        adds 0.0 after the multiplications down to degree 0, as the dense
        rule does, which turns a -0.0 into 0.0. The first pair leaves out
        the multiplication that makes the result array. The coefficients
        are 0-d arrays, which a ufunc takes with less overhead than a
        Python float, and which round the same."""
        terms = [(d, np.array(c)) for d, c in enumerate(self.coeffs) if c != 0.0][::-1]
        if not terms:
            return np.array(0.0), ()
        if terms[-1][0] > 0:
            terms.append((0, np.array(0.0)))
        gaps = [hi - lo for (hi, _), (lo, _) in zip(terms, terms[1:])]
        if gaps:
            gaps[0] -= 1
        return terms[0][1], tuple(zip(gaps, (c for _, c in terms[1:])))

    def __call__(self, x):
        if isinstance(x, float):
            r = 0.0
            for c in reversed(self.coeffs):
                r = r * x + c
            return r
        lead, steps = self._horner_steps
        if not steps:
            return 0.0 * x + lead
        # a new array, so the steps below can work in place
        r = lead * x
        for mults, c in steps:
            for _ in range(mults):
                r *= x
            r += c
        return r

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self) -> "Polynomial":
        if len(self.coeffs) == 1:
            return Polynomial((0.0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with value 0 at 0."""
        return Polynomial((0.0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs)))

    def trimmed(self) -> "Polynomial":
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        return Polynomial(tuple(coeffs))


_TERM_RE = re.compile(
    r"""^\s*
        (?P<coef>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?(?:\s*/\s*[0-9]+(?:\.[0-9]*)?)?
               |\.[0-9]+)?
        \s*\*?\s*
        (?P<var>x)?
        \s*(?:\^\s*(?P<exp>[0-9]+))?
        \s*$""",
    re.VERBOSE,
)


def _parse_coef(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(Fraction(num.strip()) / Fraction(den.strip()))
    return float(text)


def parse_polynomial(text: str) -> Polynomial:
    """Parse strings like ``"0.2 x + 0.25 x^2 + 0.45 x^20"`` or ``"2/45 + 2/45 x"``.

    Terms are '+'-separated; each is ``coef``, ``coef x^k``, or ``x^k`` with an
    optional '*'. Fractions ``a/b`` are accepted for exact ratios.
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError("empty polynomial string")
    coeffs: dict[int, float] = {}
    for raw in text.split("+"):
        m = _TERM_RE.match(raw)
        if m is None or (m.group("coef") is None and m.group("var") is None):
            raise DomainError(f"cannot parse polynomial term {raw!r}")
        coef = _parse_coef(m.group("coef")) if m.group("coef") else 1.0
        if m.group("var") is None:
            if m.group("exp") is not None:
                raise DomainError(f"exponent without variable in term {raw!r}")
            deg = 0
        else:
            deg = int(m.group("exp")) if m.group("exp") else 1
        coeffs[deg] = coeffs.get(deg, 0.0) + coef
    out = [0.0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Polynomial(tuple(out))


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")


_EPS = float(np.finfo(float).eps)


def _check_bracket(lo, hi, tol) -> None:
    """DomainError unless lo <= hi are floats and tol is finite and > 0."""
    if np.ndim(lo) or np.ndim(hi) or not lo <= hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    _check_tol(tol)


def bisect_root(fn: Callable, lo: float, hi: float, tol=1e-12) -> float:
    """Root of fn on [lo, hi] by Brent's method (zeroin: R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4); requires
    a sign change, and returns a zero endpoint as it is.

    The bracket [b, c] keeps a sign change, with b the end of smaller |fn|.
    Each step is an inverse quadratic or secant step from b, replaced by
    the bisection step when it falls outside the inner three quarters of
    the bracket or shrinks the steps too slowly, and lengthened to at
    least half the stopping width, so every probe lies strictly inside the
    bracket. It stops once the half-width |c - b| / 2 is at most
    2 eps |b| + tol / 2, i.e. on a bracket about tol wide, or a few ulps
    wide for a tol below the float spacing at the root, and returns b. On
    smooth roots that takes about 5 evaluations from a 1e-4 cell to 1e-12,
    where bisection takes 30; it never needs more than about the square
    of bisection's count. Deterministic: equal inputs give equal outputs.

    lo and hi are floats, probed with floats; an array bracket raises
    DomainError before any call of fn.
    """
    _check_bracket(lo, hi, tol)
    flo = float(fn(lo))
    fhi = float(fn(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    # a is the previous iterate, d the last step and e the one before it
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        width = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= width or fb == 0.0:
            return b
        if abs(e) >= width and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(width * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > width else math.copysign(width, m)
        fb = float(fn(b))
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _brent_lanes(fn: Callable, lo, flo, hi, fhi, tol) -> np.ndarray:
    """bisect_root on a cell per lane, all lanes in lockstep: lo, hi and
    tol are 1-D float arrays, and flo and fhi fn's values at lo and hi, of
    strictly opposite signs (a scan's cells, recursion._root_cells).

    Each lane takes the float iteration's operations, branches and
    stopping rule, its branches chosen by np.where, so it returns the bits
    the float call returns when fn gives an array entry the bits of the
    same float call (the float-lane contract of maxsat.thresholds) and flo
    and fhi are those bits. Each step makes one call of fn on an array
    holding one x per lane: fn keeps its one-argument form, and a lane
    that has stopped repeats its last x, whose value is not read."""
    out = np.empty_like(lo)
    x = hi.copy()
    run = np.arange(lo.size)
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    # the branches not taken may divide by zero
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while run.size:
            swap = np.abs(fc) < np.abs(fb)
            a, fa, b, fb, c, fc = (np.where(swap, b, a), np.where(swap, fb, fa),
                                   np.where(swap, c, b), np.where(swap, fc, fb),
                                   np.where(swap, b, c), np.where(swap, fb, fc))
            width = 2.0 * _EPS * np.abs(b) + 0.5 * tol
            m = 0.5 * (c - b)
            stop = (np.abs(m) <= width) | (fb == 0.0)
            if stop.any():
                out[run[stop]] = b[stop]
                go = ~stop
                run, a, fa, b, fb, c, fc, d, e, tol, width, m = (
                    v[go] for v in (run, a, fa, b, fb, c, fc, d, e, tol, width, m))
                if not run.size:
                    break
            s = fb / fa
            q, r = fa / fc, fb / fc
            secant = a == c
            p = np.where(secant, 2.0 * m * s,
                         s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0)))
            q = np.where(secant, 1.0 - s, (q - 1.0) * (r - 1.0) * (s - 1.0))
            pos = p > 0.0
            q, p = np.where(pos, -q, q), np.where(pos, p, -p)
            # Python's min(u, v) is v only where v < u
            u, v = 3.0 * m * q - np.abs(width * q), np.abs(e * q)
            take = ((np.abs(e) >= width) & (np.abs(fa) > np.abs(fb))
                    & (2.0 * p < np.where(v < u, v, u)))
            e, d = np.where(take, d, m), np.where(take, p / q, m)
            a, fa = b, fb
            b = b + np.where(np.abs(d) > width, d, np.copysign(width, m))
            x[run] = b
            fb = fn(x)[run]
            side = (fb > 0.0) == (fc > 0.0)
            c, fc = np.where(side, a, c), np.where(side, fa, fc)
            d, e = np.where(side, b - a, d), np.where(side, b - a, e)
    return out


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(fn: Callable, lo: float, hi: float, tol=1e-12) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi], to a
    bracket of at most tol; the midpoint of a bracket already that narrow.

    lo and hi are floats, probed with floats; an array bracket raises
    DomainError before any call of fn."""
    _check_bracket(lo, hi, tol)
    dist = hi - lo
    if dist <= tol:
        return 0.5 * (lo + hi)
    n = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc, yd = float(fn(c)), float(fn(d))
    for _ in range(max(n - 1, 0)):
        if yc < yd:
            hi, d, yd = d, c, yc
            dist *= _INV_PHI
            c = lo + _INV_PHI_SQ * dist
            yc = float(fn(c))
        else:
            lo, c, yc = c, d, yd
            dist *= _INV_PHI
            d = lo + _INV_PHI * dist
            yd = float(fn(d))
    return 0.5 * (lo + d) if yc < yd else 0.5 * (c + hi)


def _golden_lanes(fn: Callable, lo, hi, tol: float) -> np.ndarray:
    """golden_min on a bracket per lane, all lanes in lockstep: lo and hi
    are 1-D float arrays (two cells of a scan's grid), each wider than tol.

    Each lane takes the float iteration's operations, branches and step
    count, the count from its own math.log, so it returns the bits the
    float call returns when fn gives an array entry the bits of the same
    float call. Each step makes one call of fn on an array holding one x
    per lane, the new point of each lane still running; a lane that has
    stopped repeats its last x, whose value is not read."""
    dist = hi - lo
    # the probes left after the first two, as golden_min counts them
    steps = np.array([max(int(math.ceil(math.log(tol / w) / math.log(_INV_PHI))) - 1, 0)
                      for w in dist.tolist()])
    c = lo + _INV_PHI_SQ * dist
    d = lo + _INV_PHI * dist
    yc, yd = fn(c), fn(d)
    out = np.empty_like(lo)
    x = d.copy()
    run = np.arange(lo.size)
    while True:
        stop = steps == 0
        if stop.any():
            out[run[stop]] = np.where(yc[stop] < yd[stop], 0.5 * (lo[stop] + d[stop]),
                                      0.5 * (c[stop] + hi[stop]))
            go = ~stop
            run, lo, hi, dist, c, d, yc, yd, steps = (
                v[go] for v in (run, lo, hi, dist, c, d, yc, yd, steps))
            if not run.size:
                return out
        # the left branch drops (d, hi] and keeps c as its new d, the
        # right one drops [lo, c) and keeps d as its new c
        left = yc < yd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        dist = dist * _INV_PHI
        kept, y_kept = np.where(left, c, d), np.where(left, yc, yd)
        new = np.where(left, lo + _INV_PHI_SQ * dist, lo + _INV_PHI * dist)
        x[run] = new
        y_new = fn(x)[run]
        c, yc = np.where(left, new, kept), np.where(left, y_new, y_kept)
        d, yd = np.where(left, kept, new), np.where(left, y_kept, y_new)
        steps = steps - 1


@lru_cache(maxsize=8)
def gauss_hermite(order: int = 61):
    """Gauss-Hermite nodes and weights for integrals against exp(-u^2)."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return nodes, weights
