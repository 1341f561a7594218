"""Certified thresholds of the erasure families whose fixed-point curve is
rational: exact polynomials built with sympy from the degree distributions
given here, their roots in (0, 1] isolated by Poly.intervals to 1e-30, and
none of the library's callables used.

Along the fixed-point curve f(g(x); eps) = x of a family with
f(y; eps) = eps phi(y) and F(y; eps) = eps Phi(y), Phi' = phi,

    eps(x) = x / phi(g(x)),    Q(x) = x g(x) - G(x) - eps(x) Phi(g(x)).

The Maxwell threshold is the smallest eps(x) over the roots of Q, and the
single-system threshold the smallest eps(x) over its critical points and
x = 1. The end x -> 0 is left out: there eps(x) grows without bound
(gldpc) or tends to the stability threshold (ldpc8's 25/36, above its
minimum). Both are read at the midpoint of a root's isolating interval.

Regenerate the literals the tests store (ldpc8 takes about 25 s):

    python tests/certified.py
"""

import sympy as sp

X = sp.Symbol("x")
R = sp.Rational


def poly(terms) -> sp.Poly:
    """sum c x^k over (c, k) pairs, with exact rational coefficients."""
    return sp.Poly(sum(R(c) * X**k for c, k in terms), X, domain="QQ")


def _roots(p: sp.Poly) -> list:
    """Midpoints of the isolating intervals of p's roots in (0, 1]."""
    while p.eval(0) == 0:
        p = p.quo(poly([(1, 1)]))
    return [(a + b) / 2 for (a, b), _ in p.intervals(inf=0, sup=1, eps=R(1, 10**30))]


def thresholds(g: sp.Poly, phi: sp.Poly, Phi: sp.Poly) -> dict:
    """eps_maxwell and eps_single, as exact rationals, of the family with
    transfer g and f(y; eps) = eps phi(y), F(y; eps) = eps Phi(y)."""
    phig = phi.compose(g)
    x = poly([(1, 1)])

    def eps(x0):
        return x0 / phig.eval(x0)

    q_num = (x * g - g.integrate()) * phig - x * Phi.compose(g)
    crit = phig - x * phi.diff(X).compose(g) * g.diff(X)
    return {"eps_maxwell": min(eps(r) for r in _roots(q_num)),
            "eps_single": min([eps(r) for r in _roots(crit)] + [eps(R(1))])}


def ldpc(lam: sp.Poly, rho: sp.Poly) -> dict:
    """BEC LDPC with edge-form lam and rho: g(x) = 1 - rho(1 - x),
    f(y; eps) = eps lam(y)."""
    g = poly([(1, 0)]) - rho.compose(poly([(1, 0), (-1, 1)]))
    return thresholds(g, lam, lam.integrate())


def gldpc(n: int, t: int) -> dict:
    """GLDPC with a length-n, t-error-correcting component code on the BEC:
    g(x) = P(Binomial(n - 1, x) >= t), f(y; eps) = eps y."""
    g = sp.Poly(sum(sp.binomial(n - 1, j) * X**j * (1 - X) ** (n - 1 - j)
                    for j in range(t, n)), X, domain="QQ")
    return thresholds(g, poly([(1, 1)]), poly([(R(1, 2), 2)]))


# ldpc8's edge-form degree distributions
LAMBDA8 = poly([("0.2", 1), ("0.25", 2), ("0.1", 6), ("0.45", 20)])
RHO8 = poly([("0.6", 4), ("0.4", 12)])


def ldpc8() -> dict:
    return ldpc(LAMBDA8, RHO8)


if __name__ == "__main__":
    for name, fn in (("ldpc8", ldpc8), ("gldpc(31,4)", lambda: gldpc(31, 4)),
                     ("gldpc(63,5)", lambda: gldpc(63, 5))):
        for key, value in fn().items():
            print(name, key, sp.N(value, 20))
