"""A 40-digit oracle for the MAP curves of ldpc8, ldgm9 and isi, for
isi's Maxwell and single-system thresholds and for eps(x), using none of
the library's solvers or callables.

Each family is built here from exact rational coefficients, with

    U_s(x; eps) = x g(x; eps) - G(x; eps) - F(g(x; eps); eps).

At eps, the fixed points of h(x) = f(g(x; eps); eps) on [0, 1] are
bracketed by the sign changes of x - h(x) in a float scan of 4001 points
and polished by mpmath's findroot at 40 digits; the ends 0 and 1 count
when they are fixed points. The largest minimizer x* is the largest fixed
point whose U_s lies within 1e-25 of the least, and the MAP exit value is
the family's EXIT functional at (x*, eps), at 40 digits. The Maxwell
threshold of a family whose 0 is a fixed point is the eps at which the
largest fixed point's U_s falls to U_s(0) = 0: bisected on that sign and
polished as a root of (x - h, U_s) in (x, eps) by findroot. The
single-system threshold is the root of (x - h, 1 - dh/dx) in (x, eps) by
findroot, from a start near the minimum of eps(x). eps(x) is the
least eps with h(x; eps) = x, from the first sign change of h - x on 101
eps of [0, 1], polished by findroot; for a gldpc family of component
code (n, t) (GLDPC), whose h(x; eps) = eps I_x(t, n - t) is linear in eps,
it is x / I_x(t, n - t), by mpmath's regularized incomplete beta.

Print the MAP curve of a window, here ldpc8's on 11 points:

    python tests/oracle.py ldpc8 0.544223 0.716394 11

and isi's Maxwell threshold and single-system threshold:

    python tests/oracle.py isi
"""

import sys
from fractions import Fraction

import mpmath as mp
import numpy as np

DPS = 40
SCAN_N = 4001
TIE = mp.mpf("1e-25")


class Poly:
    """sum c x^k over exact rational (c, k) pairs; evaluated in floats on a
    numpy array and at 40 digits on anything else."""

    def __init__(self, terms):
        self.terms = [(Fraction(c), k) for c, k in terms]

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return sum(float(c) * x**k for c, k in self.terms)
        return sum(mp.mpf(c.numerator) / c.denominator * x**k for c, k in self.terms)

    def integral(self) -> "Poly":
        """The antiderivative with value 0 at 0."""
        return Poly([(c / (k + 1), k + 1) for c, k in self.terms])


class Family:
    """f(y; e), g(x; e), F(y; e), G(x; e) and the EXIT functional exit(x; e)."""

    def __init__(self, f, g, F, G, exit_fn):
        self.f, self.g, self.F, self.G, self.exit = f, g, F, G, exit_fn

    def d(self, x, e):
        """x - h(x; e)."""
        return x - self.f(self.g(x, e), e)

    def u(self, x, e):
        gx = self.g(x, e)
        return x * gx - self.G(x, e) - self.F(gx, e)


def _ldpc(lam: Poly, rho: Poly) -> Family:
    """BEC LDPC with edge-form lam and rho: f = e lam(y), g = 1 - rho(1 - x),
    F = e Lam(y), G = x - (P(1) - P(1 - x)), exit L(g(x)) = Lam(g) / Lam(1),
    with Lam and P the antiderivatives of lam and rho."""
    Lam, P = lam.integral(), rho.integral()
    return Family(f=lambda y, e: e * lam(y),
                  g=lambda x, e: 1 - rho(1 - x),
                  F=lambda y, e: e * Lam(y),
                  G=lambda x, e: x - (P(1) - P(1 - x)),
                  exit_fn=lambda x, e: Lam(1 - rho(1 - x)) / Lam(1))


def _ldgm(lam: Poly, rho: Poly) -> Family:
    """LDGM with edge-form lam and rho: f = lam(y), g = 1 - (1 - e) rho(1 - x),
    F = Lam(y), G = x - (1 - e)(P(1) - P(1 - x)), exit 1 - R(1 - x) =
    1 - P(1 - x) / P(1)."""
    Lam, P = lam.integral(), rho.integral()
    return Family(f=lambda y, e: lam(y),
                  g=lambda x, e: 1 - (1 - e) * rho(1 - x),
                  F=lambda y, e: Lam(y),
                  G=lambda x, e: x - (1 - e) * (P(1) - P(1 - x)),
                  exit_fn=lambda x, e: 1 - P(1 - x) / P(1))


def _isi(lam: Poly, rho: Poly) -> Family:
    """Joint detection and decoding over the dicode erasure channel, with
    edge-form lam and rho: f = phi(L(y); e) lam(y), g = 1 - rho(1 - x),
    F = Phi(L(y); e) Lam(1), G as for LDPC and exit Phi_e(L(g(x)); e), with
    L = Lam / Lam(1) the node form, phi(z; e) = 4 e^2 / (2 - (1 - e) z)^2,
    Phi(z; e) = 2 e^2 z / (2 - (1 - e) z) its antiderivative in z and
    Phi_e(z; e) = 2 e z (4 - 2 z + e z) / (2 - (1 - e) z)^2 the e-partial
    of Phi."""
    Lam, P = lam.integral(), rho.integral()
    Lam1 = sum(c for c, _ in Lam.terms)
    L = Poly([(c / Lam1, k) for c, k in Lam.terms])

    def den(z, e):
        return 2 - (1 - e) * z

    def Phi(z, e):
        return 2 * e * e * z / den(z, e)

    def Phi_e(z, e):
        return 2 * e * z * (4 - 2 * z + e * z) / den(z, e) ** 2

    return Family(f=lambda y, e: 4 * e * e / den(L(y), e) ** 2 * lam(y),
                  g=lambda x, e: 1 - rho(1 - x),
                  F=lambda y, e: Phi(L(y), e) * mp.mpf(Lam1.numerator) / Lam1.denominator,
                  G=lambda x, e: x - (P(1) - P(1 - x)),
                  exit_fn=lambda x, e: Phi_e(L(1 - rho(1 - x)), e))


F_ = Fraction
FAMILIES = {
    # lam = 0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20, rho = 0.6 x^4 + 0.4 x^12
    "ldpc8": _ldpc(Poly([(F_("0.2"), 1), (F_("0.25"), 2), (F_("0.1"), 6), (F_("0.45"), 20)]),
                   Poly([(F_("0.6"), 4), (F_("0.4"), 12)])),
    # node L = x^6, so lam = x^5; rho = 2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3
    "ldgm9": _ldgm(Poly([(1, 5)]),
                   Poly([(F_(2, 45), 0), (F_(2, 45), 1), (F_(7, 15), 2), (F_(4, 9), 3)])),
    # node L = x^3 and R = x^6, so lam = x^2 and rho = x^5
    "isi": _isi(Poly([(1, 2)]), Poly([(1, 5)])),
}
# gldpc families by their component code (n, t): f = eps y and
# g = I_x(t, n - t), for eps(x) alone
GLDPC = {"gldpc31": (31, 4)}


def fixed_points(fam: Family, eps) -> list:
    """The fixed points of h on [0, 1] at eps, at 40 digits, ascending."""
    xs = np.linspace(0.0, 1.0, SCAN_N)
    d = fam.d(xs, float(eps))
    e = mp.mpf(eps)
    roots = [x for x in (mp.mpf(0), mp.mpf(1)) if abs(fam.d(x, e)) < mp.mpf("1e-30")]
    for i in np.flatnonzero(d[:-1] * d[1:] < 0.0).tolist():
        roots.append(mp.findroot(lambda x: fam.d(x, e), (mp.mpf(xs[i]), mp.mpf(xs[i + 1])),
                                 solver="anderson"))
    for i in np.flatnonzero(d[1:-1] == 0.0).tolist():
        roots.append(mp.findroot(lambda x: fam.d(x, e), mp.mpf(xs[i + 1])))
    return sorted(roots)


def x_star(family: str, eps):
    """The largest minimizer of U_s(.; eps) at 40 digits; eps a float."""
    fam = FAMILIES[family]
    with mp.workdps(DPS):
        e = mp.mpf(eps)
        roots = fixed_points(fam, eps)
        vals = [fam.u(x, e) for x in roots]
        least = min(vals)
        return max(x for x, v in zip(roots, vals) if v <= least + TIE)


def map_exit(family: str, eps):
    """The MAP exit value at eps (a float): the EXIT functional at the
    largest minimizer, at 40 digits."""
    with mp.workdps(DPS):
        return FAMILIES[family].exit(x_star(family, eps), mp.mpf(eps))


def eps_of_x(family: str, x: float):
    """The least eps in [0, 1] with h(x; eps) = x, at 40 digits; x a float
    at which h(x; 0) <= x <= h(x; 1). h(x; eps) - x is evaluated on 101 eps
    of [0, 1] and findroot polishes its first sign change; a gldpc family's
    is x / I_x(t, n - t)."""
    with mp.workdps(DPS):
        xm = mp.mpf(x)
        if family in GLDPC:
            n, t = GLDPC[family]
            return xm / mp.betainc(t, n - t, 0, xm, regularized=True)
        fam = FAMILIES[family]
        es = [mp.mpf(k) / 100 for k in range(101)]
        d = [-fam.d(xm, e) for e in es]
        k = next(k for k in range(101) if d[k] >= 0)
        if d[k] == 0:
            return es[k]
        return mp.findroot(lambda e: -fam.d(xm, e), (es[k - 1], es[k]), solver="anderson")


def eps_single(family: str, x0: float, e0: float):
    """(x, eps) at 40 digits where h(.; eps) touches the diagonal: the root
    of (x - h, 1 - dh/dx) in (x, eps) by findroot from (x0, e0), with dh/dx
    by mpmath's diff. Near the minimum of eps(x) it is that minimum, the
    single-system threshold of a family whose 0 is a stable fixed point."""
    fam = FAMILIES[family]
    with mp.workdps(DPS):
        return tuple(mp.findroot(lambda x, e: (fam.d(x, e), mp.diff(lambda t: fam.d(t, e), x)),
                                 (mp.mpf(x0), mp.mpf(e0))))


def maxwell(family: str, lo: float, hi: float):
    """The Maxwell threshold in [lo, hi] of a family whose 0 is a fixed
    point with U_s(0) = 0, at 40 digits: 30 bisections of eps on the sign
    of U_s at the largest fixed point (negative at hi, not at lo), then
    findroot on (x - h, U_s) in (x, eps) from the last hi."""
    fam = FAMILIES[family]
    with mp.workdps(DPS):
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if fam.u(fixed_points(fam, mid)[-1], mp.mpf(mid)) < 0:
                hi = mid
            else:
                lo = mid
        x0 = fixed_points(fam, hi)[-1]
        _, e = mp.findroot(lambda x, e: (fam.d(x, e), fam.u(x, e)), (x0, mp.mpf(hi)))
        return e


if __name__ == "__main__":
    if sys.argv[1:] == ["isi"]:
        print(mp.nstr(maxwell("isi", 0.5, 0.8), 25))
        print(*(mp.nstr(v, 25) for v in eps_single("isi", 0.37, 0.57)))
        sys.exit()
    name, lo, hi, n = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
    for eps in np.linspace(lo, hi, n).tolist():
        print(repr(eps), mp.nstr(x_star(name, eps), 25), mp.nstr(map_exit(name, eps), 25))
