"""Built-in recursion families.

Erasure-decoding families over a channel parameter eps:

  * ldpc_system:  f(x;eps) = eps lam(x),       g(x;eps) = 1 - rho(1-x)
  * ldgm_system:  f(x;eps) = lam(x),           g(x;eps) = 1 - (1-eps) rho(1-x)
  * gldpc_system: f(x;eps) = eps x,            g(x) the bounded-distance
                  component-decoder transfer, a regularized incomplete Beta
  * isi_system:   f(x;eps) = phi(L(x);eps) lam(x), g as LDPC, for joint
                  detection/decoding over the dicode erasure channel
                  (phi = dec_phi)

plus a compressed-sensing state-evolution pair built from a prior's mmse
curve, and three fixed demo systems (slices of the LDPC and LDGM families
at one parameter, and a pathological potential with minima accumulating
at 0).

The families' callables keep the elementwise contract of
maxsat.thresholds, float lane included: a Python float x gives the bits of
the same x inside an array, and stays a Python float on the way. They use
only +, -, * and / (products, Horner sums, repeated squaring), which round
a float as they round an array entry; a float's own ** does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import ConstructionError, DomainError
from .numerics import Polynomial, gauss_hermite, parse_polynomial
from .recursion import ScalarSystem, make_system
from .thresholds import ParamSystem, validate_param_system

__all__ = [
    "DegreeDistribution",
    "ldpc_system",
    "ldgm_system",
    "GldpcParams",
    "gldpc_system",
    "dec_phi",
    "isi_system",
    "GaussianPrior",
    "TwoPointPrior",
    "CsParams",
    "cs_system",
    "example1_system",
    "example2_system",
    "pathological_system",
]

PolyLike = Union[Polynomial, str, Sequence[float]]


def _as_poly(obj: PolyLike) -> Polynomial:
    if isinstance(obj, Polynomial):
        return obj
    if isinstance(obj, str):
        return parse_polynomial(obj)
    return Polynomial(tuple(obj))


@dataclass(frozen=True)
class DegreeDistribution:
    """Node-perspective degree distribution L with L(1) = 1 and L(0) = 0.

    The edge perspective lam = L'/L'(1) is derived; build from either side
    with :meth:`from_node` / :meth:`from_edge`.
    """

    node: Polynomial

    def __post_init__(self):
        coeffs = self.node.coeffs
        if any(c < -1e-15 for c in coeffs):
            raise ConstructionError("degree distribution needs non-negative coefficients")
        if coeffs[0] != 0.0:
            raise ConstructionError("degree distribution needs a zero constant term")
        if abs(self.node(1.0) - 1.0) > 1e-12:
            raise ConstructionError(f"coefficients sum to {self.node(1.0)!r}, not 1")
        if self.lp1 <= 0.0:
            raise ConstructionError("degenerate distribution: L'(1) = 0")

    @classmethod
    def from_node(cls, obj: PolyLike) -> "DegreeDistribution":
        return cls(_as_poly(obj).trimmed())

    @classmethod
    def from_edge(cls, obj: PolyLike) -> "DegreeDistribution":
        """Recover the node form by integration: L = int(edge)/int_0^1(edge)."""
        edge = _as_poly(obj).trimmed()
        if abs(edge(1.0) - 1.0) > 1e-12:
            raise ConstructionError(f"edge coefficients sum to {edge(1.0)!r}, not 1")
        anti = edge.antiderivative()
        total = anti(1.0)
        return cls(Polynomial(tuple(c / total for c in anti.coeffs)))

    @cached_property
    def lp1(self) -> float:
        """Average node degree L'(1)."""
        return float(self.node.derivative()(1.0))

    @cached_property
    def edge(self) -> Polynomial:
        lp1 = self.lp1
        return Polynomial(tuple(c / lp1 for c in self.node.derivative().coeffs))


def _erasure_profiles(L: Union[DegreeDistribution, PolyLike],
                      R: Union[DegreeDistribution, PolyLike]):
    """Profiles shared by the erasure families, with bare polynomials read
    as node perspectives: (lam, rho, lam', rho', rho'', L'(1), R'(1), L, R,
    rho'(1))."""
    L = L if isinstance(L, DegreeDistribution) else DegreeDistribution.from_node(L)
    R = R if isinstance(R, DegreeDistribution) else DegreeDistribution.from_node(R)
    lam, rho = L.edge, R.edge
    rho_p = rho.derivative()
    return (lam, rho, lam.derivative(), rho_p, rho_p.derivative(),
            L.lp1, R.lp1, L.node, R.node, float(rho_p(1.0)))


def _ldpc_check_side(rho, rho_p, rho_pp, Rn, Rp1) -> dict:
    """ParamSystem fields of the parameter-free check side g = 1 - rho(1-x):
    g, its partials and its antiderivative G."""
    return dict(
        g=lambda x, e: 1.0 - rho(1.0 - x),
        g_x=lambda x, e: rho_p(1.0 - x),
        g_xx=lambda x, e: -rho_pp(1.0 - x),
        g_eps=lambda x, e: 0.0,
        G=lambda x, e: x - (1.0 - Rn(1.0 - x)) / Rp1,
        G_eps=lambda x, e: 0.0,
    )


def ldpc_system(L: Union[DegreeDistribution, PolyLike],
                R: Union[DegreeDistribution, PolyLike]) -> ParamSystem:
    """Bit-erasure decoding family f(x;eps) = eps lam(x), g = 1 - rho(1-x).

    Carries closed-form antiderivatives F = eps L(x)/L'(1) and
    G = x - (1 - R(1-x))/R'(1), the node-perspective EXIT functional
    L(1 - rho(1-x)), and the trial entropy -L'(1) Q(x), which evaluates
    U_s at eps(x) = x / lam(1 - rho(1-x)). That formula serves the trial
    entropy only: eps_of_x solves eps(x) as on every family, and as h is
    linear in eps its second Newton round returns the root.
    """
    lam, rho, lam_p, rho_p, rho_pp, Lp1, Rp1, Ln, Rn, rp1 = _erasure_profiles(L, R)
    def eps_closed(x):
        return x / lam(1.0 - rho(1.0 - x))

    psys = ParamSystem(
        f=lambda x, e: e * lam(x),
        f_x=lambda x, e: e * lam_p(x),
        f_eps=lambda x, e: lam(x),
        F=lambda x, e: e * Ln(x) / Lp1,
        F_eps=lambda x, e: Ln(x) / Lp1,
        **_ldpc_check_side(rho, rho_p, rho_pp, Rn, Rp1),
        exit_fn=lambda x, e: Ln(1.0 - rho(1.0 - x)),
        sup_f_x=lambda e: e * float(lam_p(1.0)),
        sup_g_x=lambda e: rp1,
        sup_g_xx=lambda e: float(rho_pp(1.0)),
        name="ldpc",
    )
    # u of the copy without a trial entropy: a family whose field held
    # itself would be a reference cycle, freed only by the cyclic collector
    psys = replace(psys, trial_entropy=lambda x, u=psys.u: -Lp1 * u(x, eps_closed(x)))
    validate_param_system(psys)
    return psys


def ldgm_system(L: Union[DegreeDistribution, PolyLike],
                R: Union[DegreeDistribution, PolyLike]) -> ParamSystem:
    """Generator-matrix-code family f(x;eps) = lam(x), g = 1 - (1-eps) rho(1-x).

    Zero is not a fixed point for eps > 0 (no perfect-decoding state), so
    the potential threshold is reported undefined and the inverse-envelope
    threshold is the meaningful quantity. Without degree-1 checks
    (rho(0) = 0) h_eps vanishes at x = 1, so the family is not proper and
    the Maxwell and inverse-envelope thresholds are undefined.
    """
    lam, rho, lam_p, rho_p, rho_pp, Lp1, Rp1, Ln, Rn, rp1 = _erasure_profiles(L, R)
    psys = ParamSystem(
        f=lambda x, e: lam(x),
        g=lambda x, e: 1.0 - (1.0 - e) * rho(1.0 - x),
        f_x=lambda x, e: lam_p(x),
        g_x=lambda x, e: (1.0 - e) * rho_p(1.0 - x),
        g_xx=lambda x, e: -(1.0 - e) * rho_pp(1.0 - x),
        f_eps=lambda x, e: 0.0,
        g_eps=lambda x, e: rho(1.0 - x),
        F=lambda x, e: Ln(x) / Lp1,
        G=lambda x, e: x - (1.0 - e) * (1.0 - Rn(1.0 - x)) / Rp1,
        F_eps=lambda x, e: 0.0,
        G_eps=lambda x, e: (1.0 - Rn(1.0 - x)) / Rp1,
        exit_fn=lambda x, e: 1.0 - Rn(1.0 - x),
        sup_f_x=lambda e: float(lam_p(1.0 - (1.0 - e) * float(rho(0.0)))),
        sup_g_x=lambda e: (1.0 - e) * rp1,
        sup_g_xx=lambda e: (1.0 - e) * float(rho_pp(1.0)),
        name="ldgm",
    )
    validate_param_system(psys)
    return psys


@dataclass(frozen=True)
class GldpcParams:
    """Component BCH code of blocklength n correcting t erasures/errors."""

    n: int
    t: int

    def __post_init__(self):
        if not (2 <= self.t <= (self.n - 1) // 2):
            raise ConstructionError(f"need 2 <= t <= (n-1)//2, got n={self.n}, t={self.t}")

    @property
    def rate_bsc(self) -> float:
        return 1.0 - 2.0 * self.t * math.log2(self.n + 1) / self.n

    @property
    def rate_bec(self) -> float:
        return 1.0 - self.t * math.log2(self.n + 1) / self.n


def _bch_transfer(n: int, t: int):
    """Bounded-distance decoder transfer g(x) = I_x(t, n-t) and derivatives.

    g is the binomial tail sum_{i=t..n-1} C(n-1,i) x^i (1-x)^(n-1-i), the
    regularized incomplete Beta function, evaluated by Horner's rule in
    one of two forms. For x <= 1/2 it is (1-x)^(n-1) times a polynomial in
    r = x/(1-x) with coefficients C(n-1,i) and t trailing zeros; for
    x > 1/2 it is x^(n-1) times a polynomial in s = (1-x)/x with
    coefficients C(n-1,k), k = 0..n-1-t. So r and s lie in [0, 1] on
    [0, 1], every term is non-negative and nothing cancels: each operation
    adds a relative error of at most one unit roundoff u, r and s carry two
    each and the powers r^i, s^k and the leading factor carry O(n) of them,
    so the relative error is O(n u)
    (3.1e-15 on (31,4), 2.7e-14 on (255,12) against mpmath's betainc at
    40 digits). g(0) = 0 and g(1) = 1 exactly. An array is split by a mask
    only when it holds points on both sides of 1/2.

    g', g'' and G are the Beta(t, n-t) density, its derivative and
    (x - t/n) g(x) + x^t (1-x)^(n-t) / (n B(t, n-t)). In g and in them
    every power is taken by one routine, repeated squaring (power), so
    they use only +, -, * and /: a Python float and an array element take
    the same operations and round the same, the float-lane rule of
    maxsat.thresholds. A numpy scalar or 0-d array is taken as the Python
    float it holds (lane).
    """
    combs = [float(math.comb(n - 1, i)) for i in range(n)]
    # Horner coefficients from the top degree down: C(n-1, n-1..t) in r
    # followed by t zeros, and C(n-1, n-1-t..0) in s
    low = (combs[n - 1:t - 1:-1], t)
    high = (combs[n - 1 - t::-1], 0)
    # the array lane's constants as 0-d arrays, which a ufunc takes with
    # less overhead than a Python float, and which round the same
    low_0d, high_0d = (([np.array(c) for c in top], zeros) for top, zeros in (low, high))
    one_0d = np.array(1.0)
    inv_beta = math.exp(math.lgamma(n) - math.lgamma(t) - math.lgamma(n - t))

    def power(b, m):
        # b^m, from the first factor on (1.0 * b is b, bit for bit)
        out, sq = None, b
        while True:
            if m & 1:
                out = sq if out is None else out * sq
            m >>= 1
            if not m:
                return 1.0 if out is None else out
            sq = sq * sq

    def horner(num, den, coeffs):
        # den^(n-1) times the polynomial in num/den is the tail sum; the
        # in-place steps rebind a float and update the new array
        z = num / den
        top, zeros = coeffs
        acc = top[0] * z
        acc += top[1]
        for c in top[2:]:
            acc *= z
            acc += c
        for _ in range(zeros):
            acc *= z
        return acc * power(den, n - 1)

    def lane(x):
        # a Python float stays one, a numpy scalar or 0-d array becomes the
        # float it holds, and anything else is a float array
        if type(x) is float:
            return x
        arr = np.asarray(x, dtype=float)
        return arr if arr.ndim else float(arr)

    def g(x):
        x = lane(x)
        if type(x) is float:
            return horner(x, 1.0 - x, low) if x <= 0.5 else horner(1.0 - x, x, high)
        below = x <= 0.5
        if below.all():
            return horner(x, one_0d - x, low_0d)
        if not below.any():
            return horner(one_0d - x, x, high_0d)
        out = np.empty_like(x)
        xl, xh = x[below], x[~below]
        out[below] = horner(xl, one_0d - xl, low_0d)
        out[~below] = horner(one_0d - xh, xh, high_0d)
        return out

    def g_prime(x):
        z = lane(x)
        return inv_beta * power(z, t - 1) * power(1.0 - z, n - t - 1)

    def g_second(x):
        z = lane(x)
        return inv_beta * ((t - 1) * power(z, t - 2) * power(1.0 - z, n - t - 1)
                           - (n - t - 1) * power(z, t - 1) * power(1.0 - z, n - t - 2))

    def G(x):
        z = lane(x)
        return (z - t / n) * g(z) + inv_beta / n * power(z, t) * power(1.0 - z, n - t)

    return g, g_prime, g_second, G, inv_beta


def gldpc_system(params: GldpcParams) -> ParamSystem:
    """Degree-2-bit code family with bounded-distance component decoding:
    f(x;eps) = eps x and g(x) = I_x(t, n-t).

    The fixed-point potential collapses to Q(x) = x g(x)/2 - G(x), the trial
    entropy is P = -2Q with P'(x) = g(x) - x g'(x), and the zero state is
    unconditionally stable for t >= 2 (the update has zero slope at 0).
    """
    n, t = params.n, params.t
    g, g_prime, g_second, G, inv_beta = _bch_transfer(n, t)
    xpk = (t - 1) / (n - 2)
    gp_sup = float(g_prime(xpk))

    def exit_fn(x, e):
        # g * g, not g ** 2: the float-lane rule of the module docstring
        gx = g(x)
        return gx * gx

    psys = ParamSystem(
        f=lambda x, e: e * x,
        g=lambda x, e: g(x),
        f_x=lambda x, e: e,
        g_x=lambda x, e: g_prime(x),
        g_xx=lambda x, e: g_second(x),
        f_eps=lambda x, e: x,
        g_eps=lambda x, e: 0.0,
        F=lambda x, e: 0.5 * e * x * x,
        G=lambda x, e: G(x),
        F_eps=lambda x, e: 0.5 * x * x,
        G_eps=lambda x, e: 0.0,
        exit_fn=exit_fn,
        trial_entropy=lambda x: 2.0 * G(x) - x * g(x),
        trial_entropy_prime=lambda x: g(x) - x * g_prime(x),
        sup_f_x=lambda e: e,
        sup_g_x=lambda e: gp_sup,
        name=f"gldpc(n={n},t={t})",
    )
    validate_param_system(psys)
    return psys


def dec_phi(x, eps):
    """Erasure transfer function of a two-tap partial-response detector,
    phi(x; eps) = 4 eps^2 / (2 - (1-eps) x)^2.

    The channel of isi_system, with provenance flagged as external;
    satisfies phi(x;0) = 0 and phi(1;1) = 1 and is non-decreasing in both
    arguments on [0, 1]^2.
    """
    # products, not powers: the float-lane rule of the module docstring
    d = 2.0 - (1.0 - eps) * x
    return 4.0 * eps * eps / (d * d)


def _dec_phi_x(x, eps):
    d = 2.0 - (1.0 - eps) * x
    return 8.0 * eps * eps * (1.0 - eps) / (d * d * d)


def _dec_phi_eps(x, eps):
    d = 2.0 - (1.0 - eps) * x
    return 8.0 * eps * (2.0 - x) / (d * d * d)


def _dec_Phi(z, eps):
    # antiderivative of dec_phi in its first argument, 0 at 0
    return 2.0 * eps * eps * z / (2.0 - (1.0 - eps) * z)


def _dec_Phi_eps(z, eps):
    d = 2.0 - (1.0 - eps) * z
    return 2.0 * eps * z * (4.0 - 2.0 * z + eps * z) / (d * d)


def isi_system(L: Union[DegreeDistribution, PolyLike],
               R: Union[DegreeDistribution, PolyLike]) -> ParamSystem:
    """Joint detection/decoding family f(x;eps) = phi(L(x);eps) lam(x) with
    the LDPC check side g = 1 - rho(1-x), over the dicode erasure channel:
    phi = dec_phi maps the code's a-priori erasure rate and the channel
    parameter to the detector's extrinsic erasure rate, with closed-form
    partials and antiderivative.
    """
    lam, rho, lam_p, rho_p, rho_pp, Lp1, Rp1, Ln, Rn, rp1 = _erasure_profiles(L, R)

    def f_x(x, e):
        lx = lam(x)
        return _dec_phi_x(Ln(x), e) * Lp1 * (lx * lx) + dec_phi(Ln(x), e) * lam_p(x)

    psys = ParamSystem(
        f=lambda x, e: dec_phi(Ln(x), e) * lam(x),
        f_x=f_x,
        f_eps=lambda x, e: _dec_phi_eps(Ln(x), e) * lam(x),
        F=lambda x, e: _dec_Phi(Ln(x), e) / Lp1,
        F_eps=lambda x, e: _dec_Phi_eps(Ln(x), e) / Lp1,
        **_ldpc_check_side(rho, rho_p, rho_pp, Rn, Rp1),
        exit_fn=lambda x, e: _dec_Phi_eps(Ln(1.0 - rho(1.0 - x)), e),
        name="isi",
    )
    validate_param_system(psys)
    return psys


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    ex = np.exp(t[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class GaussianPrior:
    """Zero-mean Gaussian signal prior; mmse(s) = v / (1 + v s)."""

    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ConstructionError("variance must be positive")

    def mmse(self, snr):
        return self.variance / (1.0 + self.variance * snr)

    def mmse_prime(self, snr):
        return -self.variance**2 / (1.0 + self.variance * snr) ** 2

    def mutual_information(self, snr):
        """I(X; sqrt(snr) X + Z) in nats."""
        return 0.5 * np.log1p(self.variance * snr)


@dataclass(frozen=True)
class TwoPointPrior:
    """Sparse prior: X = mass with probability rho_s, else 0.

    The conditional mean under a scaled Gaussian observation is a logistic
    function of the observation, so the estimator quadrature runs entirely
    in the log domain and cannot overflow.
    """

    mass: float
    rho_s: float

    def __post_init__(self):
        if not 0.0 <= self.rho_s <= 1.0:
            raise ConstructionError("rho_s must lie in [0, 1]")

    def mmse(self, snr):
        arr = np.asarray(snr, dtype=float)
        if np.any(arr < 0):
            raise DomainError("snr must be >= 0")
        a, rho = self.mass, self.rho_s
        if a == 0.0 or rho in (0.0, 1.0):
            return 0.0 * arr if arr.ndim else 0.0
        s = np.atleast_1d(arr)[..., None]
        nodes, weights = gauss_hermite(61)
        z = math.sqrt(2.0) * nodes
        logit = math.log(rho / (1.0 - rho))
        root_s = np.sqrt(s)
        shift = -0.5 * s * a * a + logit
        m_on = a * _sigmoid(root_s * a * (root_s * a + z) + shift)
        m_off = a * _sigmoid(root_s * a * z + shift)
        est2 = (rho * np.sum(weights * m_on**2, axis=-1)
                + (1.0 - rho) * np.sum(weights * m_off**2, axis=-1)) / math.sqrt(math.pi)
        out = np.maximum(a * a * rho - est2, 0.0)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@dataclass(frozen=True)
class CsParams:
    """Compressed-sensing model: prior, noise variance, measurement rate."""

    prior: Union[GaussianPrior, TwoPointPrior]
    sigma2: float
    delta: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ConstructionError("sigma2 must be positive")
        if self.delta <= 0:
            raise ConstructionError("delta must be positive")


def cs_system(params: CsParams, use_closed_form_F: bool = False) -> ScalarSystem:
    """State-evolution pair for the per-component MSE:
    f(y) = mmse(1/sigma2 - y), g(x) = 1/sigma2 - 1/(sigma2 + x/delta).

    The fixed point of f(g(x)) is the MSE of the estimator; x_max is
    mmse(0). By default F is tabulated once from f on [0, y_max] (see
    make_system); by the I-MMSE identity it matches the mutual-information
    expression up to the table's 1e-11 and the rounding of f. For the
    Gaussian prior use_closed_form_F swaps in that expression.
    """
    prior, s2, delta = params.prior, params.sigma2, params.delta
    x_max = float(prior.mmse(0.0))
    if x_max <= 0.0:
        raise ConstructionError("degenerate prior: mmse(0) = 0")

    def g(x):
        return 1.0 / s2 - 1.0 / (s2 + x / delta)

    def g_prime(x):
        return (1.0 / delta) / (s2 + x / delta) ** 2

    def g_second(x):
        return (-2.0 / delta**2) / (s2 + x / delta) ** 3

    def G(x):
        return x / s2 - delta * np.log1p(x / (delta * s2))

    def f(y):
        return prior.mmse(1.0 / s2 - y)

    f_prime = None
    F = None
    if isinstance(prior, GaussianPrior):
        def f_prime(y):
            return -prior.mmse_prime(1.0 / s2 - y)

        if use_closed_form_F:
            base = prior.mutual_information(1.0 / s2)

            def F(y):
                return 2.0 * (base - prior.mutual_information(1.0 / s2 - y))
    elif use_closed_form_F:
        raise ConstructionError("closed-form F is only available for the Gaussian prior")

    return make_system(
        f=f, g=g, x_max=x_max,
        f_prime=f_prime, g_prime=g_prime, g_second=g_second,
        F=F, G=G,
        g_prime_sup=(1.0 / delta) / s2**2,
        g_second_sup=(2.0 / delta**2) / s2**3,
        name="cs-gaussian" if isinstance(prior, GaussianPrior) else "cs-two-point",
    )


def example1_system() -> ScalarSystem:
    """Quadratic demo pair f(y) = 0.97 y^2, g(x) = 1 - (1-x)^2 on [0, 1]:
    the slice of the (3,3)-regular LDPC family at eps = 0.97."""
    return ldpc_system("x^3", "x^3").at_eps(0.97, validate=True)


def example2_system() -> ScalarSystem:
    """Quintic demo pair f(y) = y^5, g(x) = 1 - rho(1-x)/2 on [0, 1]: the
    slice at eps = 1/2 of the LDGM family with L = x^6 and check profile
    R = 2/15 x + 1/15 x^2 + 7/15 x^3 + 1/3 x^4."""
    return ldgm_system("x^6", "2/15 x + 1/15 x^2 + 7/15 x^3 + 1/3 x^4").at_eps(
        0.5, validate=True)


def pathological_system() -> ScalarSystem:
    """Identity g with f chosen so the potential is
    x^5 sin^4(pi/x)/25 + x^6/30: its local minima (all fixed points)
    accumulate at 0, so no finite coupling width is certified."""

    def trig(x):
        arr = np.asarray(x, dtype=float)
        safe = np.where(arr > 0.0, arr, 1.0)
        s = np.where(arr > 0.0, np.sin(np.pi / safe), 0.0)
        c = np.where(arr > 0.0, np.cos(np.pi / safe), 1.0)
        return arr, s, c

    def f(x):
        arr, s, c = trig(x)
        out = (arr - 0.2 * arr**4 * s**4 + (4.0 * math.pi / 25.0) * arr**3 * s**3 * c
               - 0.2 * arr**5)
        return float(out) if np.ndim(x) == 0 else out

    def f_prime(x):
        arr, s, c = trig(x)
        out = (1.0 - 0.8 * arr**3 * s**4 + (32.0 * math.pi / 25.0) * arr**2 * s**3 * c
               - (4.0 * math.pi**2 / 25.0) * arr * (3.0 * s**2 * c**2 - s**4)
               - arr**4)
        return float(out) if np.ndim(x) == 0 else out

    def F(x):
        arr, s, _ = trig(x)
        out = 0.5 * arr**2 - arr**5 * s**4 / 25.0 - arr**6 / 30.0
        return float(out) if np.ndim(x) == 0 else out

    return make_system(
        f=f,
        g=lambda x: 1.0 * x,
        x_max=1.0,
        f_prime=f_prime,
        g_prime=lambda x: 1.0,
        g_second=lambda x: 0.0,
        F=F,
        G=lambda x: 0.5 * x**2,
        g_prime_sup=1.0,
        g_second_sup=0.0,
        name="pathological",
    )
