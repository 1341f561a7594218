"""Parameter-dependent analysis: the potential envelope Psi(eps), the
single-system / stability / coupled / Maxwell thresholds, the fixed-point
curve (eps(x), Q(x)), and EXIT-style curves.

A parameterized family supplies f(x; eps), g(x; eps), their x- and
eps-partials, and antiderivatives F, G (in x, with F(0) = G(0) = 0) plus
eps-partials of those.

Every callable is elementwise, and x and eps broadcast against each
other. For x of shape S (a scalar has shape ()) and eps broadcastable to
S, the maps f, g, F, G and exit_fn return shape S; a partial (f_x, g_x,
g_xx, f_eps, g_eps, F_eps, G_eps, and a slice's f_prime, g_prime,
g_second) may return any value that broadcasts to S, so an identically
constant partial is written as a float, e.g. ``g_eps=lambda x, e: 0.0``.
Only the validators and the MAP batch broadcast or check shapes. x of
shape (K, M) with eps of shape (K, 1) evaluates K parameter values at
once, and so does the open grid of x of shape (M,) with eps of shape
(K, 1), on which a map returns a value that broadcasts to (K, M) (g of an
eps-free check side gives (M,)) and computes a factor of x alone once for
all K rows (_minimize_us_lanes). An entry takes the same operations in
the same order either way, so the open grid gives the bits of the mesh.
A Python float x with a float eps gives a float (or a partial's
constant) with the bits of the same x inside an array: the scalar probes
of a search take the rounding of the grid they refine, and eps_of_x
solves a float on floats (_solve_eps). The shipped families' callables
use only +, -, * and / (products, Horner sums, repeated squaring), which
round a float as they round an array entry; a float's own ** calls the C
library's pow, which differs from numpy's array power and square in the
last bit at a few per cent of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import recursion
from .errors import (ConstructionError, DomainError, NonConvergenceError,
                     NumericError, ThresholdUndefinedError)
from .numerics import _check_tol, bisect_root
from .potential import MinimizeResult, _minimize_lanes, minimize_potential, rounding_level
from .recursion import (ANALYSIS_GRID_N, CouplingSpec, IterationConfig, ScalarSystem,
                        _analysis_grid, make_system, tabulated_integral)

__all__ = [
    "ParamSystem",
    "validate_param_system",
    "minimize_us_at",
    "Psi",
    "x_bar_star",
    "x_lower_star",
    "eps_single",
    "eps_stab",
    "eps_c",
    "eps_of_x",
    "eps_prime_of_x",
    "Q_of_x",
    "Q_integral_check",
    "xf_intervals",
    "maxwell_threshold",
    "psi_exit",
    "psi_integral",
    "FixedPointCurve",
    "ebp_curve",
    "MapExitCurve",
    "map_exit_curve",
    "map_jumps",
    "coupled_sweep",
    "inverse_Psi_threshold",
    "inverse_psi_table",
    "ThresholdReport",
    "threshold_report",
]


# Minimizer grid of the MAP curve and its jumps (map_jumps), which
# psi_integral integrates; the other analyses minimize on ANALYSIS_GRID_N
# points.
_CURVE_GRID_N = 3000
# Jumps of the largest minimizer: the longest eps step of psi_integral's
# curve, the smallest jump, and the eps width each jump is bisected to.
_JUMP_SCAN_STEP = 1e-3
_JUMP_SIZE = 0.01
_JUMP_EPS_TOL = 1e-6
# eps(x)'s Newton solve (_solve_eps): the bracket width at which it stops,
# the step, relative to eps, after which it stops, and the lane count below
# which an array's lanes finish as floats.
_EPS_OF_X_TOL = 1e-12
_EPS_OF_X_STEP = 1e-10
_EPS_OF_X_FLOAT_LANES = 8
# The Maxwell rule's root of Q in x is bracketed below the float spacing of
# x, so Brent's method stops a few ulps wide. Widths in eps of eps_stab's
# root bracket and of inverse_Psi_threshold's envelope search.
_Q_ROOT_TOL = 1e-20
_EPS_STAB_TOL = 1e-12
_INVERSE_PSI_TOL = 1e-9
_X_TINY = 1e-9


def _grid(psys: ParamSystem):
    """validate_param_system's grid, on which ParamSystem measures its
    structural facts too: (X, E) of shape (201, 9), with row 0 at x = 0
    and column 0 at eps = 0."""
    return np.meshgrid(np.linspace(0.0, psys.x_max, 201),
                       np.linspace(0.0, psys.eps_max, 9), indexing="ij")


def _check_eps(psys: ParamSystem, eps) -> float:
    """eps as a float; DomainError outside [0, eps_max] or for a NaN."""
    e = float(eps)
    if not 0.0 <= e <= psys.eps_max:
        raise DomainError(f"eps={e} outside [0, {psys.eps_max}]")
    return e


@dataclass(frozen=True)
class ParamSystem:
    """Family of scalar systems indexed by a parameter eps in [0, eps_max].

    Three structural facts the analyses need are measured once per
    instance on validate_param_system's 201 x 9 grid (_grid): ``proper``,
    h_eps > 0 on its interior x > 0, eps > 0 (the update grows strictly
    with eps), ``zero_is_fixed_point``, |h(0; eps)| <= 1e-12 at its 9
    values of eps, and ``eps_free_check_side``, g and G the same at every
    eps there. Everything else about the zero state, such as its
    stability threshold, is computed from f_x and g_x; the optional
    fields are the EXIT functional, the trial entropy and bounds on the
    partials, and eps(x) has one route on every family (eps_of_x), which
    takes two Newton rounds where h is linear in eps. The fixed-point
    curve is tabulated once too (_fp_grid, _fp_curve), and so, on a
    family whose check side is eps-free, are g and x g - G on each grid it
    is minimized on (_check_side), which the fixed-point table reads too
    (_fp_check_side).
    Two thresholds that several analyses read are kept once found, each as
    its value or the reason it is undefined (_settled): the stability
    threshold (_stab) and the Maxwell threshold with its note (_maxwell).

    The callables are elementwise (module docstring): f, g, F, G and
    exit_fn return the shape of x where eps broadcasts to it, and on an
    open grid a value that broadcasts to the shape of the two together;
    each partial returns any value that broadcasts to that shape. Of the
    methods, h and u are maps, and so is exit_value when exit_fn is given;
    h_x, h_eps and u_eps are partials.
    """

    f: Callable
    g: Callable
    f_x: Callable
    g_x: Callable
    g_xx: Callable
    f_eps: Callable
    g_eps: Callable
    F: Callable
    G: Callable
    F_eps: Callable
    G_eps: Callable
    x_max: float = 1.0
    eps_max: float = 1.0
    exit_fn: Optional[Callable] = None
    trial_entropy: Optional[Callable] = None
    trial_entropy_prime: Optional[Callable] = None
    sup_f_x: Optional[Callable] = None
    sup_g_x: Optional[Callable] = None
    sup_g_xx: Optional[Callable] = None
    name: str = ""

    @cached_property
    def proper(self) -> bool:
        """h_eps > 0 on the interior (x > 0, eps > 0) of the grid."""
        X, E = _grid(self)
        return bool(np.all(np.asarray(self.h_eps(X[1:, 1:], E[1:, 1:]), dtype=float) > 0.0))

    @cached_property
    def zero_is_fixed_point(self) -> bool:
        """|h(0; eps)| <= 1e-12 at the grid values of eps."""
        X, E = _grid(self)
        return bool(np.all(np.abs(np.asarray(self.h(X[0], E[0]), dtype=float)) <= 1e-12))

    @cached_property
    def eps_free_check_side(self) -> bool:
        """g and G do not depend on eps: g(X, E) and G(X, E) are bit-equal
        across the grid's 9 eps columns, and g_eps and G_eps are 0 on it."""
        X, E = _grid(self)
        g, G, g_eps, G_eps = (np.asarray(fn(X, E), dtype=float)
                              for fn in (self.g, self.G, self.g_eps, self.G_eps))
        g, G = g.view(np.int64), G.view(np.int64)
        return bool(np.all(g == g[:, :1]) and np.all(G == G[:, :1])
                    and np.all(g_eps == 0.0) and np.all(G_eps == 0.0))

    @cached_property
    def _check_side_tables(self) -> dict:
        """Grid size -> (g, x g - G) on that analysis grid, as read-only
        arrays (_check_side)."""
        return {}

    def _check_side(self, xs: np.ndarray, eps) -> tuple:
        """g(xs; eps) and xs g - G(xs; eps) on a shared analysis grid xs
        (recursion._analysis_grid), the eps-free part of U_s as u computes
        it, for a float eps or a column of them (shape (k, 1), one row
        each). A column makes an open grid with xs, so that a factor of x
        alone is computed once for all rows, and g comes back broadcast to
        (k, xs.size). With eps_free_check_side both are tabulated once per
        grid size and come back read-only, as one row for every eps."""
        if not self.eps_free_check_side:
            g = self.g(xs, eps)
            if isinstance(eps, np.ndarray):
                g = np.broadcast_to(g, (eps.shape[0], xs.size))
            return g, xs * g - self.G(xs, eps)
        table = self._check_side_tables.get(xs.size)
        if table is None:
            g = np.asarray(self.g(xs, 0.0), dtype=float)
            table = (g, xs * g - self.G(xs, 0.0))
            for a in table:
                a.flags.writeable = False
            self._check_side_tables[xs.size] = table
        return table

    @cached_property
    def _fp_check_side(self) -> Optional[tuple]:
        """g and x g - G on _fp_grid's points for a family with
        eps_free_check_side, None otherwise: the analysis grid's table
        (_check_side) with its first point replaced by _X_TINY's own
        values."""
        if not self.eps_free_check_side:
            return None
        tiny = np.array([_X_TINY])
        g_tiny = np.asarray(self.g(tiny, 0.0), dtype=float)
        g, xg_G = self._check_side(_analysis_grid(float(self.x_max), ANALYSIS_GRID_N), 0.0)
        return (np.concatenate((g_tiny, g[1:])),
                np.concatenate((tiny * g_tiny - self.G(tiny, 0.0), xg_G[1:])))

    @cached_property
    def _fp_grid(self) -> tuple:
        """The analysis grid with its first point at _X_TINY, and h(x; 0)
        and h(x; eps_max) on it; with _fp_check_side, as f(g; eps) of its
        g, the operations of h."""
        xs = np.concatenate(([_X_TINY], _analysis_grid(float(self.x_max), ANALYSIS_GRID_N)[1:]))
        side = self._fp_check_side
        if side is None:
            return xs, self.h(xs, 0.0), self.h(xs, self.eps_max)
        return xs, self.f(side[0], 0.0), self.f(side[0], self.eps_max)

    @cached_property
    def _fp_curve(self) -> tuple:
        """eps(x) and Q(x) on _fp_grid where h(x; 0) <= x + 1e-12 and
        h(x; eps_max) >= x, NaN elsewhere. Those points lie in the
        fixed-point domain, a stricter test than eps_of_x's own, so eps(x)
        is solved there directly (_solve_eps), from the grid's h(x; eps_max).
        With _fp_check_side, the solve's rounds and Q read its g and
        x g - G: Q = (x g - G) - F(g; eps(x)), the operations and order of u."""
        xs, h0, hmax = self._fp_grid
        eps, q = np.full_like(xs, np.nan), np.full_like(xs, np.nan)
        at = (h0 <= xs + 1e-12) & (hmax >= xs)
        side = self._fp_check_side
        eps[at] = _solve_eps(self, xs[at], hmax[at], None if side is None else side[0][at])
        if side is None:
            q[at] = self.u(xs[at], eps[at])
        else:
            q[at] = side[1][at] - self.F(side[0][at], eps[at])
        return eps, q

    @cached_property
    def _stab(self) -> tuple:
        """eps_stab's root, or the reason it is undefined (_settled)."""
        return _settled(_stab_root, self)

    @cached_property
    def _maxwell(self) -> tuple:
        """The Maxwell threshold and its note (_maxwell_rule), or the reason
        it is undefined (_settled)."""
        return _settled(_maxwell_rule, self)

    def h(self, x, eps):
        return self.f(self.g(x, eps), eps)

    def h_x(self, x, eps):
        return self.f_x(self.g(x, eps), eps) * self.g_x(x, eps)

    def h_eps(self, x, eps):
        g = self.g(x, eps)
        return self.f_x(g, eps) * self.g_eps(x, eps) + self.f_eps(g, eps)

    def u(self, x, eps):
        """Potential slice U_s(x; eps)."""
        g = self.g(x, eps)
        return x * g - self.G(x, eps) - self.F(g, eps)

    def u_eps(self, x, eps):
        """eps-partial of the potential at fixed x."""
        g = self.g(x, eps)
        return ((x - self.f(g, eps)) * self.g_eps(x, eps)
                - self.G_eps(x, eps) - self.F_eps(g, eps))

    def exit_value(self, x, eps):
        """EXIT functional along the recursion state.

        Families override with their conventional normalization; the
        fallback is G_eps + F_eps(g(.)), the magnitude of the potential's
        eps-slope at a fixed point.
        """
        if self.exit_fn is not None:
            return self.exit_fn(x, eps)
        return self.G_eps(x, eps) + self.F_eps(self.g(x, eps), eps)

    def at_eps(self, eps: float, validate: bool = False) -> ScalarSystem:
        """Freeze the parameter and return the scalar system slice."""
        e = _check_eps(self, eps)
        return make_system(
            f=lambda y, _e=e: self.f(y, _e),
            g=lambda x, _e=e: self.g(x, _e),
            x_max=self.x_max,
            f_prime=lambda y, _e=e: self.f_x(y, _e),
            g_prime=lambda x, _e=e: self.g_x(x, _e),
            g_second=lambda x, _e=e: self.g_xx(x, _e),
            F=lambda y, _e=e: self.F(y, _e),
            G=lambda x, _e=e: self.G(x, _e),
            f_prime_sup=self.sup_f_x(e) if self.sup_f_x else None,
            g_prime_sup=self.sup_g_x(e) if self.sup_g_x else None,
            g_second_sup=self.sup_g_xx(e) if self.sup_g_xx else None,
            name=f"{self.name}@eps={e:g}" if self.name else f"@eps={e:g}",
            validate=validate,
        )


def _settled(rule: Callable, psys: ParamSystem) -> tuple:
    """(rule(psys), None), or (None, the reason) where it raises
    ThresholdUndefinedError: a threshold kept once found (_held)."""
    try:
        return rule(psys), None
    except ThresholdUndefinedError as exc:
        return None, str(exc)


def _held(settled: tuple):
    """The value a _settled pair holds; ThresholdUndefinedError with its
    reason where it holds none."""
    value, reason = settled
    if reason is not None:
        raise ThresholdUndefinedError(reason)
    return value


def validate_param_system(psys: ParamSystem) -> None:
    """Grid admissibility checks for a family; raises one ConstructionError
    listing every failure.

    Each of the 9 eps lanes of the 201 x 9 grid of [0, x_max] x
    [0, eps_max] (_grid) must pass the checks of a slice, the ones
    validate_system runs on one lane (recursion._lane_problems), except
    that g_x may vanish on the eps = eps_max lane (e.g. a fully erased
    channel). Across the lanes, on the grid itself: f and g non-decreasing
    in eps, F_eps and G_eps finite, non-negative and non-decreasing in x,
    and h_eps finite on the interior x > 0, eps > 0. proper and
    zero_is_fixed_point are measured on the same grid, not checked.
    """
    X, E = _grid(psys)
    label = f"family {psys.name or '<anonymous>'}: "
    problems, gx = recursion._lane_problems(label, psys.f, psys.g, psys.g_x, psys.F, psys.G,
                                            psys.x_max, E[0][:, None], X.shape[0], strict=-1)

    # a constant partial may come back as a float
    fe = np.broadcast_to(np.asarray(psys.F_eps(X, E), dtype=float), X.shape)
    ge = np.broadcast_to(np.asarray(psys.G_eps(X, E), dtype=float), X.shape)
    he = np.asarray(psys.h_eps(X[1:, 1:], E[1:, 1:]), dtype=float)
    for name, vals in (("F_eps", fe), ("G_eps", ge), ("h_eps", he)):
        if not np.all(np.isfinite(vals)):
            problems.append(f"{name} is not finite on the grid")
    # the lanes' g samples are g(X, E) transposed; f is sampled on each
    # lane's own y-grid there, so it is evaluated once more on X
    if not np.min(np.diff(gx, axis=0)) >= -1e-9:
        problems.append("g decreasing in eps")
    if not np.min(np.diff(np.asarray(psys.f(X, E), dtype=float), axis=1)) >= -1e-9:
        problems.append("f decreasing in eps")
    # a NaN of F_eps or G_eps passes these two, having failed above
    if np.min(fe) < -1e-9 or np.min(ge) < -1e-9:
        problems.append("F_eps or G_eps negative")
    if np.min(np.diff(fe, axis=0)) < -1e-9 or np.min(np.diff(ge, axis=0)) < -1e-9:
        problems.append("F_eps or G_eps decreasing in x")

    if problems:
        raise ConstructionError(label + "; ".join(problems))


def minimize_us_at(psys: ParamSystem, eps: float,
                   grid_n: int = ANALYSIS_GRID_N) -> MinimizeResult:
    """Minimize the potential slice at one parameter value in [0, eps_max]
    (DomainError outside it or for a NaN).

    On the grid, U_s and h share one evaluation of g, and a family with
    eps_free_check_side reads g and x g - G from its tables (_check_side),
    so each call evaluates only F and f there: U_s = (x g - G) - F(g; eps)
    and h = f(g; eps), the operations and order of ParamSystem.u and h.
    The scalar probes of the refinements call u and h."""
    e = _check_eps(psys, eps)

    def on_grid(xs):
        g, xg_G = psys._check_side(xs, e)
        return xg_G - psys.F(g, e), psys.f(g, e)

    return minimize_potential(lambda x: psys.u(x, e), lambda x: psys.h(x, e),
                              psys.x_max, float(psys.g(psys.x_max, e)), grid_n, on_grid)


def _minimize_us_lanes(psys: ParamSystem, es, grid_n: int) -> list:
    """minimize_us_at at each eps of es, as one batch
    (potential._minimize_lanes): the grid is scanned for blocks of eps at
    once, as an open grid of x of shape (grid_n,) and eps of shape (k, 1),
    so that a factor without eps (lam(g), L(g), rho(1 - x)) is computed
    once per block, and the refinements of all of them run as lanes. Only
    the results are broadcast to (k, grid_n). The family callables give an
    array entry the bits of the float call, whatever the shapes, so each
    result equals minimize_us_at's bit for bit."""
    es = np.array([_check_eps(psys, e) for e in es], dtype=float)

    def on_grid(xs, e):
        g, xg_G = psys._check_side(xs, e)
        shape = (e.shape[0], xs.size)
        return (np.broadcast_to(xg_G - psys.F(g, e), shape),
                np.broadcast_to(psys.f(g, e), shape))

    y_max = psys.g(np.full(es.shape, float(psys.x_max)), es)
    return _minimize_lanes(psys.u, psys.h, es, psys.x_max, y_max, grid_n, on_grid)


def Psi(psys: ParamSystem, eps: float) -> float:
    """Minimum of the potential slice, min_x U_s(x; eps)."""
    return minimize_us_at(psys, eps).value


def x_bar_star(psys: ParamSystem, eps: float, grid_n: int = ANALYSIS_GRID_N) -> float:
    """Largest minimizer of the potential slice."""
    return minimize_us_at(psys, eps, grid_n).x_upper


def x_lower_star(psys: ParamSystem, eps: float) -> float:
    """Smallest minimizer of the potential slice."""
    return minimize_us_at(psys, eps).x_lower


def eps_single(psys: ParamSystem) -> float:
    """Largest eps below which the uncoupled recursion converges to zero:
    sup{eps : h(x; eps) < x on (0, x_max]}, as the minimum of the
    fixed-point table's eps(x) (ParamSystem._fp_curve) over its points
    where h(x; eps_max) >= x, or eps_max where there are none. Since f and
    g are non-decreasing in eps, h(x; eps) < x at a grid point exactly for
    eps < eps(x), so this is the supremum of the predicate on the grid.

    When 0 is a fixed point the result is at most eps_stab, since h > x
    just above 0 for larger eps; the grid's first point, 1e-9, cannot see
    that crossing through rounding noise at a continuous transition. When
    0 is not a fixed point that first point sets the value instead: on an
    ldgm family with lam(x) = x^5, h(0; eps) = eps^5 > 0 and the supremum
    is 0, but the grid gives eps(1e-9), about (1e-9)^(1/5) = 0.0158.
    """
    xs, h0, hmax = psys._fp_grid
    if not np.all(h0 < xs):
        raise ThresholdUndefinedError("h(x; 0) >= x somewhere; single-system threshold undefined")
    es = float(np.min(psys._fp_curve[0][hmax >= xs], initial=psys.eps_max))
    return min(es, eps_stab(psys)) if psys.zero_is_fixed_point else es


def eps_stab(psys: ParamSystem) -> float:
    """Stability threshold of the zero fixed point: the root of
    h'(0; eps) = f_x(g(0; eps); eps) g_x(0; eps) = 1, found to a 1e-12
    bracket by Brent's method (bisect_root), or eps_max when the slope
    stays below 1. It is found once per family (ParamSystem._stab), for
    eps_single, eps_c and the Maxwell threshold too."""
    return _held(psys._stab)


def _stab_root(psys: ParamSystem) -> float:
    """eps_stab, found anew."""
    if not psys.zero_is_fixed_point:
        raise ThresholdUndefinedError("0 is not a fixed point; stability threshold undefined")

    def slope(e: float) -> float:
        return float(psys.h_x(0.0, e))

    if slope(psys.eps_max) < 1.0:
        return psys.eps_max
    if slope(0.0) >= 1.0:
        raise ThresholdUndefinedError("0 unstable already at eps = 0")
    return bisect_root(lambda e: slope(e) - 1.0, 0.0, psys.eps_max, _EPS_STAB_TOL)


def _envelope_sup(psys: ParamSystem, level: float, b: float,
                  res_b: MinimizeResult, tol: float, guess: Optional[float] = None) -> tuple:
    """sup{eps in [0, b] : Psi(eps) >= level - 1e-12}, for a predicate that
    holds at 0 and fails at b, where res_b = minimize_us_at(psys, b);
    minimize_us_at at the failing end of the final bracket; and whether
    the probes at the guess closed the bracket, so that no step was taken.

    A guess m of the supremum is certified first: the predicate is probed
    at m - 0.4 tol and, where it holds there, at m + 0.4 tol, when both lie
    inside (0, b) as distinct floats. Each probe narrows the bracket as any
    probe does, so a guess within 0.4 tol of the supremum leaves a bracket
    at most tol wide after two minimizations and no step is taken, while a
    wrong one costs at most two and the search below goes on from the
    narrowed bracket.

    Each step is a Newton step on Psi = level - 1e-12 from the failing end,
    with the envelope's slope there, u_eps at the largest minimizer
    (envelope theorem), so one minimization gives both the value and the
    slope. Where Psi is concave, as on the erasure families, whose U_s is
    concave in eps for fixed x (affine on ldpc and gldpc), these steps
    approach the root from above and never overshoot it. The bracket
    [a, b] starts at [0, b]. A step is replaced by a bisection when it
    leaves (a, b] or is longer than half the shortest step before it. Once
    the Newton step is below tol / 2 the search evaluates tol / 2 below the
    Newton root instead, which closes the bracket if the root is right, and
    takes no Newton step after that. So at most about log2(b / tol) steps
    of each kind are taken. It returns the midpoint once b - a <= tol, as a
    bisection does, or once a and b are adjacent floats, for a tol below
    their spacing.
    """
    goal = level - 1e-12
    a, last = 0.0, b
    certified = False
    if guess is not None and 0.0 < guess - 0.4 * tol < guess + 0.4 * tol < b:
        for e in (guess - 0.4 * tol, guess + 0.4 * tol):
            res = minimize_us_at(psys, e)
            if res.value < goal:
                b, res_b = e, res
                break
            a = e
        certified = b - a <= tol
    while b - a > tol:
        slope = float(psys.u_eps(res_b.x_upper, b))
        root = b + (goal - res_b.value) / slope if slope < 0.0 else math.nan
        if last > 0.0 and a < root <= b and b - root <= 0.5 * last:
            if b - root < 0.5 * tol:
                # closing step; should it miss, only bisection follows
                e, last = root - 0.5 * tol, 0.0
            else:
                e, last = root, b - root
        else:
            e = 0.5 * (a + b)
            last = min(last, b - e)
        if not a < e < b:
            e = 0.5 * (a + b)
            if not a < e < b:
                break
        res = minimize_us_at(psys, e)
        if res.value >= goal:
            a = e
        else:
            b, res_b = e, res
    return 0.5 * (a + b), res_b, certified


def eps_c(psys: ParamSystem, tol: float = 1e-9) -> float:
    """Coupled (potential) threshold: sup{eps : min_x U_s(x; eps) >= 0},
    to tol, bracketed by 0 and eps_stab. On a proper family it equals the
    Maxwell threshold, which the family keeps once found
    (ParamSystem._maxwell), so where that is defined and below eps_stab
    _envelope_sup certifies it with two minimizations, at eps_maxwell -+
    0.4 tol, and the result is their midpoint; six minimizations in all,
    with the two at 0 and eps_stab and the cross-check's two. Where the
    certificate fails, or there is no Maxwell value to certify,
    _envelope_sup's safeguarded Newton search on the envelope with level
    0 finds the threshold, from the bracket the probes left. Called on its
    own, eps_c thus builds the fixed-point table (ParamSystem._fp_curve)
    that the Maxwell threshold is read from.

    Valid because the envelope is non-increasing and identically zero below
    the threshold when 0 stays a fixed point. Cross-checked against the
    largest-minimizer criterion sup{eps : x_upper*(eps) = 0}.

    The result is at most eps_stab: above it U_s' = (x - h) g' < 0 just
    above 0, so Psi < 0. At a continuous transition Psi leaves 0 like
    (eps - eps_stab)^3, so Psi(eps_stab) is within the -1e-12 margin and
    eps_stab is returned after two minimizations, with no minimizer jump
    to cross-check.

    The cross-check minimizes at eps_c +- max(10 tol, delta), where delta is
    the eps offset over which Psi, with slope u_eps at the minimizer,
    moves by minimize_potential's rounding level (rounding_level). So a
    tol near the float spacing does not put both probes inside rounding
    noise. delta is 3e-14 to 4e-13 on the shipped families, so at the
    default tol the window is 10 tol.

    tol must be finite and > 0 (DomainError, raised before any search);
    eps_stab keeps its own fixed 1e-12 bracket whatever tol is.
    """
    return _eps_c_routed(psys, tol)[0]


def _eps_c_routed(psys: ParamSystem, tol: float) -> tuple:
    """eps_c and a note naming its route: the early return of eps_stab,
    the certificate at eps_maxwell -+ 0.4 tol, or the Newton search."""
    _check_tol(tol)
    if not psys.zero_is_fixed_point:
        raise ThresholdUndefinedError(
            "0 is not a fixed point for all eps; use inverse_Psi_threshold instead")

    if not minimize_us_at(psys, 0.0).value >= -1e-12:
        raise ThresholdUndefinedError("potential already negative at eps = 0")
    e_stab = eps_stab(psys)
    res_stab = minimize_us_at(psys, e_stab)
    if res_stab.value >= -1e-12:
        return e_stab, "eps_stab, where min_x U_s(x;eps) >= 0 still holds"
    maxwell, undefined = psys._maxwell
    guess = None if undefined is not None or maxwell[0] >= e_stab else maxwell[0]
    ec, res_b, certified = _envelope_sup(psys, 0.0, e_stab, res_stab, tol, guess)
    noise = rounding_level(psys.x_max, float(psys.g(psys.x_max, ec)))
    slope = abs(float(psys.u_eps(res_b.x_upper, ec)))
    half = max(10 * tol, noise / slope) if slope > 0.0 else 10 * tol
    lo = max(ec - half, 0.0)
    hi = min(ec + half, psys.eps_max)
    res_lo = minimize_us_at(psys, lo)
    res_hi = minimize_us_at(psys, hi)
    if not (res_lo.value >= -1e-12 and res_lo.x_lower <= 1e-6
            and res_hi.value < -1e-12 and res_hi.x_upper > 1e-6):
        raise ThresholdUndefinedError(
            "potential-threshold cross-check failed around eps_c "
            f"({res_lo.value:.3e}, {res_hi.value:.3e})")
    how = "certified at eps_maxwell -+ 0.4 tol" if certified else "found by safeguarded Newton"
    return ec, f"min_x U_s(x;eps) >= 0 {how}"


def _in_fixed_point_domain(xs, h0, hmax):
    """Mask of the xs (for floats, whether x) that support a fixed point for
    some eps in [0, eps_max]: h0 = h(x; 0) <= x <= hmax = h(x; eps_max), to
    1e-12."""
    return (h0 <= xs + 1e-12) & (hmax >= xs - 1e-12)


def _eps_bracket_check(psys: ParamSystem, xs, g=None):
    """h(x; eps_max) at xs, an array or a float (checked on floats);
    DomainError unless every x of xs lies in the fixed-point domain. g, for
    a family with eps_free_check_side, is g(xs), and h is f(g; eps), the
    operations of ParamSystem.h without g."""
    if g is None:
        hmax, h0 = psys.h(xs, psys.eps_max), psys.h(xs, 0.0)
    else:
        hmax, h0 = psys.f(g, psys.eps_max), psys.f(g, 0.0)
    ok = _in_fixed_point_domain(xs, h0, hmax)
    if not np.all(ok):
        bad = np.atleast_1d(xs)[~np.atleast_1d(ok)]
        raise DomainError(f"x not in the fixed-point domain: {bad[:4]}...")
    return hmax


def eps_of_x(psys: ParamSystem, x):
    """Smallest parameter supporting a fixed point at x (unique when
    proper), elementwise: the root in eps of h(x; eps) = x by a safeguarded
    Newton solve (_solve_eps), to float precision within a bracket that
    guarantees 1e-12, on every family alike. Where h is linear in eps (the
    ldpc and gldpc families) the first Newton step is exact and the second
    round returns it, and an x with h(x; eps_max) <= x gives eps_max
    without a round. A scalar x gives a float, an array its shape; a
    Python float is checked and solved on floats, with the bits of its
    lane in an array. On a family whose check side is eps-free, g(x) is
    evaluated once, for the domain check and the solve alike. DomainError
    for an x outside (0, x_max] or outside the fixed-point domain."""
    if isinstance(x, float):
        if x <= 0.0 or x > psys.x_max:
            raise DomainError("eps_of_x needs x in (0, x_max]")
        g = psys.g(x, 0.0) if psys.eps_free_check_side else None
        return float(_solve_eps(psys, x, _eps_bracket_check(psys, x, g), g))
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).astype(float)
    if np.any(flat <= 0.0) or np.any(flat > psys.x_max):
        raise DomainError("eps_of_x needs x in (0, x_max]")
    g = psys.g(flat, 0.0) if psys.eps_free_check_side else None
    out = _solve_eps(psys, flat, _eps_bracket_check(psys, flat, g), g)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _solve_eps(psys: ParamSystem, xs, hmax, g=None):
    """eps(x) at each of xs (in the fixed-point domain), where hmax is
    h(xs; eps_max): eps_max where hmax <= x, the bracket's upper end, at
    once; elsewhere the root in eps of h(x; eps) = x by a safeguarded
    Newton solve from the midpoint of [0, eps_max], with the slope h_eps,
    or f_eps(g; eps) where g is given.

    Each round probes h and its slope at eps and keeps the bracket
    [lo, hi] with h(lo) < x <= h(hi). It takes the Newton step when that
    lands strictly inside the bracket and is at most half the shortest
    step before it (_envelope_sup's rule), and the bisection step
    otherwise, so a slope that is not positive, or steps that shrink too
    slowly, fall back on the bracket. It stops once the Newton step is at
    most _EPS_OF_X_STEP of eps and returns the stepped value, whose error,
    of the order of that step squared, is below the float spacing; or
    once the bracket is _EPS_OF_X_TOL wide, returning the point the round
    steps to, which the bracket holds. Where h is linear in eps (the ldpc
    and gldpc families) the first Newton step lands on the root and the
    second round returns it; elsewhere most roots take 5 to 7 rounds from
    the midpoint.

    g, for a family with eps_free_check_side, is g(xs) (a float for a
    float xs): each round then evaluates f(g; eps) and f_eps(g; eps), the
    operations of h and h_eps, without g. A Python float xs takes the float
    loop (lane), whose operations and branches are the array loop's: the
    callables give a float the bits of its lane (module docstring), so it
    returns the bits of a one-lane array without an array operation per
    round. An array's lanes leave it as they stop, and the last
    _EPS_OF_X_FLOAT_LANES finish in the float loop from where they are."""
    def probe(x, gx, e):
        """h and its eps-slope at (x, e)."""
        if gx is None:
            return psys.h(x, e), psys.h_eps(x, e)
        return psys.f(gx, e), psys.f_eps(gx, e)

    def lane(x, gx, lo, hi, e, last):
        while True:
            hv, slope = probe(x, gx, e)
            r = hv - x
            if r >= 0.0:
                hi = e
            else:
                lo = e
            step = r / slope if slope > 0.0 else math.inf
            if abs(step) <= _EPS_OF_X_STEP * e:
                return e - step
            newton = lo < e - step < hi and abs(step) <= 0.5 * last
            if hi - lo <= _EPS_OF_X_TOL:
                return e - step if newton else 0.5 * (lo + hi)
            if newton:
                e, last = e - step, abs(step)
            else:
                e = 0.5 * (lo + hi)
                last = min(last, hi - e)

    if isinstance(xs, float):
        if hmax <= xs:
            return psys.eps_max
        return lane(xs, g, 0.0, psys.eps_max, 0.5 * psys.eps_max, psys.eps_max)
    out = np.full_like(xs, psys.eps_max)
    run = np.flatnonzero(hmax > xs)
    x, gx = xs[run], None if g is None else g[run]
    lo, hi = np.zeros_like(x), np.full_like(x, psys.eps_max)
    e, last = 0.5 * hi, hi
    while run.size > _EPS_OF_X_FLOAT_LANES:
        hv, slope = probe(x, gx, e)
        r = hv - x
        above = r >= 0.0
        lo, hi = np.where(above, lo, e), np.where(above, e, hi)
        pos = slope > 0.0
        step = np.where(pos, r / np.where(pos, slope, 1.0), math.inf)
        stepped = e - step
        converged = np.abs(step) <= _EPS_OF_X_STEP * e
        newton = (lo < stepped) & (stepped < hi) & (np.abs(step) <= 0.5 * last)
        mid = 0.5 * (lo + hi)
        e = np.where(newton, stepped, mid)
        last = np.where(newton, np.abs(step), np.minimum(last, hi - mid))
        closed = ~converged & (hi - lo <= _EPS_OF_X_TOL)
        out[run[converged]] = stepped[converged]
        out[run[closed]] = e[closed]
        keep = ~(converged | closed)
        run, x, lo, hi, e, last = run[keep], x[keep], lo[keep], hi[keep], e[keep], last[keep]
        if gx is not None:
            gx = gx[keep]
    gs = [None] * run.size if gx is None else gx.tolist()
    for k, *state in zip(run.tolist(), x.tolist(), gs, lo.tolist(), hi.tolist(), e.tolist(),
                         last.tolist()):
        out[k] = lane(*state)
    return out


def eps_prime_of_x(psys: ParamSystem, x: float) -> float:
    """Derivative of eps(x) from the implicit fixed-point equation:
    (1 - h_x(x; eps(x))) / h_eps(x; eps(x))."""
    e = eps_of_x(psys, x)
    denom = float(psys.h_eps(x, e))
    if denom <= 0.0:
        raise DomainError("h_eps <= 0: the family is not proper at this point")
    return (1.0 - float(psys.h_x(x, e))) / denom


def Q_of_x(psys: ParamSystem, x):
    """Fixed-point potential Q(x) = U_s(x; eps(x))."""
    e = eps_of_x(psys, x)
    return psys.u(x, e)


def Q_integral_check(psys: ParamSystem, x1: float, x2: float):
    """Return (direct, integral) evaluations of Q(x2) - Q(x1).

    The integral form is -int (G_eps(x; eps(x)) + F_eps(g(x; eps(x)); eps(x)))
    eps'(x) dx, which must match the direct difference on any interval of
    the fixed-point domain. It never evaluates U_s or the antiderivatives
    F and G, only their eps-partials, and is integrated with one
    piecewise-Chebyshev table to about 1e-11.
    """
    if not x1 <= x2:
        raise DomainError("need x1 <= x2")
    xs = np.linspace(x1, x2, 257)
    _eps_bracket_check(psys, xs)
    direct = float(Q_of_x(psys, x2) - Q_of_x(psys, x1))

    def integrand(x):
        e = eps_of_x(psys, x)
        depsdx = (1.0 - psys.h_x(x, e)) / psys.h_eps(x, e)
        return -(psys.G_eps(x, e) + psys.F_eps(psys.g(x, e), e)) * depsdx

    return direct, tabulated_integral(integrand, x1, x2)


def xf_intervals(psys: ParamSystem):
    """Intervals of (0, x_max] that support a fixed point for some eps, on
    the ANALYSIS_GRID_N-point grid of [0, x_max], read off the fixed-point
    table's h(x; 0) and h(x; eps_max) without building its eps(x).

    Returns (intervals, touches_zero) where touches_zero reports whether the
    domain extends down to the first grid cell above 0.
    """
    xs, h0, hmax = (a[1:] for a in psys._fp_grid)
    mask = _in_fixed_point_domain(xs, h0, hmax)
    # where the mask, padded with False on both sides, flips: the even
    # flips start a run of True and each odd one lies just past its end
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    intervals = list(zip(xs[edges[::2]].tolist(), xs[edges[1::2] - 1].tolist()))
    return intervals, bool(intervals and intervals[0][0] <= float(xs[1]))


def maxwell_threshold(psys: ParamSystem) -> float:
    """Smallest eps(x) over roots of the fixed-point potential Q on the
    closure of the fixed-point domain; the boundary value at x -> 0 is the
    stability threshold when the domain reaches down to zero, and the
    threshold is undefined with it when 0 is not a fixed point. When 0 is
    a fixed point and Q > 0 at every sample of the domain, or the domain is
    empty, no fixed point undercuts the zero state up to eps_max, which is
    returned, as eps_c returns the sup of its predicate.

    The grid and tolerances are fixed: each sign change of Q between the
    fixed-point table's points (_fp_curve) in an interval of xf_intervals
    is found by Brent's method (bisect_root) to a bracket a few ulps of x
    wide, eps(x) there is solved to float precision on floats (eps_of_x,
    two Newton rounds where h is linear in eps), and the stability
    candidate is eps_stab's root, to a 1e-12 bracket.
    It is found once per family (ParamSystem._maxwell), and eps_c certifies
    its own value at it."""
    return _held(psys._maxwell)[0]


def _maxwell_rule(psys: ParamSystem) -> tuple:
    """maxwell_threshold, found anew, and the note saying which rule gave
    it."""
    if not psys.proper:
        raise ThresholdUndefinedError("Maxwell threshold needs a proper family")
    intervals, touches_zero = xf_intervals(psys)
    xs = psys._fp_grid[0]
    eps, q = psys._fp_curve

    candidates = [eps_stab(psys)] if touches_zero else []
    q_positive = True
    for lo, hi in intervals:
        # the interval's table points with a Q: h(x; eps_max) >= x there
        at = np.flatnonzero((xs >= lo) & (xs <= hi) & ~np.isnan(q))
        qs = q[at]
        q_positive = q_positive and bool(np.all(qs > 0.0))
        for k in np.flatnonzero(qs[:-1] * qs[1:] < 0.0).tolist():
            xr = bisect_root(lambda x: float(Q_of_x(psys, x)),
                             float(xs[at[k]]), float(xs[at[k + 1]]), tol=_Q_ROOT_TOL)
            candidates.append(eps_of_x(psys, xr))
        candidates += eps[at[qs == 0.0]].tolist()
    if not candidates:
        if q_positive and psys.zero_is_fixed_point:
            return psys.eps_max, "eps_max: Q > 0 on the whole fixed-point domain"
        raise ThresholdUndefinedError("fixed-point potential has no root")
    return min(candidates), "min eps(x) over roots of the fixed-point potential"


def psi_exit(psys: ParamSystem, eps: float) -> float:
    """Derivative of the potential envelope Psi: u_eps at the largest
    minimizer x* (envelope theorem), the slope _envelope_sup steps with. At
    a fixed point x* = h(x*) it is -G_eps(x*; eps) - F_eps(g(x*; eps); eps)."""
    return float(psys.u_eps(x_bar_star(psys, eps), eps))


def _refine_jumps(psys: ParamSystem, es, xbars) -> list:
    """Bisect every cell of es, and every half of one, whose ends' largest
    minimizers (xbars, then _CURVE_GRID_N-point ones at the midpoints)
    differ by more than 0.01 until it is 1e-6 wide in eps; returns, in
    order, the midpoints of the cells that keep that gap. The premise:
    x_bar_star does not decrease in eps (Topkis's theorem where g does not
    depend on eps, as U_s' = (x - h) g' then does not increase in eps;
    measured on ldgm), so a cell whose ends differ by at most 0.01 holds
    no jump above 0.01, while a continuous rise ahead of a jump hides
    none."""
    jumps = []
    # a stack with each left half on top: cells come off in eps order
    cells = [(float(es[i]), float(es[i + 1]), xbars[i], xbars[i + 1])
             for i in reversed(range(len(es) - 1))]
    while cells:
        a, b, xa, xb = cells.pop()
        if not abs(xb - xa) > _JUMP_SIZE:
            continue
        m = 0.5 * (a + b)
        if b - a <= _JUMP_EPS_TOL:
            jumps.append(m)
            continue
        xm = x_bar_star(psys, m, _CURVE_GRID_N)
        cells += [(m, b, xm, xb), (a, m, xa, xm)]
    return jumps


def psi_integral(psys: ParamSystem, eps: float) -> float:
    """Integral of the envelope derivative from 0 to eps: the trapezoid rule
    on the slopes u_eps at the x_stars of map_exit_curve over an eps grid of
    [0, eps] with steps of at most 1e-3. The curve's jumps are located by
    map_jumps, and a cell holding a jump j is split there, so the slope is
    not averaged across it: [e_i, j] takes the slope at e_i and
    [j, e_(i+1)] the slope at e_(i+1); NumericError for a cell holding two
    jumps. DomainError for eps outside [0, eps_max] or a NaN."""
    if _check_eps(psys, eps) == 0.0:
        return 0.0
    n = max(int(math.ceil(eps / _JUMP_SCAN_STEP)) + 1, 2)
    curve = map_exit_curve(psys, np.linspace(0.0, eps, n))
    jumps = map_jumps(psys, curve)
    es = curve.eps
    slopes = np.asarray(psys.u_eps(curve.x_stars, es), dtype=float)
    cells = 0.5 * (slopes[:-1] + slopes[1:]) * np.diff(es)
    where = (np.searchsorted(es, jumps) - 1).tolist()
    if len(set(where)) < len(where):
        raise NumericError(f"two jumps of the largest minimizer in one cell of "
                           f"psi_integral's grid of [0, {eps}]")
    for i, j in zip(where, jumps):
        cells[i] = slopes[i] * (j - es[i]) + slopes[i + 1] * (es[i + 1] - j)
    return float(np.sum(cells))


@dataclass(frozen=True)
class FixedPointCurve:
    """Samples of (x, eps(x), Q(x), exit(x)) along the fixed-point manifold."""

    xs: np.ndarray
    eps: np.ndarray
    q: np.ndarray
    exit_values: np.ndarray


def ebp_curve(psys: ParamSystem, x_grid) -> FixedPointCurve:
    """Parametric fixed-point curve over the given x-grid (points outside
    the fixed-point domain are dropped)."""
    intervals, _ = xf_intervals(psys)
    xs = np.asarray(x_grid, dtype=float)
    keep = np.zeros(xs.shape, dtype=bool)
    for lo, hi in intervals:
        keep |= (xs >= lo) & (xs <= hi)
    xs = xs[keep]
    eps = np.asarray(eps_of_x(psys, xs), dtype=float)
    q = np.asarray(psys.u(xs, eps), dtype=float)
    ex = np.asarray(psys.exit_value(xs, eps), dtype=float)
    return FixedPointCurve(xs, eps, q, ex)


@dataclass(frozen=True)
class MapExitCurve:
    eps: np.ndarray
    exit_values: np.ndarray
    x_stars: np.ndarray


def map_exit_curve(psys: ParamSystem, eps_grid) -> MapExitCurve:
    """EXIT functional at the largest potential minimizer, found on the
    _CURVE_GRID_N-point grid, over an eps-grid. DomainError for a grid that
    decreases anywhere. The curve locates no jump of the minimizer;
    map_jumps does, on request.

    The whole grid is minimized as one batch (_minimize_us_lanes), whose
    golden and Brent searches run every eps as a lane of one lockstep run:
    per eps they take the steps and give the bits of x_bar_star, in a few
    hundred array calls of the family's callables for the whole grid."""
    es = np.asarray(eps_grid, dtype=float)
    if np.any(np.diff(es) < 0.0):
        raise DomainError("map_exit_curve needs an eps grid in ascending order")
    xbars = np.array([r.x_upper for r in _minimize_us_lanes(psys, es, _CURVE_GRID_N)])
    # the fallback's constant partials may come back as a float
    ex = np.broadcast_to(np.asarray(psys.exit_value(xbars, es), dtype=float), es.shape)
    return MapExitCurve(es, ex, xbars)


def map_jumps(psys: ParamSystem, curve: MapExitCurve) -> tuple:
    """The jumps of the largest minimizer along a MAP EXIT curve of psys, in
    eps order: each cell of curve.eps whose ends' x_stars differ by more
    than 0.01 is bisected until it is 1e-6 wide in eps, each step one
    _CURVE_GRID_N-point x_bar_star with float probes, and the midpoints of
    the cells that keep that gap are returned (_refine_jumps)."""
    return tuple(_refine_jumps(psys, curve.eps, curve.x_stars))


def coupled_sweep(psys: ParamSystem, eps_values, spec: CouplingSpec,
                  cfg: IterationConfig = IterationConfig()) -> list:
    """Coupled runs of the slices at eps_values, one CoupledRun or
    NonConvergenceError per eps, in input order.

    The runs go from the largest eps down, each started from the previous
    run's profile; the first starts from x_max. validate_param_system
    requires f and g non-decreasing in eps, so for eps < eps' the fixed
    point x*(eps) lies below every plain iterate from x_max at eps', and the
    run from such a start converges to x*(eps) as the run from x_max does
    (coupled_fixed_point). A run that hits the iteration cap passes on its
    last iterate where it replaced no head, which is such a plain iterate,
    and its own start otherwise: a replaced head, by a wave jump or a tail
    extrapolation, may lie below x*(eps') (on ldpc8 at eps' = 0.65, N = 40,
    w = 4, an extrapolated iterate dips 1.4e-5 below it), and so below
    x*(eps) on a fine grid. A converged run's profile lies within a few
    tol of x*(eps'), above or below it (at most 3.9e-12 below on the
    benchmark's chain pool, 8.8e-12 on ldpc8 at eps' = 0.65), which seeds
    the next run as long as x*(eps) lies lower by more than that, and a
    start that little below a stable x*(eps) still converges to it.
    Each run is coupled_fixed_point's, so it takes wave jumps where a
    front travels from its start (typically a stuck profile above a
    decoding eps) and extrapolates its geometric tail: each CoupledRun's
    iters counts the steps taken and its jumps the heads replaced, on the
    same terms as coupled_fixed_point's.
    """
    eps = [float(e) for e in eps_values]
    out = [None] * len(eps)
    start = None
    for i in sorted(range(len(eps)), key=lambda i: -eps[i]):
        try:
            # looked up on the module, so a patched recursion.coupled_fixed_point
            # sees every run
            out[i] = recursion.coupled_fixed_point(psys.at_eps(eps[i]), spec, cfg, start)
            start = out[i].profile.values
        except NonConvergenceError as exc:
            out[i] = exc
            if not exc.jumps:
                start = exc.last.values
    return out


def _inverse_psi(psys: ParamSystem, x: float, ends: tuple) -> float:
    """inverse_Psi_threshold, given minimize_us_at at eps = 0 and eps_max."""
    target = float(Q_of_x(psys, x))
    res_lo, res_hi = ends
    if not (res_hi.value - 1e-12 <= target <= res_lo.value + 1e-12):
        raise DomainError(f"Q(x)={target:.6g} outside the envelope range "
                          f"[{res_hi.value:.6g}, {res_lo.value:.6g}]")
    if res_hi.value >= target - 1e-12:
        return psys.eps_max
    return _envelope_sup(psys, target, psys.eps_max, res_hi, _INVERSE_PSI_TOL)[0]


def inverse_Psi_threshold(psys: ParamSystem, x: float) -> float:
    """The eps where the envelope equals Q(x), to 1e-9 by _envelope_sup's
    safeguarded Newton search between 0 and eps_max. Needs a strictly
    decreasing envelope (proper family).

    It bounds the largest minimizer only for an x on the MAP curve, x =
    x_bar_star(eps) for some eps: then the largest minimizer stays at or
    below x for parameters below the result. For an x inside a jump of
    the MAP curve it is not the jump's parameter: on ldgm with L = x^6,
    rho = 2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3, x_bar_star jumps from 0.063
    to 0.857 between eps = 0.5074 and 0.5075, yet x = 0.1, 0.2 and 0.3
    give 0.5126, 0.5177 and 0.5091."""
    if not psys.proper:
        raise ThresholdUndefinedError("inverse envelope threshold needs a proper family")
    ends = minimize_us_at(psys, 0.0), minimize_us_at(psys, psys.eps_max)
    return _inverse_psi(psys, x, ends)


def inverse_psi_table(psys: ParamSystem) -> list:
    """(x, inverse_Psi_threshold(psys, x)) at 11 evenly spaced x on each
    interval of the fixed-point domain (xf_intervals), leaving out the x
    where it is undefined; empty for a family that is not proper. The
    envelope at eps = 0 and eps_max is minimized once for the table."""
    if not psys.proper:
        return []
    ends = minimize_us_at(psys, 0.0), minimize_us_at(psys, psys.eps_max)
    table = []
    for lo, hi in xf_intervals(psys)[0]:
        for x in np.linspace(lo, hi, 11).tolist():
            try:
                table.append((x, float(_inverse_psi(psys, x, ends))))
            except DomainError:
                continue
    return table


@dataclass(frozen=True)
class ThresholdReport:
    eps_single: Optional[float]
    eps_stab: Optional[float]
    eps_c: Optional[float]
    eps_maxwell: Optional[float]
    notes: tuple


def threshold_report(psys: ParamSystem, tol: float = 1e-9) -> ThresholdReport:
    """Compute the four thresholds, tagging undefined ones instead of
    raising. tol governs eps_c only, certified at the Maxwell threshold or
    else found by a safeguarded Newton search on the envelope (eps_c),
    whose note names the route that ran, and must be finite and > 0
    (DomainError, raised before any threshold is computed). eps_single is
    the minimum of eps(x) on a 1e4 grid, each eps(x) solved to float
    precision by one Newton solve on every family (two rounds where h is
    linear in eps), eps_stab a root by Brent's method to a 1e-12 bracket,
    and the Maxwell roots of Q are found in x to a few ulps
    (maxwell_threshold)."""
    _check_tol(tol)
    values = {}
    notes = []

    def attempt(name, fn):
        """fn returns the threshold and the note saying how it was found."""
        try:
            values[name], how = fn()
            notes.append((name, how))
        except ThresholdUndefinedError as exc:
            values[name] = None
            notes.append((name, f"undefined: {exc}"))

    attempt("eps_single", lambda: (eps_single(psys), "min of eps(x) over a 1e4 grid"))
    attempt("eps_stab", lambda: (eps_stab(psys), "root of h'(0;eps)=1"))
    attempt("eps_c", lambda: _eps_c_routed(psys, tol))
    attempt("eps_maxwell", lambda: _held(psys._maxwell))

    return ThresholdReport(values["eps_single"], values["eps_stab"],
                           values["eps_c"], values["eps_maxwell"], tuple(notes))
