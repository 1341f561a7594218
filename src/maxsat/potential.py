"""Potential functions of scalar and coupled recursions.

The single-system potential is

    U_s(x) = x g(x) - G(x) - F(g(x)),        U_s'(x) = (x - f(g(x))) g'(x),

so its local minima sit at fixed points of h = f o g and the update never
increases it. The coupled potential U_c extends this to length-M profiles
and its gradient is g'(x) * (x - A^T f(A g(x))) componentwise. The energy
gap Delta (potential excess of fixed points above the global minimizer) and
the Hessian constant K control the coupling width at which the coupled
recursion collapses to the minimizer:  w0 = K * x_max^2 / (2 Delta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedOperationError
from .numerics import _golden_lanes, golden_min
from .recursion import (
    ANALYSIS_GRID_N,
    CoupledProfile,
    CouplingSpec,
    ScalarSystem,
    _analysis_grid,
    _clamp,
    _fixed_points_lanes,
    _hits,
    _root_cells,
    apply_A,
    apply_At,
    fixed_points_of,
)

__all__ = [
    "U_s",
    "U_s_prime",
    "V_s",
    "MinimizeResult",
    "minimize_Us",
    "minimize_potential",
    "rounding_level",
    "U_c",
    "grad_Uc",
    "K_fg_bound",
    "energy_gap_delta",
    "w0_bound",
    "FiniteWCondition",
    "check_finite_w_conditions",
    "PotentialReport",
    "potential_report",
]

#: two minimizers are tied when their potential values differ by less
VALUE_TOL = 1e-10
#: U's rounding level, in ulps of x_max * y_max (minimize_potential)
ROUNDING_ULPS = 64.0
# golden refinements of grid minima stop at this width in x; only grid
# minima within _REFINE_MARGIN of the grid's minimum are refined, at most
# _MAX_REFINEMENTS of them
_X_TOL = 1e-12
_REFINE_MARGIN = 1e-6
_MAX_REFINEMENTS = 256
# most lanes x grid points in one block of _minimize_lanes' scan: three
# lanes of a 3000-point grid; blocks of up to 3e4 points measured no faster
# and held more memory at once
_BLOCK_POINTS = 10**4
# width of the window above x_upper* that check_finite_w_conditions reads
_DESCENT_WINDOW = 1e-3


def rounding_level(x_max, y_max):
    """U's rounding level: ROUNDING_ULPS ulps of x_max * y_max."""
    return ROUNDING_ULPS * np.finfo(float).eps * float(x_max) * float(y_max)


def U_s(sys: ScalarSystem, x):
    """Single-system potential x g(x) - G(x) - F(g(x))."""
    gx = sys.g(x)
    return x * gx - sys.G(x) - sys.F(gx)


def U_s_prime(sys: ScalarSystem, x):
    """Derivative (x - f(g(x))) g'(x) of the single-system potential."""
    return (x - sys.h(x)) * sys.g_prime(x)


def V_s(sys: ScalarSystem, y):
    """Half-iteration potential y f(y) - F(y) - G(f(y)).

    Defined for systems whose f is strictly increasing, as measured on a
    1000-point grid (ScalarSystem.strictly_increasing_f); the swapped
    recursion y <- g(f(y)) shares its fixed points and minimizers with
    the original through g.
    """
    if not sys.strictly_increasing_f:
        raise UnsupportedOperationError(
            "half-iteration potential needs f strictly increasing on [0, y_max]")
    fy = sys.f(y)
    return y * fy - sys.F(y) - sys.G(fy)


@dataclass(frozen=True)
class MinimizeResult:
    """Minimizer set of a potential, with the fixed points of the update
    found by the same scan."""

    x_lower: float
    x_upper: float
    value: float
    minimizers: tuple
    fixed_points: tuple


def minimize_potential(u_vec: Callable, h_vec: Callable, x_max: float,
                       y_max: float, grid_n: int = ANALYSIS_GRID_N,
                       on_grid: Optional[Callable] = None) -> MinimizeResult:
    """Global minimum of a potential U = x g(x) - G(x) - F(g(x)) on
    [0, x_max], where g is increasing with g(x_max) = y_max and f maps
    into [0, x_max].

    Scans the grid_n-point grid of [0, x_max] that fixed_points_of scans
    too (built once per (x_max, grid_n) and shared read-only),
    golden-refines to 1e-12 in x the grid-local minima the grid resolves
    and across which x - h(x) crosses zero upwards, and seeds the
    candidate set with all fixed points of h on that grid (every interior
    local minimum of the potential is one, so narrow basins between grid
    nodes are still found) plus each endpoint that is a fixed point, to
    1e-9 (U' = -h(0) g' <= 0 at 0 and >= 0 at x_max, so no other endpoint
    is a minimizer, while on a flat U it may tie one).

    A grid-local minimum is resolved when it lies below its left
    neighbour by more than the rounding level of U and not above its
    right neighbour by more than that level. The level is 64 ulps of
    x_max * y_max: each of x g(x), G(x) and F(g(x)) lies in
    [0, x_max * y_max], so U carries the rounding of terms that size even
    where U itself is much smaller. Where U is flat to that level (g near
    1 on the gldpc codes) the grid shows only noise, and that basin is
    left to its fixed point. The crossing rule (_resolved_minima) follows
    from U' = (x - h(x)) g'(x) with g' > 0: U has a local minimum only
    where x - h(x) turns from <= 0 to >= 0, so a resolved grid minimum i
    with d = x - h(x) on the grid is refined only if
    d[i - 1] <= 0 <= d[i + 1]; any other is noise on a monotone stretch.
    Minimizers are all candidates whose value is within VALUE_TOL of the
    best; of two within 1e-9 of each other the fixed point is kept.

    on_grid, when given, maps the grid to (U, h) on it at once, so that
    the two can share one evaluation of g; it must give the values u_vec
    and h_vec give there. Without it, h_vec is evaluated on the grid once,
    for the endpoint test, the crossing rule and fixed_points_of alike.
    The refinements call u_vec and h_vec with floats. _minimize_lanes is
    the form for many slices at once. DomainError for grid_n < 2.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be >= 2")
    xs = _analysis_grid(float(x_max), int(grid_n))
    us, hs = on_grid(xs) if on_grid is not None else (u_vec(xs), h_vec(xs))
    us, hs = np.asarray(us, dtype=float), np.asarray(hs, dtype=float)

    cands = [float(xs[i]) for i in (0, -1) if abs(xs[i] - hs[i]) <= 1e-9]
    _, local = _resolved_minima(us[None], rounding_level(x_max, y_max), (xs - hs)[None])
    for i in local.tolist():
        cands.append(golden_min(lambda t: float(u_vec(t)), float(xs[i - 1]),
                                float(xs[i + 1]), _X_TOL))
    fixed_points = tuple(fixed_points_of(h_vec, x_max, grid_n, hs))
    cands.extend(fixed_points)

    cand_arr = np.asarray(sorted(set(cands)), dtype=float)
    return _merge(cand_arr, np.asarray(u_vec(cand_arr), dtype=float), fixed_points)


def _resolved_minima(us: np.ndarray, noise, d: np.ndarray) -> tuple:
    """(rows, i) of the grid-local minima minimize_potential refines, on
    each row of us (shape (k, n)) with noise, U's rounding level, a float
    or one per row (shape (k, 1)), and d, x - h(x) on the same grid (shape
    (k, n)): each row's resolved ones across which x - h(x) crosses zero
    upwards, d[i - 1] <= 0 <= d[i + 1], ordered by value (ties by
    position), at most 256 of them. As U' = (x - h(x)) g'(x) with g' > 0,
    U can turn from falling to rising only where x - h(x) does; a grid
    minimum without that crossing is rounding noise on a monotone stretch,
    whose golden search would end at no critical point."""
    # resolved grid-local minima: a decrease on the left beyond the
    # rounding level picks one entry per flat bottom and keeps rounding
    # noise from spawning refinements
    mid = us[:, 1:-1]
    rows, cols = _hits((mid < us[:, :-2] - noise) & (mid <= us[:, 2:] + noise))
    cols = cols + 1
    crossing = (d[rows, cols - 1] <= 0.0) & (d[rows, cols + 1] >= 0.0)
    rows, cols = rows[crossing], cols[crossing]
    vals = us[rows, cols]
    # only near-minimal grid minima are worth refining: anything farther
    # than _REFINE_MARGIN above the grid minimum cannot become the global
    # minimum, and basins the grid misses entirely are still reached
    # through the fixed-point seeds (all local minima are fixed points).
    # Plateau jitter on flat stretches is excluded the same way.
    near = vals <= np.min(us, axis=1)[rows] + _REFINE_MARGIN
    rows, cols, vals = rows[near], cols[near], vals[near]
    # lexsort is stable: a row's ties keep their grid order
    order = np.lexsort((vals, rows))
    rows, cols = rows[order], cols[order]
    first = np.searchsorted(rows, rows)
    keep = np.arange(rows.size) - first < _MAX_REFINEMENTS
    return rows[keep], cols[keep]


def _merge(cand_arr: np.ndarray, vals: np.ndarray, fixed_points: tuple) -> MinimizeResult:
    """The minimizer set among the sorted distinct candidates cand_arr,
    whose potential values are vals."""
    vmin = float(np.min(vals))
    bisected = set(fixed_points)
    mins: list[float] = []
    for x, v in zip(cand_arr, vals):
        if v <= vmin + VALUE_TOL:
            if mins and abs(x - mins[-1]) <= 1e-9:
                # a golden candidate is limited by the flat minimum; the
                # fixed point it merges with is resolved to 1e-12
                if x in bisected and mins[-1] not in bisected:
                    mins[-1] = float(x)
                continue
            mins.append(float(x))
    return MinimizeResult(mins[0], mins[-1], vmin, tuple(mins), fixed_points)


def _minimize_lanes(u: Callable, h: Callable, eps: np.ndarray, x_max: float,
                    y_max: np.ndarray, grid_n: int, on_grid: Callable) -> list:
    """minimize_potential at each lane parameter of eps (1-D), one
    MinimizeResult per lane: lane k minimizes U = u(x, eps[k]), with
    update h(x, eps[k]) and y_max[k] = g(x_max; eps[k]).

    on_grid(xs, e) gives (U, h) on the grid for a column e (shape (k, 1))
    of the lane parameters, both of shape (k, grid_n); the grid is scanned
    in blocks of such rows of at most _BLOCK_POINTS points. Its rows of
    d = x - h(x) say whether 0 and x_max are fixed points (d[:, 0] and
    d[:, -1], to 1e-9). All lanes' resolved grid minima across which d
    crosses zero upwards (the crossing rule of _resolved_minima) are then
    refined by one run of numerics._golden_lanes, all their sign-change
    cells by one run of numerics._brent_lanes from d at the cell ends
    (recursion._fixed_points_lanes), and all their candidates valued by
    one call of u; each lane's merge is minimize_potential's. The search
    lanes take the float calls' steps, so where u and h give an array
    entry the bits of the float call (the family contract of
    maxsat.thresholds) each lane equals
    minimize_potential(lambda x: u(x, eps[k]), ...) bit for bit."""
    k = eps.size
    if not k:
        return []
    xs = _analysis_grid(float(x_max), int(grid_n))
    noise = np.array([rounding_level(x_max, y) for y in np.asarray(y_max).tolist()])

    block = max(1, _BLOCK_POINTS // xs.size)
    ends, minima, zeros, cells, graze = [], [], [], [], []
    for s in range(0, k, block):
        us, hs = on_grid(xs, eps[s:s + block, None])
        d = xs - np.asarray(hs, dtype=float)
        ends.append(np.abs(d[:, [0, -1]]) <= 1e-9)
        rows, cols = _resolved_minima(np.asarray(us, dtype=float), noise[s:s + block, None], d)
        minima.append((rows + s, cols))
        # a block's rows are freed before the next block is scanned
        del us, hs
        for found, (rows, *where) in zip((zeros, cells, graze), _root_cells(xs, d)):
            found.append((rows + s, *where))
        del d
    cands = [[e for e, ok in zip((0.0, float(x_max)), lane) if ok]
             for lane in np.concatenate(ends).tolist()]

    def joined(parts):
        return tuple(np.concatenate(a) for a in zip(*parts))

    rows, cols = joined(minima)
    if rows.size:
        eps_rows = eps[rows]
        refined = _golden_lanes(lambda x: u(x, eps_rows), xs[cols - 1], xs[cols + 1], _X_TOL)
        for r, x in zip(rows.tolist(), refined.tolist()):
            cands[r].append(x)
    fixed_points = [tuple(fp) for fp in _fixed_points_lanes(
        lambda x, rows: x - h(x, eps[rows]), k, xs, joined(zeros), joined(cells),
        joined(graze))]

    cand_arrs = []
    for c, fp in zip(cands, fixed_points):
        c.extend(fp)
        cand_arrs.append(np.asarray(sorted(set(c)), dtype=float))
    sizes = [a.size for a in cand_arrs]
    vals = np.asarray(u(np.concatenate(cand_arrs), np.repeat(eps, sizes)), dtype=float)
    return [_merge(a, v, fp) for a, v, fp in
            zip(cand_arrs, np.split(vals, np.cumsum(sizes)[:-1]), fixed_points)]


def minimize_Us(sys: ScalarSystem) -> MinimizeResult:
    """Minimize the single-system potential over [0, x_max]; on the grid,
    U_s and h share one evaluation of g."""
    def on_grid(xs):
        gx = sys.g(xs)
        return xs * gx - sys.G(xs) - sys.F(gx), sys.f(_clamp(gx, 0.0, sys.y_max))

    return minimize_potential(lambda x: U_s(sys, x), sys.h, sys.x_max, sys.y_max,
                              on_grid=on_grid)


def U_c(sys: ScalarSystem, spec: CouplingSpec, values) -> float:
    """Coupled potential sum_i (g(x_i) x_i - G(x_i)) - sum_j F([A g(x)]_j)."""
    x = CoupledProfile(values, spec).values
    gx = np.asarray(sys.g(x), dtype=float)
    z = apply_A(spec, gx)
    return float(np.sum(gx * x - np.asarray(sys.G(x), dtype=float))
                 - np.sum(np.asarray(sys.F(z), dtype=float)))


def grad_Uc(sys: ScalarSystem, spec: CouplingSpec, values) -> np.ndarray:
    """Gradient of U_c: entry k is g'(x_k) (x_k - [A^T f(A g(x))]_k)."""
    x = CoupledProfile(values, spec).values
    gx = np.asarray(sys.g(x), dtype=float)
    hx = apply_At(spec, np.asarray(sys.f(apply_A(spec, gx)), dtype=float))
    return np.asarray(sys.g_prime(x), dtype=float) * (x - hx)


def _sup_abs(fn, lo: float, hi: float, n: int = 10**5) -> float:
    xs = np.linspace(lo, hi, n)
    return float(np.max(np.abs(np.asarray(fn(xs), dtype=float))))


def K_fg_bound(sys: ScalarSystem) -> float:
    """Uniform bound ||g''|| x_max + ||g'|| + ||f'|| ||g'||^2 on the coupled
    Hessian norm. Exact per-system suprema are used when the system carries
    them; otherwise a 1e5-point grid maximum inflated by 1% (the grid can
    only under-estimate a supremum)."""
    if sys.g_second is None and sys.g_second_sup is None:
        raise UnsupportedOperationError("K_fg_bound needs g'' or a closed-form sup")
    infl = 1.01
    fp = sys.f_prime_sup if sys.f_prime_sup is not None else \
        infl * _sup_abs(sys.f_prime, 0.0, sys.y_max)
    gp = sys.g_prime_sup if sys.g_prime_sup is not None else \
        infl * _sup_abs(sys.g_prime, 0.0, sys.x_max)
    gpp = sys.g_second_sup if sys.g_second_sup is not None else \
        infl * _sup_abs(sys.g_second, 0.0, sys.x_max)
    return gpp * sys.x_max + gp + fp * gp * gp


def _gap(sys: ScalarSystem, res: MinimizeResult) -> float:
    xbar = res.x_upper
    base = float(U_s(sys, xbar))
    # refinement noise: a fixed point within 1e-9 of the minimizer is the
    # minimizer itself, not a point strictly above it
    cut = xbar + 1e-9
    gaps = [float(U_s(sys, x)) - base for x in res.fixed_points if x > cut]
    return min(gaps) if gaps else math.inf


def energy_gap_delta(sys: ScalarSystem) -> float:
    """Minimum of U_s(x) - U_s(x_upper*) over fixed points x > x_upper* +
    1e-9; +inf when that set is empty."""
    return _gap(sys, minimize_Us(sys))


def _w0(sys: ScalarSystem, delta: float, k_fg: Optional[float] = None) -> float:
    # the Delta -> w0 rule; K is computed here only when a finite positive
    # gap needs it and the caller has not computed it already
    if math.isinf(delta):
        return 0.0
    if delta <= 0.0:
        return math.inf
    k = K_fg_bound(sys) if k_fg is None else k_fg
    return k * sys.x_max**2 / (2.0 * delta)


def w0_bound(sys: ScalarSystem) -> float:
    """Coupling width beyond which the coupled fixed point collapses:
    K * x_max^2 / (2 Delta). Returns +inf when Delta = 0 and 0 when
    Delta = +inf (the bound is vacuous with no fixed point above)."""
    return _w0(sys, energy_gap_delta(sys))


class FiniteWCondition(enum.Enum):
    FINITE_BY_GAP = "finite-by-gap"
    FINITE_BY_STRICT_DESCENT = "finite-by-strict-descent"
    FINITE_BY_STABILITY = "finite-by-stability"
    UNKNOWN = "unknown"


def check_finite_w_conditions(sys: ScalarSystem) -> FiniteWCondition:
    """Classify whether a finite coupling width provably suffices at the
    potential minimizer x_upper*.

    Checks, in order: a tie-guard (a multi-valued minimizer set means the
    gap vanishes and nothing can be concluded), the derivative condition
    h'(0) < 1 when the minimizer is the origin, strict descent h(x) < x on
    (x_upper*, x_upper* + 1e-3] (_DESCENT_WINDOW), and finally no
    enumerated fixed point in that window. Analyticity-style arguments are
    not decidable numerically and fall through to UNKNOWN.
    """
    res = minimize_Us(sys)
    if res.x_upper - res.x_lower > 1e-6:
        return FiniteWCondition.UNKNOWN
    xbar = res.x_upper

    if xbar <= 1e-9:
        slope = float(sys.f_prime(sys.g(xbar))) * float(sys.g_prime(xbar))
        if slope < 1.0 - 1e-9:
            return FiniteWCondition.FINITE_BY_STABILITY

    hi = min(xbar + _DESCENT_WINDOW, sys.x_max)
    if hi > xbar:
        xs = np.linspace(xbar, hi, 1001)[1:]
        if np.all(np.asarray(sys.h(xs), dtype=float) < xs):
            return FiniteWCondition.FINITE_BY_STRICT_DESCENT

    above = [x for x in res.fixed_points if x > xbar + 1e-9]
    if not above or min(above) > xbar + _DESCENT_WINDOW:
        return FiniteWCondition.FINITE_BY_GAP
    return FiniteWCondition.UNKNOWN


@dataclass(frozen=True)
class PotentialReport:
    x_lower_star: float
    x_upper_star: float
    min_value: float
    minimizers: tuple
    delta_gap: float
    K_fg: float
    w0: float


def potential_report(sys: ScalarSystem) -> PotentialReport:
    """Bundle the minimizer set, energy gap, Hessian constant, and w0."""
    res = minimize_Us(sys)
    delta = _gap(sys, res)
    k = K_fg_bound(sys)
    return PotentialReport(res.x_lower, res.x_upper, res.value, res.minimizers,
                           delta, k, _w0(sys, delta, k))
