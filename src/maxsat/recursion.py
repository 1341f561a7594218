"""Scalar systems and their uncoupled, coupled, modified, and translated
recursions.

A system is a pair (f, g) with f non-decreasing on [0, y_max], g strictly
increasing on [0, x_max], and y_max = g(x_max). The uncoupled update is
h(x) = f(g(x)); the coupled update places M = N + w - 1 copies on a line and
averages over a width-w window with an implicit zero boundary:

    x_i <- sum_j A_ji f( sum_k A_jk g(x_k) ),   A_jk = 1/w for 0 <= k-j < w.

From the all-x_max start, or any mirror-symmetric one, the iterates are
symmetric about the midpoint, and the modified recursion copies the
midpoint value over the right half. So coupled_fixed_point and
modified_coupled_fixed_point iterate only the cells up to the midpoint and
rebuild the right half as the mirror image or the pinned tail: plain
profiles are exactly symmetric, and modified ones bit-equal to the
full-chain iteration. coupled_step, apply_A, apply_At and
copy_midpoint_tail act on the full chain and serve as the reference. All
of them average with one window-mean kernel (_WindowMean), which sums
every window in the same order wherever it lies; the runs allocate its
buffers once, not once per step. coupled_fixed_point's runs also watch the
decoding front and, once it has travelled, translate it toward the
midpoint (wave jumps), and they extrapolate their geometric tails along
the slowest mode.

Every callable attached to a system is elementwise: f, g, F and G return
the shape of their argument (a scalar or a numpy array), while f_prime,
g_prime and g_second may return any value that broadcasts to it, so a
constant derivative is written as a float. validate_system checks the
shapes of f and g. The slices of a family (thresholds.ParamSystem.at_eps)
and the antiderivatives make_system tabulates also give a Python float the
bits of the same x inside an array.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    NonConvergenceError,
    NumericError,
    ShapeError,
)
from .numerics import _brent_lanes, _golden_lanes, bisect_root, golden_min

__all__ = [
    "ScalarSystem",
    "CouplingSpec",
    "CoupledProfile",
    "CoupledRun",
    "IterationConfig",
    "make_system",
    "tabulated_integral",
    "validate_system",
    "uncoupled_step",
    "uncoupled_fixed_point",
    "apply_A",
    "apply_At",
    "coupled_step",
    "coupled_fixed_point",
    "modified_coupled_fixed_point",
    "copy_midpoint_tail",
    "midpoint_index",
    "translate_system",
    "fixed_points_of",
]

# Absolute slack allowed before a clamp is treated as a real domain violation.
_CLAMP_TOL = 1e-9

# Points of validate_system's grids of [0, x_max] and [0, y_max].
_GRID_N = 1000

# Points of the analysis grid of [0, x_max], which fixed points, minimizers,
# eps_single, xf_intervals and the Maxwell roots are scanned on.
ANALYSIS_GRID_N = 10**4
# Largest |x - h(x)| at a grazing root (fixed_points_of).
_TANGENT_TOL = 1e-9

# Wave jumps (_Front, _WaveJumps): the windows a front travels before it
# jumps; the most records kept; the rise over 2w cells that still counts
# as a plateau; and the windows a jump leaves between the front and the
# midpoint.
_BASELINE_W = 2
_MAX_RECORDS = 8192
_FLAT_TOL = 1e-3
_GAP_W = 1
# Tail extrapolation (_WaveJumps): the step at or below which every step is
# watched, the agreement asked of three successive step ratios, the fall
# between two of them still taken for rounding, the ratios accepted (the
# cap keeps a still front's slow drift unextrapolated), and the error left,
# in tols, below which the run's last stretch is left to the cellwise
# extrapolation before its last step.
_TAIL_STEP = 1e-4
_RATIO_AGREE = 1e-3
_RATIO_FALL = 1e-6
_RATIO_MIN = 0.5
_RATIO_MAX = 0.99
_LAST_TOLS = 100

# Tabulated antiderivatives: Chebyshev points per panel, absolute error
# bound of the whole table, and the bisection depth and panel count at
# which it gives up (where the integrand's own rounding exceeds the bound,
# refinement spreads over many panels without reaching the depth cap).
_CHEB_POINTS = 17
_ANTI_TOL = 1e-11
_ANTI_MAX_DEPTH = 60
_ANTI_MAX_PANELS = 4096


@dataclass(frozen=True)
class ScalarSystem:
    """The pair (f, g) with derivatives, domain bounds, and antiderivatives.

    F and G are antiderivatives of f and g with F(0) = G(0) = 0, either in
    closed form or tabulated once per system from f or g (make_system).
    The *_sup fields are optional exact suprema of |f'|, |g'|, |g''| over
    their domains; when absent a grid maximum (inflated by 1%) is used by
    consumers that need them. strictly_increasing_f is measured from f.
    """

    f: Callable
    g: Callable
    x_max: float
    y_max: float
    f_prime: Callable
    g_prime: Callable
    g_second: Optional[Callable]
    F: Callable
    G: Callable
    f_prime_sup: Optional[float] = None
    g_prime_sup: Optional[float] = None
    g_second_sup: Optional[float] = None
    name: str = ""

    def h(self, x):
        """One uncoupled update f(g(x)) without domain checks."""
        return self.f(_clamp(self.g(x), 0.0, self.y_max))

    @cached_property
    def strictly_increasing_f(self) -> bool:
        """Every increment of f on validate_system's _GRID_N-point grid of
        [0, y_max] is positive; measured once per instance."""
        fy = np.asarray(self.f(np.linspace(0.0, self.y_max, _GRID_N)), dtype=float)
        return bool(np.all(np.diff(fy) > 0.0))


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling layout: N window positions, width w, M = N + w - 1 states."""

    N: int
    w: int

    def __post_init__(self):
        if self.N < 1 or self.w < 1:
            raise ConstructionError(f"need N >= 1 and w >= 1, got N={self.N}, w={self.w}")

    @property
    def M(self) -> int:
        return self.N + self.w - 1


@dataclass(frozen=True)
class IterationConfig:
    tol: float = 1e-12
    max_iters: int = 10**6

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ConstructionError(f"tol must be finite and > 0, got {self.tol!r}")
        if self.max_iters < 1:
            raise ConstructionError("max_iters must be >= 1")


@dataclass(frozen=True)
class CoupledProfile:
    """Length-M state vector together with its coupling layout."""

    values: np.ndarray
    spec: CouplingSpec

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.spec.M,):
            raise ShapeError(f"profile length {vals.shape} does not match M={self.spec.M}")
        object.__setattr__(self, "values", vals)

    @property
    def max(self) -> float:
        return float(np.max(self.values))

    @property
    def midpoint(self) -> float:
        return float(self.values[midpoint_index(self.spec.M)])


@dataclass(frozen=True)
class CoupledRun:
    """A converged coupled run: the final profile, the iteration count (the
    steps taken), the residual (the last step's max-abs change, at most the
    tolerance) and the heads replaced between steps, by wave jumps and tail
    extrapolations alike (coupled_fixed_point)."""

    profile: CoupledProfile
    iters: int
    residual: float
    jumps: int = 0


def _clamp(values, lo, hi, what: str = "value"):
    """values clipped to [lo, hi], as a float for a scalar; raises
    DomainError beyond _CLAMP_TOL outside. Values already in range come
    back without a copy, so callers must not write to the result. A NaN
    passes and forces the clip, whose output keeps it. A scalar is compared
    as a Python float, and an array's extremes are two ufunc reductions."""
    arr = None if isinstance(values, float) else np.asarray(values, dtype=float)
    scalar = arr is None or not arr.ndim
    if scalar:
        top = bottom = float(values)
    elif arr.size:
        top, bottom = np.maximum.reduce(arr, None), np.minimum.reduce(arr, None)
    else:
        return arr
    over, under = top - hi, lo - bottom
    if over > _CLAMP_TOL or under > _CLAMP_TOL:
        raise DomainError(f"{what} escapes [{lo}, {hi}] by {max(over, under):.3e}")
    if scalar:
        # a NaN fails both comparisons and comes back as it is
        return float(lo) if top < lo else float(hi) if top > hi else top
    if not (lo <= bottom and top <= hi):
        arr = np.clip(arr, lo, hi)
    return arr


def _fd_derivative(fn, lo, hi, step=1e-7):
    """Central finite difference, shrinking to one-sided at the endpoints."""

    def deriv(x):
        arr = np.asarray(x, dtype=float)
        hl = np.minimum(step, arr - lo)
        hr = np.minimum(step, hi - arr)
        num = np.asarray(fn(arr + hr), dtype=float) - np.asarray(fn(arr - hl), dtype=float)
        out = num / (hr + hl)
        return float(out) if arr.ndim == 0 else out

    return deriv


def _chebyshev_table(fn, lo, hi):
    """Piecewise-Chebyshev antiderivative of fn on [lo, hi].

    Interpolates fn at _CHEB_POINTS Chebyshev points of the second kind on
    each panel (the panel ends among them, so a feature at either end of
    the domain shows on the first panel) and bisects the panel with the
    largest error estimate until the estimates sum to at most _ANTI_TOL.
    A panel's estimate bounds what its two trailing coefficients add to
    any partial integral, |int_{-1}^t T_k| <= 2k/(k^2 - 1). Refining the
    worst panel, rather than holding each panel to a width-proportional
    share, lets the table stop at the rounding level of fn where fn is
    steep. Returns the panel edges, each panel's offset and the panels'
    integrated series (one column per panel).
    """
    # loaded on first use, as numerics.gauss_hermite does, so systems with
    # closed-form antiderivatives never import numpy.polynomial
    C = np.polynomial.chebyshev
    deg = _CHEB_POINTS - 1
    nodes = C.chebpts2(_CHEB_POINTS)
    # interpolation is linear in the samples: fit each unit sample once
    fit = C.chebfit(nodes, np.eye(_CHEB_POINTS), deg)
    ks = np.arange(deg - 1, deg + 1)
    tail_weight = 2.0 * ks / (ks * ks - 1.0)

    def panel(a, b, depth):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = np.asarray(fn(np.clip(mid + half * nodes, a, b)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericError(f"antiderivative table: integrand not finite on [{a}, {b}]")
        coef = fit @ vals
        est = half * float(np.sum(np.abs(coef[-2:]) * tail_weight))
        return (-est, a, b, depth, C.chebint(coef, lbnd=-1.0, scl=half))

    heap = [panel(float(lo), float(hi), 0)]
    total = -heap[0][0]
    while total > _ANTI_TOL:
        neg_est, a, b, depth, _ = heapq.heappop(heap)
        if depth >= _ANTI_MAX_DEPTH or len(heap) >= _ANTI_MAX_PANELS:
            raise NumericError(f"antiderivative table: estimated error {total:.2e} above "
                               f"{_ANTI_TOL:g} at depth {depth} with {len(heap) + 1} panels")
        mid = 0.5 * (a + b)
        halves = panel(a, mid, depth + 1), panel(mid, b, depth + 1)
        total += neg_est - halves[0][0] - halves[1][0]
        for p in halves:
            heapq.heappush(heap, p)
    heap.sort(key=lambda p: p[1])
    edges = np.array([p[1] for p in heap] + [float(hi)])
    # one row per coefficient, so a query gathers one value per row
    series = np.array([p[4] for p in heap]).T.copy()
    every = np.arange(len(heap))
    # value of each series at its left end; subtracting it makes every
    # panel start at the running total, and the first one at exactly 0
    left = _clenshaw(series, every, np.full(len(heap), -1.0))
    totals = _clenshaw(series, every, np.ones(len(heap))) - left
    offset = np.concatenate(([0.0], np.cumsum(totals[:-1]))) - left
    return edges, offset, series


def _clenshaw(series, k, t):
    """sum_j series[j, k_i] T_j(t_i) for each i, by Clenshaw's recurrence:
    the array lane of a table lookup. 2t is formed once and each row
    gathered with take; the float lane of _tabulated_antiderivative runs
    the same operations in the same order on Python floats."""
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for row in series[:0:-1]:
        b1, b2 = row.take(k) + t2 * b1 - b2, b1
    return series[0].take(k) + t * b1 - b2


def tabulated_integral(fn, lo, hi) -> float:
    """Integral of the elementwise fn over [lo, hi] from one
    piecewise-Chebyshev table (_chebyshev_table), to an absolute error of
    about 1e-11. Raises DomainError unless lo <= hi are finite, and
    NumericError where the table cannot get there."""
    if not -np.inf < lo <= hi < np.inf:
        raise DomainError(f"tabulated_integral needs finite lo <= hi, got [{lo}, {hi}]")
    _, offset, series = _chebyshev_table(fn, lo, hi)
    last = len(offset) - 1
    return float(offset[last] + _clenshaw(series, last, 1.0))


def _tabulated_antiderivative(fn, hi):
    """Antiderivative of fn on [0, hi] with value 0 at 0.

    fn is sampled once, on the first call, into a piecewise-Chebyshev
    table (_chebyshev_table); every call is then a lookup and one Clenshaw
    sum per point. Points more than _CLAMP_TOL outside [0, hi] raise
    DomainError, and a NaN comes back as NaN.

    An array takes the array lane (_clenshaw). A scalar (a float, a numpy
    scalar or a 0-d array, which _clamp turns into a Python float) takes
    the float lane: bisect_right on the edges, held as a list, and
    Clenshaw's recurrence over the panel's coefficients, held as Python
    floats, in the array lane's order of operations. So it returns a
    Python float with the bits of the same y inside an array, at the cost
    of a few dozen float operations. The lists are made with the table.
    """
    table = None

    def build():
        edges, offset, series = _chebyshev_table(fn, 0.0, hi)
        # the float lane's copies: per panel, the coefficients from the
        # top one down to T_1, and the T_0 one
        panels = list(zip(series[:0:-1].T.tolist(), series[0].tolist()))
        return edges, offset, series, edges.tolist(), offset.tolist(), panels

    def anti(y):
        nonlocal table
        if table is None:
            table = build()
        edges, offset, series, edge_list, offset_list, panels = table
        y = _clamp(y, 0.0, hi, "antiderivative argument")
        last = len(offset_list) - 1
        if type(y) is float:
            k = min(max(bisect_right(edge_list, y) - 1, 0), last)
            a, b = edge_list[k], edge_list[k + 1]
            t = (2.0 * y - (a + b)) / (b - a)
            t2 = 2.0 * t
            top, c0 = panels[k]
            b1 = b2 = 0.0
            for c in top:
                b1, b2 = c + t2 * b1 - b2, b1
            return offset_list[k] + (c0 + t * b1 - b2)
        flat = y.ravel()
        k = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, last)
        a, b = edges[k], edges[k + 1]
        t = (2.0 * flat - (a + b)) / (b - a)
        return (offset[k] + _clenshaw(series, k, t)).reshape(y.shape)

    return anti


def make_system(f, g, x_max, *, f_prime=None, g_prime=None, g_second=None,
                F=None, G=None, f_prime_sup=None, g_prime_sup=None,
                g_second_sup=None, name="", validate=True) -> ScalarSystem:
    """Assemble a ScalarSystem, filling gaps with finite differences and
    antiderivatives tabulated on [0, y_max] (F) and [0, x_max] (G) to an
    absolute error of 1e-11, then grid-check the invariants. A tabulated
    F or G reads a scalar in Python floats, with the bits of the same
    point inside an array (_tabulated_antiderivative)."""
    y_max = float(g(x_max))
    sys = ScalarSystem(
        f=f,
        g=g,
        x_max=float(x_max),
        y_max=y_max,
        f_prime=f_prime if f_prime is not None else _fd_derivative(f, 0.0, y_max),
        g_prime=g_prime if g_prime is not None else _fd_derivative(g, 0.0, x_max),
        g_second=g_second,
        F=F if F is not None else _tabulated_antiderivative(f, y_max),
        G=G if G is not None else _tabulated_antiderivative(g, x_max),
        f_prime_sup=f_prime_sup,
        g_prime_sup=g_prime_sup,
        g_second_sup=g_second_sup,
        name=name,
    )
    if validate:
        validate_system(sys)
    return sys


def _lane_problems(label, f, g, g_prime, F, G, x_max, lanes, n, strict=None):
    """The checks of a slice, on K lanes at once; returns the messages of
    the failed ones and g on the lanes' x-grids, of shape (K, n).

    Each callable takes (x, p), x of shape (K', n) with row k on lane k's
    domain and p the matching rows of lanes, the (K, 1) column of the
    lanes' parameters. On n-point grids of [0, x_max] and [0, y_max], y_max
    = g(x_max) per lane: f and g return the grid's shape and are finite
    (else ConstructionError at once), f is non-decreasing from [0, y_max]
    into [0, x_max], g non-decreasing from [0, x_max] into [0, y_max] with
    g' > 0 at the interior points of lanes[:strict], and F and G are
    finite with F' = f and G' = g by central differences at 19 points of
    [0.05, 0.95] of the range, to 1e-5 relative to |f| or |g| floored at
    1e-3 (F on the lanes with y_max > 0). A NaN fails every comparison."""

    def samples(name, fn, grid):
        vals = np.asarray(fn(grid, lanes), dtype=float)
        if vals.shape != grid.shape:
            raise ConstructionError(label + f"{name} returns shape {vals.shape} "
                                    f"on a grid of shape {grid.shape}")
        if not np.all(np.isfinite(vals)):
            # a tabulated F or G could not even be built
            raise ConstructionError(label + f"{name} is not finite on its grid")
        return vals

    xs = np.tile(np.linspace(0.0, x_max, n), (len(lanes), 1))
    gx = samples("g", g, xs)
    y_max = gx[:, -1]
    ys = np.linspace(0.0, y_max, n, axis=1)
    fy = samples("f", f, ys)

    problems = []
    if not np.min(np.diff(fy)) >= -1e-9:
        problems.append("f is decreasing somewhere on [0, y_max]")
    if not np.min(np.diff(gx)) >= -1e-9:
        problems.append("g is decreasing somewhere on [0, x_max]")
    # strict increase via the analytic slope, whose zeros may only sit at
    # the domain endpoints
    if not np.min(np.asarray(g_prime(xs[:strict, 1:-1], lanes[:strict]), dtype=float)) > 0.0:
        problems.append("g' is not positive on the interior of [0, x_max]")
    if not (np.min(fy) >= -_CLAMP_TOL and np.max(fy) <= x_max + _CLAMP_TOL):
        problems.append("f does not map [0, y_max] into [0, x_max]")
    if not (np.min(gx) >= -_CLAMP_TOL and np.all(gx <= y_max[:, None] + _CLAMP_TOL)):
        problems.append("g does not map [0, x_max] into [0, y_max]")

    for name, anti, fn, grid in (("F", F, f, ys), ("G", G, g, xs)):
        keep = grid[:, -1] > 0.0
        if not np.any(keep):
            continue
        p, hi = lanes[keep], grid[keep, -1:]
        if not np.all(np.isfinite(np.asarray(anti(grid[keep], p), dtype=float))):
            problems.append(f"{name} is not finite on its grid")
        pts, step = np.linspace(0.05, 0.95, 19) * hi, 1e-6 * hi
        fd = (np.asarray(anti(pts + step, p)) - np.asarray(anti(pts - step, p))) / (2 * step)
        ref = np.asarray(fn(pts, p), dtype=float)
        err = float(np.max(np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-3)))
        if not err <= 1e-5:
            problems.append(f"{name}' vs {name.lower()} mismatch: max rel err {err:.2e}")
    return problems, gx


def validate_system(sys: ScalarSystem) -> None:
    """Grid checks of the system invariants; raises ConstructionError.

    x_max > 0 finite and y_max = g(x_max), to 1e-12, are checked first, as
    the grids are built on them; then the checks of a slice (_lane_problems)
    on one lane of _GRID_N points."""
    label = f"system {sys.name or '<anonymous>'}: "
    if not 0.0 < sys.x_max < np.inf:
        raise ConstructionError(label + f"x_max must be positive and finite, got {sys.x_max}")
    if not abs(sys.y_max - float(sys.g(sys.x_max))) <= 1e-12:
        raise ConstructionError(label + "y_max != g(x_max)")
    f, g, g_prime, F, G = (lambda x, _, fn=fn: fn(x)
                           for fn in (sys.f, sys.g, sys.g_prime, sys.F, sys.G))
    problems, _ = _lane_problems(label, f, g, g_prime, F, G, sys.x_max, np.zeros((1, 1)),
                                 _GRID_N)
    if problems:
        raise ConstructionError(label + "; ".join(problems))


def uncoupled_step(sys: ScalarSystem, x):
    """One update of the uncoupled recursion, h(x) = f(g(x))."""
    x = _clamp(x, 0.0, sys.x_max, "x")
    return sys.h(x)


def uncoupled_fixed_point(sys: ScalarSystem, x0: float,
                          cfg: IterationConfig = IterationConfig()):
    """Iterate h from x0 until the step is below cfg.tol.

    Returns (x_inf, iterations). Raises NonConvergenceError carrying the
    last iterate and step when the cap is hit.
    """
    x = float(_clamp(x0, 0.0, sys.x_max, "x0"))
    for it in range(1, cfg.max_iters + 1):
        xn = float(sys.h(x))
        step = abs(xn - x)
        if step <= cfg.tol:
            return xn, it
        x = xn
    raise NonConvergenceError(
        f"uncoupled recursion did not converge in {cfg.max_iters} iterations",
        last=x, iters=cfg.max_iters, residual=step,
    )


def _shifted_views(buf: np.ndarray, n: int) -> np.ndarray:
    """Row k is buf[k:k + n]: numpy's sliding_window_view of the contiguous
    buf, built by the ndarray constructor at a twentieth of its cost."""
    return np.ndarray((buf.shape[0] - n + 1, n), float, buf, 0, (buf.strides[0],) * 2)


class _WindowMean:
    """Window means of width w over a chain of n cells, into buffers made
    once.

    mean(v), n - w + 1 cells, is A v, and adjoint(u, out), n cells, is A^T u
    with the zero boundary. Each multiplies by 1/w into a buffer (the
    adjoint's padded with w - 1 zeros on each side) and adds its w shifted
    views with one np.add.reduce, row after row, so a window is summed from
    its first cell to its last wherever it lies: a shorter buffer holding
    the same window gets the same bits. (A lone window, n = w, may be
    summed pairwise; the half chain of _run_coupled has one only where the
    full chain is that window.) mean returns its own buffer, which the next
    call overwrites.
    """

    def __init__(self, n: int, w: int):
        m = n - w + 1
        # a 0-d array: a ufunc takes it with less overhead than a float
        self.scale = np.array(1.0 / w)
        self.scaled = np.empty(n)
        self.windows = _shifted_views(self.scaled, m)
        self.z = np.empty(m)
        padded = np.zeros(n + w - 1)
        self.padded_mid = padded[w - 1:w - 1 + m]
        self.padded_windows = _shifted_views(padded, n)

    def mean(self, v) -> np.ndarray:
        np.multiply(v, self.scale, out=self.scaled)
        return np.add.reduce(self.windows, axis=0, out=self.z)

    def adjoint(self, u, out: np.ndarray) -> np.ndarray:
        np.multiply(u, self.scale, out=self.padded_mid)
        return np.add.reduce(self.padded_windows, axis=0, out=out)


class _Front:
    """The decoding front on the half chain of a run (_run_coupled): where
    it is, how fast it moves, and the flat plateau behind it.

    A run from x_max rises along its half chain (its iterates are
    symmetric and unimodal), and a decoding one carries a front from a
    low plateau behind it to the undecoded level ahead of it, head[-1].
    record keeps the front's position at the iterations it is given. At
    most _MAX_RECORDS are kept, and at least the last half of them, so a
    front that moves less than _BASELINE_W windows in _MAX_RECORDS // 2
    records has no speed.
    """

    def __init__(self, w: int):
        self.w = w
        self.its: list = []
        self.pos: list = []

    @staticmethod
    def position(head: np.ndarray) -> float:
        """The first crossing of the mid-level (head[0] + head[-1]) / 2,
        interpolated linearly between the two cells around it; nan where
        head[-1] does not rise above head[0]."""
        lo, hi = float(head[0]), float(head[-1])
        mid = 0.5 * (lo + hi)
        if not lo < mid <= hi:
            return float("nan")
        i = int(np.argmax(head >= mid))
        a = float(head[i - 1])
        return i - 1 + (mid - a) / (float(head[i]) - a)

    def record(self, it: int, head: np.ndarray) -> float:
        """The front's position at iteration it, recorded; a head without
        a front clears the records."""
        p = self.position(head)
        its, pos = self.its, self.pos
        if p != p:
            its.clear()
            pos.clear()
            return p
        its.append(it)
        pos.append(p)
        if len(pos) > _MAX_RECORDS:
            del its[:_MAX_RECORDS // 2], pos[:_MAX_RECORDS // 2]
        return p

    def shift(self, s: int) -> None:
        """Move every recorded position by s cells, as a jump of s cells
        moves the front."""
        self.pos = [p + s for p in self.pos]

    def speed(self):
        """The front's mean speed in cells per iteration over the shortest
        recent baseline, of at least three records, along which it moved
        at least _BASELINE_W windows forward; None without such a
        baseline. Older records are dropped."""
        its, pos = self.its, self.pos
        need = _BASELINE_W * self.w
        if len(pos) < 3 or not pos[-1] - pos[0] >= need:
            return None
        j = 0
        while pos[-1] - pos[j + 1] >= need:
            j += 1
        del its[:j], pos[:j]
        if len(pos) < 3:
            return None
        return (pos[-1] - pos[0]) / (its[-1] - its[0])

    def plateau(self, head: np.ndarray, p: float):
        """The largest cell a <= p - 2w, in steps of w, with head flat over
        the 2w cells behind it: head[a] - head[a - 2w] <= _FLAT_TOL *
        max(1, |head[a]|). None where there is none."""
        w = self.w
        cells = np.arange(int(p) - 2 * w, 2 * w - 1, -w)
        if not cells.size:
            return None
        rise = head[cells] - head[cells - 2 * w]
        flat = np.flatnonzero(rise <= _FLAT_TOL * np.maximum(1.0, np.abs(head[cells])))
        return int(cells[flat[0]]) if flat.size else None


class _WaveJumps:
    """The watch of coupled_fixed_point's runs (_run_coupled): every w
    iterations it records the front (_Front), and once the front has
    travelled it translates the head toward the midpoint; once the steps
    shrink geometrically it extrapolates the tail along the slowest mode.

    A jump needs a front with a speed (_Front.speed: it has moved at least
    _BASELINE_W windows forward over three records or more), a way of s >=
    w cells to _GAP_W windows before the midpoint, s = H - 1 - _GAP_W w -
    p for a front at p, and a plateau cell a behind the front whose value
    c = head[a] the uncoupled step does not raise, h(c) <= c: c then lies
    at or above the decoded level the plateau relaxes to, not on the
    rising side of the unstable fixed point above it. The jump writes
    head[a:H - s] to cells a + s on and c to cells a to a + s, and returns
    the cellwise minimum of that and the head. The front then stands
    _GAP_W windows before the midpoint, and its records move with it. The
    speed only tells that the front has travelled; the translate does not
    use it.

    The run calls it after every step: a call that neither jumps nor
    watches the tail costs about 0.4 us, against steps of 15 to 60 us.
    Once a step is at most _TAIL_STEP it watches the tail. Where
    three successive step ratios do not fall (by more than _RATIO_FALL,
    rounding) and agree to _RATIO_AGREE, and the last, lam, lies in
    [_RATIO_MIN, _RATIO_MAX], the error decays as lam^k along its slowest
    mode, and the watch returns the head less the rest of that decay, lam /
    (1 - lam) times the last step prev - head. Ratios that do not fall are
    those of decaying modes of one sign, so lam is at most the slowest
    one's and the extrapolation stops short of its limit; falling ratios
    come from modes of both signs, as after a jump or an extrapolation that
    passed the limit in some cells, and there lam would overshoot. The
    ratios are watched afresh after every replaced head. That one lam
    leaves cells whose own decay is slower (the flanks of a spreading bump)
    a tenth or so of their error, so once the error left, lam / (1 - lam)
    times the step, is under _LAST_TOLS tol, the run's last stretch is left
    to a cellwise extrapolation instead: where the last ratio lam lies in
    [_RATIO_MIN, _RATIO_MAX] and the next step is due to end the run (lam
    times the step is at most tol), each cell that fell over both of the
    last two steps, d1 and then d2, is lowered by r / (1 - r) d2, r =
    min(d2 / d1, _RATIO_MAX), its own decay's rest. Each replacement is
    taken no higher than the head and no lower than 0 (the head is at most
    x_max), and one that would lower no cell, as where every cell rose over
    the last step, is not taken.

    With report, every report_every iterations it also calls
    report(it, step, max, position, speed, jumps): the head's max, the
    front's position, its speed over the current baseline (nan without
    one) and the heads replaced since the last report.
    """

    def __init__(self, sys: ScalarSystem, spec: CouplingSpec, report=None,
                 report_every: int = 0, tol: float = IterationConfig.tol):
        self.h = sys.h
        self.w = spec.w
        self.tol = tol
        self.front = _Front(spec.w)
        self.report = report
        self.report_every = report_every
        self.unreported = 0
        self.steps: list = []
        self.held = 0
        self.prev = self.prev2 = None

    def __call__(self, it: int, head: np.ndarray, step: float):
        new = self._jump(it, head) if not it % self.w else None
        if new is None:
            new = self._tail(head, step)
        else:
            self.steps.clear()
            self.held = 0
        self.unreported += new is not None
        if self.report is not None and not it % self.report_every:
            v = self.front.speed()
            self.report(it, step, float(head[-1]), self.front.position(head),
                        float("nan") if v is None else v, self.unreported)
            self.unreported = 0
        return new

    def _jump(self, it: int, head: np.ndarray):
        front, w, H = self.front, self.w, head.shape[0]
        p = front.record(it, head)
        if front.speed() is None:
            return None
        s = int(H - 1 - _GAP_W * w - p)
        a = front.plateau(head, p) if s >= w else None
        if a is None:
            return None
        c = float(head[a])
        if not float(self.h(c)) <= c:
            return None
        new = np.empty(H)
        new[:a] = head[:a]
        new[a:a + s] = c
        new[a + s:] = head[a:H - s]
        front.shift(s)
        return np.minimum(new, head, out=new)

    def _tail(self, head: np.ndarray, step: float):
        steps = self.steps
        if step > _TAIL_STEP:
            steps.clear()
            self.held = 0
            return None
        steps.append(step)
        lam = steps[-1] / steps[-2] if len(steps) >= 2 else 0.0
        new = None
        if _RATIO_MIN <= lam <= _RATIO_MAX:
            if lam * step <= self.tol:
                if self.held == 2:
                    new = self._cellwise(head)
            elif len(steps) == 4 and lam / (1.0 - lam) * step > _LAST_TOLS * self.tol:
                r1, r2 = steps[1] / steps[0], steps[2] / steps[1]
                if (r1 <= r2 + _RATIO_FALL and r2 <= lam + _RATIO_FALL
                        and max(r1, r2, lam) - min(r1, r2, lam) <= _RATIO_AGREE):
                    new = head - self.prev
                    new *= lam / (1.0 - lam)
                    new += head
        if new is not None:
            np.minimum(new, head, out=new)
            np.maximum(new, 0.0, out=new)
            if np.array_equal(new, head):
                new = None
            else:
                steps.clear()
        if len(steps) == 4:
            steps.pop(0)
        self._hold(head if new is None else new)
        return new

    def _cellwise(self, head: np.ndarray) -> np.ndarray:
        """head less the rest of each cell's own geometric decay, at the
        ratio r of its last two steps, taken no higher than _RATIO_MAX,
        where it fell over both; other cells as they are."""
        d1, d2 = self.prev2 - self.prev, self.prev - head
        r = np.divide(d2, d1, out=np.zeros(head.shape[0]), where=(d1 > 0.0) & (d2 > 0.0))
        np.minimum(r, _RATIO_MAX, out=r)
        d2 *= r / (1.0 - r)
        return np.subtract(head, d2, out=d2)

    def _hold(self, state: np.ndarray) -> None:
        """Keep state as the last state watched, and the one before it."""
        if self.prev is None:
            self.prev, self.prev2 = np.empty_like(state), np.empty_like(state)
        self.prev, self.prev2 = self.prev2, self.prev
        np.copyto(self.prev, state)
        self.held = min(self.held + 1, 2)


def apply_A(spec: CouplingSpec, v) -> np.ndarray:
    """Window average: [Av]_j = (1/w) sum_{k=j..j+w-1} v_k, length N."""
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.M,):
        raise ShapeError(f"apply_A expects length M={spec.M}, got {v.shape}")
    return _WindowMean(spec.M, spec.w).mean(v)


def apply_At(spec: CouplingSpec, u) -> np.ndarray:
    """Adjoint window average with the zero boundary, length M."""
    u = np.asarray(u, dtype=float)
    if u.shape != (spec.N,):
        raise ShapeError(f"apply_At expects length N={spec.N}, got {u.shape}")
    return _WindowMean(spec.M, spec.w).adjoint(u, np.empty(spec.M))


def _coupled_step_into(sys: ScalarSystem, x: np.ndarray, win: _WindowMean,
                       out: np.ndarray) -> np.ndarray:
    """One coupled step of the chain x, whose length win was built for,
    written to out."""
    z = _clamp(win.mean(sys.g(x)), 0.0, sys.y_max, "averaged g-value")
    return win.adjoint(sys.f(z), out)


def coupled_step(sys: ScalarSystem, profile: CoupledProfile) -> CoupledProfile:
    """One synchronous update of the coupled recursion."""
    x = _clamp(profile.values, 0.0, sys.x_max, "profile")
    M = profile.spec.M
    out = _coupled_step_into(sys, x, _WindowMean(M, profile.spec.w), np.empty(M))
    return CoupledProfile(out, profile.spec)


def midpoint_index(M: int) -> int:
    """0-based index of the spatial midpoint ceil(M/2) (1-based)."""
    return (M + 1) // 2 - 1


def copy_midpoint_tail(values: np.ndarray) -> np.ndarray:
    """Overwrite every entry past the midpoint with the midpoint value."""
    out = np.array(values, dtype=float)
    i0 = midpoint_index(out.shape[0])
    out[i0 + 1:] = out[i0]
    return out


def _tail_views(buf: np.ndarray, M: int, pin_tail: bool) -> tuple:
    """(dst, src), views of buf such that np.copyto(dst, src) fills buf[H:]
    from buf[:H], H = midpoint_index(M) + 1, so that buf holds the first
    len(buf) cells of a length-M chain that is the mirror image of itself
    about the midpoint or, with pin_tail, constant past it."""
    H = midpoint_index(M) + 1
    src = buf[H - 1:H] if pin_tail else buf[M - buf.shape[0]:M - H][::-1]
    return buf[H:], src


def _unfold(left: np.ndarray, M: int, pin_tail: bool) -> np.ndarray:
    """The length-M profile whose cells 0..midpoint_index(M) are left."""
    out = np.empty(M)
    out[:left.shape[0]] = left
    np.copyto(*_tail_views(out, M, pin_tail))
    return out


def _run_coupled(sys: ScalarSystem, spec: CouplingSpec, cfg: IterationConfig,
                 pin_tail: bool, start: Optional[np.ndarray] = None,
                 watch=None) -> CoupledRun:
    """Iterate cells 0..i0 = midpoint_index(M) of the chain from start, or
    from x_max.

    New cell i reads x up to i + w - 1, so the state lives in the first H
    cells of a buffer of E = min(M, H + w - 1) cells, H = i0 + 1, and the
    w - 1 cells past the midpoint are refilled before each step: with the
    mirror image x_k = x_{M-1-k} of the plain recursion, whose iterates are
    symmetric, or with x_{i0} for the modified one, whose tail is pinned.
    The first H cells of the step are then those of the same step on the
    full chain (bit for bit when the tail is pinned, since that extension
    is exact and both sum each window in the same order, _WindowMean), and
    so is the step size, the max-abs change over them. The step maps E
    cells to E cells, so two buffers of E cells take turns as state and
    output; they, their views and the kernel's buffers are made once per
    run.

    A watch, when given, is called as watch(it, head, step) after every
    step that does not meet the tolerance, with the new head (the first H
    cells, a buffer the next step overwrites). It returns None to go on,
    or a replacement head, which the run counts in jumps and steps from.
    Without a watch the loop is the plain recursion, with one more test
    per step.
    """
    M = spec.M
    H = midpoint_index(M) + 1
    E = min(M, H + spec.w - 1)
    win = _WindowMean(E, spec.w)
    xs = (np.empty(E), np.empty(E))
    heads = tuple(x[:H] for x in xs)
    tails = tuple(_tail_views(x, M, pin_tail) for x in xs)
    heads[0][...] = sys.x_max if start is None else start[:H]
    diff = np.empty(H)
    cur = jumps = 0
    for it in range(1, cfg.max_iters + 1):
        nxt = 1 - cur
        np.copyto(*tails[cur])
        _coupled_step_into(sys, xs[cur], win, xs[nxt])
        np.subtract(heads[nxt], heads[cur], out=diff)
        np.abs(diff, out=diff)
        step = float(np.maximum.reduce(diff))
        cur = nxt
        if step <= cfg.tol:
            return CoupledRun(CoupledProfile(_unfold(heads[cur], M, pin_tail), spec), it, step,
                              jumps)
        if watch is not None:
            new = watch(it, heads[cur], step)
            if new is not None:
                heads[cur][...] = new
                jumps += 1
    raise NonConvergenceError(
        f"coupled recursion did not converge in {cfg.max_iters} iterations",
        last=CoupledProfile(_unfold(heads[cur], M, pin_tail), spec), iters=cfg.max_iters,
        residual=step, jumps=jumps,
    )


def coupled_fixed_point(sys: ScalarSystem, spec: CouplingSpec,
                        cfg: IterationConfig = IterationConfig(),
                        start=None) -> CoupledRun:
    """Run the coupled recursion to its fixed point, from start (a length-M
    profile, exactly mirror-symmetric, in [0, x_max]) or from x_max.

    Only cells 0..midpoint_index(M) are iterated, the right half being their
    mirror image (_run_coupled), so every profile it returns or raises with
    is exactly symmetric. Iterating coupled_step on the full chain gives
    the same profiles to rounding (a few 1e-15 on chains of hundreds of
    cells: each window is summed in a fixed order, so the full chain is
    symmetric only to rounding) and, in practice, the same iteration count.

    The step is monotone, so a start s with x* <= s <= x_max is squeezed
    between x* and the iterates from x_max and converges to the same x*.
    Where f and g are non-decreasing in a parameter, as
    validate_param_system requires, the fixed point at a larger parameter
    is such a start, and so is any plain iterate of a run there from x_max
    or from such a start; a replaced head (below) need not be
    (thresholds.coupled_sweep).
    Raises ShapeError for a start of the wrong length and DomainError for
    one that is not symmetric or leaves [0, x_max].

    Wave jumps. A decoding run carries a front from each end to the
    midpoint at a steady speed (a travelling wave), and most of its steps
    only move that front. So every w iterations the run records the
    front's position (the first crossing of the level halfway up its half
    chain), and it jumps once the front has moved at least 2w cells
    forward over three records or more (_WaveJumps). A jump translates the
    front to w cells before the midpoint; the cells it opens behind the
    front take the plateau value c found there, one the uncoupled step
    does not raise (h(c) <= c), and the new state is the cellwise minimum
    of the translate and the current iterate. A front that stands still,
    or moves less than 2w cells in 4096 checks, never jumps.

    Tail extrapolation. Once a step is at most 1e-4 the run watches every
    step, and where three successive step ratios agree to 1e-3 without
    falling and the last, lam, lies in [0.5, 0.99], it replaces the
    iterate x_k by its limit along the slowest mode, x_k - lam / (1 - lam)
    (x_{k-1} - x_k). It stops doing so once the error that estimate
    leaves is under 100 tol; instead, on the step before the one due to
    end the run (lam times the step at most tol, lam in [0.5, 0.99]), each
    cell that fell over the last two steps goes to the limit of its own
    decay, at the ratio of those two steps taken no higher than 0.99. So
    the run does not stop where a plain run does, up to lam / (1 - lam)
    tol short of its limit (7 tol on ldpc8, where lam is near 0.88), but
    nearer it. Each replacement is taken cellwise no higher than x_k and
    no lower than 0. A still front, and a run stuck next to its
    threshold, decay at a ratio above 0.99 and are left as they are.
    iters counts the steps taken and jumps the heads replaced, by
    translations and extrapolations alike; the run still ends only on a
    plain step of at most tol.

    Why a replacement is safe: each replaced state y lies at or below the
    iterate x_k it replaces, so by monotonicity the run stays at or below
    the plain one. Where 0 is a fixed point (ldpc, gldpc) and the run
    decodes, 0 <= y <= x_k squeezes it onto the plain run's limit, 0, so
    y >= x* holds exactly, whatever the front's speed or the level ahead
    of it. Elsewhere it holds only up to approximations: for a jump, that
    the translate of a travelling front is a later iterate and that the
    fill c sits at or above the plateau of x*; for an extrapolation, that
    the error decays along one mode (in each cell, for the last one).
    Where a faster mode still shows, an extrapolation
    passes x* by up to a few percent of the error there (2.7% on ldpc8 at
    eps 0.65, N = 40, w = 4), and the run rises back onto x*, a fixed
    point stable at a ratio of at most 0.99, and ends as near it as a
    plain run, from below.
    """
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (spec.M,):
            raise ShapeError(f"start has shape {start.shape}, need ({spec.M},)")
        if not np.array_equal(start, start[::-1]):
            raise DomainError("start is not mirror-symmetric about the chain's midpoint")
        if not np.all((start >= 0.0) & (start <= sys.x_max)):
            raise DomainError(f"start leaves [0, {sys.x_max}]")
    return _run_coupled(sys, spec, cfg, pin_tail=False, start=start,
                        watch=_WaveJumps(sys, spec, tol=cfg.tol))


def modified_coupled_fixed_point(sys: ScalarSystem, spec: CouplingSpec,
                                 cfg: IterationConfig = IterationConfig()) -> CoupledRun:
    """Coupled recursion with the midpoint value copied over the right half
    after each step; dominates the plain recursion entrywise.

    Only cells 0..midpoint_index(M) are iterated, the tail past them being
    pinned to the midpoint value (_run_coupled); every iterate is bit-equal
    to that of the full-chain step followed by copy_midpoint_tail. It takes
    neither wave jumps nor tail extrapolations (coupled_fixed_point):
    either would end that bit-equality, which makes this run the exact
    reference of the proof's modified recursion.
    """
    return _run_coupled(sys, spec, cfg, pin_tail=True)


def translate_system(sys: ScalarSystem, x_tilde: float) -> ScalarSystem:
    """Shift a fixed point x~ of the uncoupled recursion to the origin.

    The translated pair is f~(y) = f(y + g(x~)) - x~ and
    g~(x) = g(x + x~) - g(x~) on [0, x_max - x~], with antiderivatives fixed
    up so that the translated potential is U_s(x + x~) - U_s(x~).
    """
    x_tilde = float(x_tilde)
    if not 0.0 <= x_tilde <= sys.x_max:
        raise DomainError(f"x_tilde={x_tilde} outside [0, {sys.x_max}]")
    if abs(x_tilde - float(sys.h(x_tilde))) > 1e-10:
        raise DomainError(f"x_tilde={x_tilde} is not a fixed point")
    g_shift = float(sys.g(x_tilde))
    F_shift = float(sys.F(g_shift))
    G_shift = float(sys.G(x_tilde))
    new_x_max = sys.x_max - x_tilde
    new_y_max = sys.y_max - g_shift

    def f(y):
        return sys.f(y + g_shift) - x_tilde

    def g(x):
        return sys.g(x + x_tilde) - g_shift

    def F(y):
        return sys.F(y + g_shift) - y * x_tilde - F_shift

    def G(x):
        return sys.G(x + x_tilde) - x * g_shift - G_shift

    return ScalarSystem(
        f=f,
        g=g,
        x_max=new_x_max,
        y_max=new_y_max,
        f_prime=lambda y: sys.f_prime(y + g_shift),
        g_prime=lambda x: sys.g_prime(x + x_tilde),
        g_second=(lambda x: sys.g_second(x + x_tilde)) if sys.g_second is not None else None,
        F=F,
        G=G,
        f_prime_sup=sys.f_prime_sup,
        g_prime_sup=sys.g_prime_sup,
        g_second_sup=sys.g_second_sup,
        name=f"{sys.name}~{x_tilde:g}" if sys.name else "",
    )


@lru_cache(maxsize=32)
def _analysis_grid(x_max: float, n: int) -> np.ndarray:
    """np.linspace(0.0, x_max, n), built once per (x_max, n) and shared
    read-only by every scan of [0, x_max] (fixed_points_of and
    potential.minimize_potential)."""
    xs = np.linspace(0.0, x_max, n)
    xs.flags.writeable = False
    return xs


def _hits(mask: np.ndarray) -> tuple:
    """(rows, cols) of the True entries of a 2-D mask, row by row: what
    np.nonzero gives, at a tenth of its cost on a few scattered hits."""
    at, n = np.flatnonzero(mask), mask.shape[1]
    return at // n, at % n


def _root_cells(xs: np.ndarray, d: np.ndarray) -> tuple:
    """Where fixed_points_of looks for roots, on each row of d = x - h(x)
    (shape (k, n)) over the grid xs: (rows, x) of the grid points where d
    is 0, (rows, i, d at xs[i], d at xs[i + 1]) of the cells
    [xs[i], xs[i + 1]] with a strict sign change, and (rows, i) of the
    grazing points, interior local minima of |d| in (0, _TANGENT_TOL) with
    neither neighbouring cell holding a sign change or a zero, each
    searched on [xs[i - 1], xs[i + 1]]; all row by row, in grid order."""
    rows, cols = _hits(d == 0.0)
    zeros = rows, xs[cols]
    prod = d[:, :-1] * d[:, 1:]
    rows, cols = _hits(prod < 0.0)
    cells = rows, cols, d[rows, cols], d[rows, cols + 1]
    # the interior is masked by one comparison, whose few hits are tested
    rows, cols = _hits(np.abs(d[:, 1:-1]) < _TANGENT_TOL)
    cols = cols + 1
    v, left, right = (np.abs(d[rows, c]) for c in (cols, cols - 1, cols + 1))
    graze = ((0.0 < v) & (v <= left) & (v <= right)
             & ~(prod[rows, cols - 1] <= 0.0) & ~(prod[rows, cols] <= 0.0))
    return zeros, cells, (rows[graze], cols[graze])


def _distinct(found: list) -> list:
    """found sorted, each root kept once: a root within 1e-9 of the one
    kept before it is dropped."""
    found.sort()
    out: list[float] = []
    for x in found:
        if out and abs(x - out[-1]) <= 1e-9:
            continue
        out.append(x)
    return out


def fixed_points_of(h, x_max: float, grid_n: int = ANALYSIS_GRID_N, h_grid=None) -> list:
    """Scan x - h(x) on a grid_n-point grid of [0, x_max] for roots; h_grid,
    when given, is h on that grid, which the caller has already computed.

    Sign changes are refined by Brent's method (bisect_root) to a bracket
    of 1e-12 times the cell's upper end, which bounds the root, so a root
    near 0 keeps its significant digits; local minima of |x - h(x)| below
    1e-9 that do not bracket a sign change (grazing roots) are refined by
    golden section. Both probe with floats. Returns the roots sorted and
    deduplicated; a ScalarSystem's fixed points are
    fixed_points_of(sys.h, sys.x_max). _fixed_points_lanes is the form for
    many slices at once.
    """
    if grid_n < 2:
        raise DomainError("grid_n must be >= 2")
    xs = _analysis_grid(float(x_max), int(grid_n))
    d = np.asarray(h(xs) if h_grid is None else h_grid, dtype=float)
    (_, zeros), (_, cells, _, _), (_, graze) = _root_cells(xs, (xs - d)[None])

    def dfun(x):
        return float(x - h(x))

    found = zeros.tolist()
    for i in cells.tolist():
        hi = float(xs[i + 1])
        found.append(bisect_root(dfun, float(xs[i]), hi, tol=1e-12 * hi))
    for i in graze.tolist():
        x = golden_min(lambda t: abs(dfun(t)), float(xs[i - 1]), float(xs[i + 1]), 1e-12)
        if abs(dfun(x)) < _TANGENT_TOL:
            found.append(x)
    return _distinct(found)


def _fixed_points_lanes(dfun, k: int, xs: np.ndarray, zeros, cells, graze) -> list:
    """fixed_points_of on k slices at once: the roots of each, given the
    grid xs, _root_cells of their rows of x - h(x), and dfun(x, rows),
    x - h(x) at each entry of x for the slice in that entry of rows. All
    sign-change cells are refined by one run of numerics._brent_lanes,
    started from the scan's values at the cell ends, and all grazing
    points by one of numerics._golden_lanes; their lanes take the steps
    of the float calls. With dfun and the scan giving the bits of the
    float x - h(x), each slice gets the list fixed_points_of gives it, bit
    for bit."""
    found = [[] for _ in range(k)]
    for r, x in zip(*(a.tolist() for a in zeros)):
        found[r].append(x)
    rows, cols, d_lo, d_hi = cells
    if rows.size:
        hi = xs[cols + 1]
        roots = _brent_lanes(lambda x: dfun(x, rows), xs[cols], d_lo, hi, d_hi, 1e-12 * hi)
        for r, x in zip(rows.tolist(), roots.tolist()):
            found[r].append(x)
    rows, cols = graze
    if rows.size:
        refined = _golden_lanes(lambda t: np.abs(dfun(t, rows)), xs[cols - 1], xs[cols + 1],
                                1e-12)
        near = np.abs(dfun(refined, rows)) < _TANGENT_TOL
        for r, x in zip(rows[near].tolist(), refined[near].tolist()):
            found[r].append(x)
    return [_distinct(f) for f in found]
