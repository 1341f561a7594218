import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from maxsat.errors import (
    ConstructionError,
    DomainError,
    NonConvergenceError,
    NumericError,
    ShapeError,
)
from maxsat.invariants import coupled_symmetric_unimodal
from maxsat.numerics import Polynomial
from maxsat import recursion
from maxsat.recursion import (
    _CLAMP_TOL,
    ANALYSIS_GRID_N,
    CoupledProfile,
    CouplingSpec,
    IterationConfig,
    _analysis_grid,
    _chebyshev_table,
    _clamp,
    _fixed_points_lanes,
    _root_cells,
    apply_A,
    apply_At,
    copy_midpoint_tail,
    coupled_fixed_point,
    coupled_step,
    fixed_points_of,
    make_system,
    midpoint_index,
    modified_coupled_fixed_point,
    tabulated_integral,
    translate_system,
    uncoupled_fixed_point,
    uncoupled_step,
    validate_system,
)
from maxsat.potential import U_s, minimize_potential
from maxsat.systems import (
    CsParams,
    DegreeDistribution,
    GaussianPrior,
    GldpcParams,
    TwoPointPrior,
    cs_system,
    example1_system,
    example2_system,
    gldpc_system,
    isi_system,
    ldgm_system,
    ldpc_system,
    pathological_system,
)

# largest fixed point of x = 0.97 (1-(1-x)^2)^2, frozen from a bisection on
# x - h(x) over [0.9, 1] (the oracle is repeated below in test_enumerate)
EX1_FP_MID = 0.4054778834818118
EX1_FP_TOP = 0.9680165035778856
# ldpc8's Maxwell threshold, 40-digit reference in test_reference.py
EX8_MAXWELL = 0.62192946106121


def brute_force_step(sys_, spec, x):
    """Direct double-sum evaluation of the coupled update."""
    N, w, M = spec.N, spec.w, spec.M
    y = [float(sys_.g(float(v))) for v in x]
    out = np.zeros(M)
    for i in range(1, M + 1):
        acc = 0.0
        for j in range(1, N + 1):
            if 1 <= i - j + 1 <= w:
                inner = 0.0
                for k in range(1, M + 1):
                    if 1 <= k - j + 1 <= w:
                        inner += y[k - 1] / w
                acc += float(sys_.f(inner)) / w
        out[i - 1] = acc
    return out


def full_chain_run(sys_, spec, pin_tail, tol=1e-12, cap=10**5):
    """The coupled recursion iterated with coupled_step on the whole chain:
    (iterations, iterates from the all-x_max start on)."""
    x = np.full(spec.M, sys_.x_max)
    traj = [x]
    for it in range(1, cap + 1):
        xn = coupled_step(sys_, CoupledProfile(x, spec)).values
        if pin_tail:
            xn = copy_midpoint_tail(xn)
        step = np.max(np.abs(xn - x))
        x = xn
        traj.append(x)
        if step <= tol:
            return it, traj
    raise AssertionError(f"full-chain reference did not converge in {cap} iterations")


def plain_fixed_point(sys_, spec, cfg=IterationConfig(), start=None):
    """coupled_fixed_point's loop without its wave-jump watch: every step
    is the coupled step."""
    return recursion._run_coupled(sys_, spec, cfg, pin_tail=False, start=start)


def assert_near_the_limit(values, plain, sys_, spec, start=None, tight=1e-16):
    """values, a run's profile, lie within 1e-12 of the run's limit, and no
    farther from it than the plain run's profile plain does, give or take
    5e-13. The limit is read off a plain run to tol = tight (1e-16) from
    the same start; the plain run stops up to tol * lam / (1 - lam) short
    of it, where lam is the rate of its geometric tail (about 7e-12 on
    ldpc8, where lam is near 0.88)."""
    limit = plain_fixed_point(sys_, spec, IterationConfig(tol=tight), start).profile.values
    far = np.max(np.abs(values - limit))
    assert far <= 1e-12
    assert far <= np.max(np.abs(plain - limit)) + 5e-13


def iterate(fixed_point, sys_, spec, k, **start):
    """Iterate k of a fixed_point run (from start=..., if given): a run
    capped at k iterations raises NonConvergenceError with it as last, or
    converges at it."""
    try:
        run = fixed_point(sys_, spec, IterationConfig(max_iters=k), **start)
    except NonConvergenceError as exc:
        return exc.last.values
    assert run.iters == k
    return run.profile.values


class TestUncoupled:
    def test_step_values(self):
        s = example1_system()
        assert uncoupled_step(s, 0.0) == 0.0
        assert uncoupled_step(s, 1.0) == pytest.approx(0.97, abs=1e-15)
        assert uncoupled_step(s, 0.5) == pytest.approx(0.545625, abs=1e-15)

    def test_step_domain(self):
        s = example1_system()
        with pytest.raises(DomainError):
            uncoupled_step(s, 1.5)
        with pytest.raises(DomainError):
            uncoupled_step(s, -0.1)

    def test_fixed_point_from_below_unstable(self):
        s = example1_system()
        x, _ = uncoupled_fixed_point(s, 0.05)
        # oracle: direct iteration
        z = 0.05
        for _ in range(10000):
            z = float(s.h(z))
        assert abs(x - z) <= 1e-10
        assert x <= 1e-9

    def test_fixed_point_from_xmax(self):
        s = example1_system()
        x, iters = uncoupled_fixed_point(s, 1.0)
        assert x == pytest.approx(EX1_FP_TOP, abs=1e-9)
        assert iters >= 1

    def test_fixed_point_input_returns_fast(self):
        s = example1_system()
        x, iters = uncoupled_fixed_point(s, EX1_FP_TOP)
        assert iters == 1
        assert abs(x - EX1_FP_TOP) <= 1e-10

    def test_monotone_from_xmax(self):
        for s in (example1_system(), example2_system(), pathological_system()):
            x = s.x_max
            for _ in range(300):
                xn = float(s.h(x))
                assert xn <= x + 1e-15
                x = xn

    def test_nonconvergence_carries_last(self):
        s = example1_system()
        with pytest.raises(NonConvergenceError) as exc:
            uncoupled_fixed_point(s, 1.0, IterationConfig(tol=1e-12, max_iters=3))
        assert 0.0 < exc.value.last <= 1.0
        assert exc.value.iters == 3


class TestCouplingOperators:
    def test_apply_A_ones(self):
        spec = CouplingSpec(2, 2)
        assert np.allclose(apply_A(spec, [1.0, 1.0, 1.0]), [1.0, 1.0])

    def test_apply_At_boundary(self):
        spec = CouplingSpec(2, 2)
        assert np.allclose(apply_At(spec, [1.0, 1.0]), [0.5, 1.0, 0.5])

    def test_apply_A_values(self):
        spec = CouplingSpec(2, 2)
        assert np.allclose(apply_A(spec, [0.2, 0.4, 0.6]), [0.3, 0.5])

    def test_shape_errors(self):
        spec = CouplingSpec(2, 2)
        with pytest.raises(ShapeError):
            apply_A(spec, [1.0, 1.0])
        with pytest.raises(ShapeError):
            apply_At(spec, [1.0, 1.0, 1.0])

    def test_spec_validation(self):
        with pytest.raises(ConstructionError):
            CouplingSpec(0, 2)
        with pytest.raises(ConstructionError):
            IterationConfig(tol=-1.0)
        with pytest.raises(ConstructionError, match="^max_iters must be >= 1$"):
            IterationConfig(max_iters=0)

    def test_profile_length_must_be_M(self):
        with pytest.raises(ShapeError, match=r"^profile length \(4,\) does not match M=3$"):
            CoupledProfile(np.zeros(4), CouplingSpec(2, 2))


class TestCoupledStep:
    def test_zero_stays_zero(self):
        s = example1_system()
        spec = CouplingSpec(5, 3)
        prof = CoupledProfile(np.zeros(spec.M), spec)
        assert np.all(coupled_step(s, prof).values == 0.0)

    @pytest.mark.parametrize("N,w", [(2, 2), (3, 2), (4, 3), (2, 3), (4, 2)])
    def test_matches_brute_force(self, N, w):
        s = example1_system()
        spec = CouplingSpec(N, w)
        rng = np.random.default_rng(100 * N + w)
        for _ in range(5):
            x = rng.uniform(0.0, 1.0, spec.M)
            ours = coupled_step(s, CoupledProfile(x, spec)).values
            ref = brute_force_step(s, spec, x)
            assert np.max(np.abs(ours - ref)) <= 1e-15

    def test_w1_reduces_to_uncoupled(self):
        s = example2_system()
        spec = CouplingSpec(6, 1)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, spec.M)
        ours = coupled_step(s, CoupledProfile(x, spec)).values
        ref = uncoupled_step(s, x)
        assert np.array_equal(ours, ref)


class TestCoupledFixedPoint:
    def test_w1_profile_is_uncoupled_fp(self):
        s = example1_system()
        run = coupled_fixed_point(s, CouplingSpec(7, 1))
        ref, _ = uncoupled_fixed_point(s, s.x_max)
        assert np.max(np.abs(run.profile.values - ref)) <= 1e-9

    def test_collapse_at_moderate_width(self):
        s = example1_system()
        run = coupled_fixed_point(s, CouplingSpec(64, 8))
        assert run.profile.max <= 1e-6

    def test_iterates_monotone_symmetric_unimodal(self):
        # properties of the recursion, checked on the full-chain reference
        # (TestHalfChain matches the run's iterates to it)
        s, spec = example1_system(), CouplingSpec(16, 3)
        _, traj = full_chain_run(s, spec, pin_tail=False)
        for prev, cur in zip(traj, traj[1:]):
            assert np.all(cur <= prev + 1e-15)
        assert coupled_symmetric_unimodal([(s, spec)])

    def test_nonconvergence_carries_profile(self):
        s = example1_system()
        with pytest.raises(NonConvergenceError) as exc:
            coupled_fixed_point(s, CouplingSpec(16, 3),
                                IterationConfig(max_iters=2))
        assert isinstance(exc.value.last, CoupledProfile)


class TestModifiedRecursion:
    def test_tail_copy(self):
        # midpoint of M=4 is position 2 (1-based)
        out = copy_midpoint_tail(np.array([0.1, 0.3, 0.2, 0.05]))
        assert np.allclose(out, [0.1, 0.3, 0.3, 0.3])

    def test_zero_stays_zero(self):
        s = example1_system()
        run = modified_coupled_fixed_point(s, CouplingSpec(9, 2),
                                           IterationConfig(max_iters=10**4))
        assert run.profile.max >= 0.0

    def test_dominates_plain_recursion(self):
        s = example1_system()
        spec = CouplingSpec(9, 2)
        kcfg = IterationConfig(max_iters=10**5)
        plain = coupled_fixed_point(s, spec, kcfg)
        mod = modified_coupled_fixed_point(s, spec, kcfg)
        assert np.all(mod.profile.values >= plain.profile.values - 1e-12)
        # iterate by iterate on the full-chain references
        _, plain_ref = full_chain_run(s, spec, pin_tail=False)
        _, mod_ref = full_chain_run(s, spec, pin_tail=True)
        for a, b in zip(plain_ref, mod_ref):
            assert np.all(b >= a - 1e-12)
        # modified iterates are non-decreasing along the chain
        for v in mod_ref:
            assert np.min(np.diff(v)) >= -1e-12


# odd and even M, w > N, and chains so short that the half-chain buffer of
# H + w - 1 cells is the whole chain
_EX1_SPECS = [(1, 1), (1, 3), (2, 2), (5, 7), (9, 2), (16, 3), (64, 8)]
_CHAINS = {
    "ldpc8": (lambda: ldpc_system(DegreeDistribution.from_edge(
        "0.2 x + 0.25 x^2 + 0.1 x^6 + 0.45 x^20"),
        DegreeDistribution.from_edge("0.6 x^4 + 0.4 x^12")), 0.6, 400),
    "ldgm9": (lambda: ldgm_system("x^6", DegreeDistribution.from_edge(
        "2/45 + 2/45 x + 7/15 x^2 + 4/9 x^3")), 0.5, 401),
    "gldpc31": (lambda: gldpc_system(GldpcParams(31, 4)), 0.23, 400),
}


def _half_chain_case(case):
    if case in _CHAINS:
        build, eps, N = _CHAINS[case]
        return build().at_eps(eps), CouplingSpec(N, 11)
    return example1_system(), CouplingSpec(*case)


_CASES = _EX1_SPECS + list(_CHAINS)


def assert_iterates_match(fixed_point, sys_, spec, every):
    """fixed_point stops after as many iterations as the full-chain
    reference, and its iterates are those of the reference: within 1e-13
    and exactly symmetric for the plain run, bit for bit for the modified
    one. every checks each iterate; otherwise, since each is read off a
    run capped there, iterates 1-20, two consecutive ones mid-run (either
    buffer of the run as state) and the last two."""
    pin_tail = fixed_point is modified_coupled_fixed_point
    iters, ref = full_chain_run(sys_, spec, pin_tail)
    assert fixed_point(sys_, spec).iters == iters
    mid = iters // 2
    ks = range(1, iters + 1) if every else sorted(
        {*range(1, min(iters, 20) + 1), mid, mid + 1, iters - 1, iters} - {0})
    for k in ks:
        ours = iterate(fixed_point, sys_, spec, k)
        assert ours.shape == (spec.M,)
        if pin_tail:
            assert np.array_equal(ours, ref[k]), k
        else:
            assert np.max(np.abs(ours - ref[k])) <= 1e-13, k
            assert np.array_equal(ours, ours[::-1]), k


class TestHalfChain:
    """The plain and modified runs iterate only the cells up to the
    midpoint; the full chain under coupled_step is the reference. Every
    iterate is compared on the example-1 specs, a sample on the long
    chains. The plain run is coupled_fixed_point's loop without its
    wave-jump watch (TestWatch compares the two)."""

    @pytest.mark.parametrize("case", _CASES, ids=str)
    def test_plain_run_matches_full_chain(self, case):
        s, spec = _half_chain_case(case)
        assert_iterates_match(plain_fixed_point, s, spec, every=case not in _CHAINS)

    @pytest.mark.parametrize("case", _CASES, ids=str)
    def test_modified_run_is_bit_equal_to_full_chain(self, case):
        s, spec = _half_chain_case(case)
        assert_iterates_match(modified_coupled_fixed_point, s, spec,
                              every=case not in _CHAINS)

    @pytest.mark.parametrize("w", [12, 16])
    def test_wide_windows_share_the_kernel(self, w):
        # the cases above stop at w = 11; from 12 cells on np.convolve sums
        # a window through BLAS in yet another order, and the bit-equality
        # still holds because coupled_step and the run share one kernel
        s = _CHAINS["ldgm9"][0]().at_eps(0.5)
        assert_iterates_match(modified_coupled_fixed_point, s, CouplingSpec(60, w), every=False)

    def test_full_chain_iterates_are_symmetric_and_unimodal(self):
        # includes M = 1, where the rising part up to the midpoint is empty
        assert coupled_symmetric_unimodal(
            [(example1_system(), CouplingSpec(N, w)) for N, w in _EX1_SPECS])

    @pytest.mark.parametrize("fixed_point", [coupled_fixed_point, modified_coupled_fixed_point])
    def test_residual_is_the_last_step(self, fixed_point):
        s, spec = example1_system(), CouplingSpec(16, 3)
        run = fixed_point(s, spec)
        before = iterate(fixed_point, s, spec, run.iters - 1)
        last_step = np.max(np.abs(run.profile.values - before))
        assert run.residual == last_step <= IterationConfig().tol
        capped = IterationConfig(max_iters=20)
        with pytest.raises(NonConvergenceError) as exc:
            fixed_point(s, spec, capped)
        _, ref = full_chain_run(s, spec, pin_tail=fixed_point is modified_coupled_fixed_point)
        assert exc.value.iters == 20
        assert exc.value.last.values.shape == (spec.M,)
        assert np.max(np.abs(exc.value.last.values - ref[20])) <= 1e-13
        assert exc.value.residual > capped.tol
        assert exc.value.residual == pytest.approx(np.max(np.abs(ref[20] - ref[19])),
                                                   rel=1e-9)

    def test_uncoupled_residual(self):
        s = example1_system()
        xs = [s.x_max]
        for _ in range(3):
            xs.append(float(s.h(xs[-1])))
        with pytest.raises(NonConvergenceError) as exc:
            uncoupled_fixed_point(s, s.x_max, IterationConfig(max_iters=3))
        assert exc.value.last == xs[3]
        assert exc.value.residual == abs(xs[3] - xs[2]) > 1e-12

    @pytest.mark.parametrize("fixed_point", [coupled_fixed_point, modified_coupled_fixed_point])
    def test_overshooting_g_raises_from_run_and_step(self, fixed_point):
        # g overshoots y_max = g(1) by 1e-6 inside the domain; the window
        # means carry it past the clamp's slack, in the run's shared kernel
        # as in coupled_step
        s = make_system(f=lambda y: 0.5 * y, g=lambda x: np.where(x < 1.0, 1.0 + 1e-6, 1.0),
                        x_max=1.0, F=lambda y: 0.25 * y * y, G=lambda x: x, validate=False)
        spec = CouplingSpec(20, 4)
        message = r"^averaged g-value escapes \[0\.0, 1\.0\] by 1\.000e-06$"
        with pytest.raises(DomainError, match=message):
            fixed_point(s, spec)
        with pytest.raises(DomainError, match=message):
            coupled_step(s, CoupledProfile(np.full(spec.M, 0.5), spec))

    def test_clamp_guards_the_run(self):
        # f overshoots x_max, so the second step averages g-values up to
        # 2 y_max; without validation nothing stops the system being built
        s = make_system(f=lambda y: 2.0 + 0.0 * y, g=lambda x: 1.0 * x, x_max=1.0,
                        F=lambda y: 2.0 * y, G=lambda x: 0.5 * x * x, validate=False)
        for fixed_point in (coupled_fixed_point, modified_coupled_fixed_point):
            with pytest.raises(DomainError, match="averaged g-value escapes"):
                fixed_point(s, CouplingSpec(12, 3))


class _NullWatch:
    """A watch that looks at every iterate and changes nothing."""

    def __init__(self):
        self.seen = []

    def __call__(self, it, head, step):
        self.seen.append((it, head.copy(), step))


class TestWatch:
    """_run_coupled's watch hook: watch=None is the plain loop, a watch
    that returns None changes nothing, and coupled_fixed_point's wave-jump
    watch leaves every run in which no jump fires bit for bit as it is."""

    @pytest.mark.parametrize("case", _CASES, ids=str)
    def test_null_watch_changes_no_iterate(self, case):
        s, spec = _half_chain_case(case)
        plain = plain_fixed_point(s, spec)
        watch = _NullWatch()
        run = recursion._run_coupled(s, spec, IterationConfig(), False, watch=watch)
        assert (run.iters, run.residual, run.jumps) == (plain.iters, plain.residual, 0)
        assert np.array_equal(run.profile.values, plain.profile.values)
        # called after every step but the last, with that step's head
        assert [it for it, _, _ in watch.seen] == list(range(1, plain.iters))
        H = midpoint_index(spec.M) + 1
        for k in sorted({1, plain.iters // 2, plain.iters - 1} - {0}):
            it, head, step = watch.seen[k - 1]
            assert np.array_equal(head, iterate(plain_fixed_point, s, spec, k)[:H])
            assert step > IterationConfig().tol

    @pytest.mark.parametrize("case", _CASES, ids=str)
    def test_jump_watch_without_jumps_is_the_plain_loop(self, case):
        s, spec = _half_chain_case(case)
        plain, run = plain_fixed_point(s, spec), coupled_fixed_point(s, spec)
        if run.jumps == 0:
            assert (run.iters, run.residual) == (plain.iters, plain.residual)
            assert np.array_equal(run.profile.values, plain.profile.values)
        elif case == "ldpc8":
            # at 0.6 < eps_single the uncoupled recursion decodes on its
            # own, and the fronts still travel and jump: the run ends at its
            # limit, where the plain run stops 5.8e-12 short (measured: 159
            # steps against 219, and 1.3e-13 from the limit)
            assert run.iters < plain.iters
            assert_near_the_limit(run.profile.values, plain.profile.values, s, spec)
        else:
            assert run.iters < plain.iters
            assert np.max(np.abs(run.profile.values - plain.profile.values)) <= 1e-12
        # the short example-1 chains leave no room for a front to travel,
        # and none of their tails is extrapolated
        assert run.jumps == 0 or case in _CHAINS

    def test_front_speed_on_ldgm9(self):
        # ldgm9 at eps = 0.503731, N = 652, w = 5: a front that takes 8250
        # plain iterations to cross the half chain
        s = _CHAINS["ldgm9"][0]().at_eps(0.503731)
        spec = CouplingSpec(652, 5)
        front = recursion._Front(spec.w)

        def track(it, head, step):
            if it % spec.w == 0:
                front.record(it, head)

        with pytest.raises(NonConvergenceError):
            recursion._run_coupled(s, spec, IterationConfig(max_iters=4000), False, watch=track)
        v = front.speed()
        assert v == pytest.approx(0.0384, abs=5e-4)
        assert front.pos[-1] - front.pos[0] >= recursion._BASELINE_W * spec.w


def _front_head(H, p, low=0.1, top=0.9):
    """A half-chain head of H cells at level low behind a linear front, 10
    cells wide, whose mid-level crossing is at p, and at level top ahead."""
    return low + (top - low) * np.clip((np.arange(H) - p + 5.0) / 10.0, 0.0, 1.0)


# Chains whose fronts travel far enough to jump: (family, eps, N, w) and
# the most iterations the jumped run may take, against 8250, 2641 and 1735
# plain ones (773, 227 and 408 taken).
_JUMPING = {
    "ldgm9": ("ldgm9", 0.503731, 652, 5, 850),
    "gldpc31": ("gldpc31", 0.250287, 975, 11, 250),
    "ldpc8": ("ldpc8", 0.617332, 864, 11, 450),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestWaveJumps:
    """coupled_fixed_point's wave jumps: the jumped run lands as near its
    limit as the plain one in a fraction of its iterations, and a front
    that does not travel never jumps."""

    @pytest.mark.parametrize("case", list(_JUMPING))
    def test_jumped_run_matches_the_plain_run(self, case):
        family, eps, N, w, most = _JUMPING[case]
        s, spec = _CHAINS[family][0]().at_eps(eps), CouplingSpec(N, w)
        plain, run = plain_fixed_point(s, spec), coupled_fixed_point(s, spec)
        # a front jumps once, to _GAP_W windows before the midpoint
        assert run.jumps >= 1
        assert run.iters <= most < plain.iters
        assert run.residual <= IterationConfig().tol
        if family == "ldpc8":
            # the plain run stops 7.3e-12 short of the limit (lam near 0.88)
            assert_near_the_limit(run.profile.values, plain.profile.values, s, spec)
        else:
            assert np.max(np.abs(run.profile.values - plain.profile.values)) <= 1e-12
        assert np.array_equal(run.profile.values, run.profile.values[::-1])
        if family != "ldgm9":
            # 0 is a fixed point, and the run decodes
            assert run.profile.max <= 1e-10

    @pytest.mark.parametrize("offset", [-1e-5, 0.0, 1e-5])
    def test_still_front_never_jumps(self, offset):
        # ldpc8 near its eps_c, where the front's speed changes sign
        s = _CHAINS["ldpc8"][0]().at_eps(EX8_MAXWELL + offset)
        spec, cfg = CouplingSpec(200, 3), IterationConfig(max_iters=5000)
        with pytest.raises(NonConvergenceError) as plain:
            plain_fixed_point(s, spec, cfg)
        with pytest.raises(NonConvergenceError) as run:
            coupled_fixed_point(s, spec, cfg)
        assert run.value.jumps == 0
        assert np.array_equal(run.value.last.values, plain.value.last.values)

    def test_plateau_the_step_raises_is_refused(self):
        # a front moving 0.5 cells per iteration along a synthetic head, low
        # plateau 0.1 behind it, level 0.9 ahead: it has a speed once it has
        # moved _BASELINE_W windows, at check 1 + 2 _BASELINE_W, and has a
        # flat plateau, and the jump is taken exactly where h(0.1) <= 0.1
        w, H = 3, 200
        fired, watches = {}, {}
        for name, h in (("lowers", lambda c: 0.5 * c), ("raises", lambda c: c + 1e-3)):
            # h is the one part of a ScalarSystem that _WaveJumps reads
            watch = recursion._WaveJumps(SimpleNamespace(h=h), CouplingSpec(2 * H, w))
            watches[name] = watch
            fired[name] = [k for k in range(1, 30)
                           if watch(w * k, _front_head(H, 30.0 + 0.5 * w * k), 1.0) is not None]
        assert fired["lowers"][0] == 1 + 2 * recursion._BASELINE_W and fired["raises"] == []
        front, head = watches["raises"].front, _front_head(H, 30.0 + 0.5 * w * 29)
        assert front.speed() is not None and front.plateau(head, front.pos[-1]) is not None

    def test_front_keeps_the_last_half_of_its_records(self):
        # _MAX_RECORDS + 1 records trim the oldest _MAX_RECORDS // 2; the
        # front stands still, so it has no speed
        front = recursion._Front(3)
        head = _front_head(200, 50.0)
        for it in range(recursion._MAX_RECORDS + 1):
            assert front.record(it, head) == 50.0
        kept = recursion._MAX_RECORDS // 2 + 1
        assert front.its == list(range(recursion._MAX_RECORDS // 2, recursion._MAX_RECORDS + 1))
        assert front.pos == [50.0] * kept
        assert front.speed() is None

    def test_random_near_threshold_chains_end_where_the_plain_run_does(self):
        # 40 chains drawn near each family's thresholds (ldgm9 near both of
        # its jumps); a jump never raises a cell, so a run ends where the
        # plain run does, to its tolerance's geometric tail, in no more
        # steps. Draws whose plain run does not converge in 20 000 steps are
        # skipped (measured: 40 kept, 26 shorter, worst 1.4e-10)
        families = {"ldpc8": _CHAINS["ldpc8"][0](), "ldgm9": _CHAINS["ldgm9"][0](),
                    "isi": isi_system("x^3", "x^6"), "gldpc31": _CHAINS["gldpc31"][0]()}
        windows = [("ldpc8", 0.612, 0.626), ("ldgm9", 0.495, 0.52), ("ldgm9", 0.33, 0.40),
                   ("isi", 0.60, 0.66), ("gldpc31", 0.245, 0.265)]
        rng, cfg = np.random.default_rng(0), IterationConfig(max_iters=20000)
        kept = shorter = 0
        for _ in range(40):
            family, lo, hi = windows[rng.integers(len(windows))]
            eps, w = rng.uniform(lo, hi), int(rng.integers(2, 13))
            s, spec = families[family].at_eps(eps), CouplingSpec(int(rng.integers(w, 201)), w)
            try:
                plain = plain_fixed_point(s, spec, cfg)
            except NonConvergenceError:
                continue
            run = coupled_fixed_point(s, spec, cfg)
            assert np.max(np.abs(run.profile.values - plain.profile.values)) <= 1e-9
            assert run.iters <= plain.iters
            kept += 1
            shorter += run.iters < plain.iters
        assert kept >= 30 and shorter >= 10

    def test_stuck_run_stays_stuck(self):
        # ldgm9 above its coupled threshold: the chain does not decode
        s, spec = _CHAINS["ldgm9"][0]().at_eps(0.508549), CouplingSpec(748, 13)
        plain, run = plain_fixed_point(s, spec), coupled_fixed_point(s, spec)
        assert run.jumps == 0 and run.iters == plain.iters
        assert np.array_equal(run.profile.values, plain.profile.values)
        assert run.profile.max > 0.8


def _tail_watch(steps, level=0.3, H=50):
    """What a fresh _WaveJumps returns after each of the given steps, on
    flat heads of H cells at level + 10 * step (they carry no front, so no
    jump fires)."""
    watch = recursion._WaveJumps(SimpleNamespace(h=None), CouplingSpec(2 * H, 3))
    return watch, [watch(k, np.full(H, level + 10.0 * step), step)
                   for k, step in enumerate(steps, 1)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTailExtrapolation:
    """coupled_fixed_point's tail extrapolation: once the steps shrink by a
    steady ratio lam in [0.5, 0.99], the head is replaced by its
    geometric limit, never above the head, and before the step due to end
    the run each cell goes to its own. It shortens stuck and decoding
    tails, lands nearer the limit than the plain run's stop, and leaves
    alone a tail slower than the cap and one whose ratios fall."""

    def test_steady_ratio_lands_on_the_limit(self):
        # steps of 1e-3 * 0.9^k, on heads 10 steps above 0.3: the 23rd step
        # is the first at most _TAIL_STEP, and the fourth step watched from
        # there gives three equal ratios; the head becomes the level, 0.3
        watch, said = _tail_watch([1e-3 * 0.9 ** k for k in range(40)])
        assert [k for k, new in enumerate(said, 1) if new is not None][0] == 26
        assert np.max(np.abs(said[25] - 0.3)) <= 1e-13

    @pytest.mark.parametrize("ratio", [0.995, 0.3])
    def test_ratio_outside_the_bounds_is_never_extrapolated(self, ratio):
        # 0.995 is above the cap, which keeps a slow front's drift as it is
        _, said = _tail_watch([5e-5 * ratio ** k for k in range(2000 if ratio > 0.5 else 100)])
        assert all(new is None for new in said)

    def test_falling_ratios_are_not_extrapolated(self):
        # the steps of two modes of opposite signs, 1e-5 * 0.95^k and
        # -9e-6 * 0.9^k, as after an overshoot: their ratio falls toward
        # 0.95 from above, and lam would overshoot the limit
        steps = [5e-7 * 0.95 ** k - 9e-7 * 0.9 ** k for k in range(30, 140)]
        ratios = [b / a for a, b in zip(steps, steps[1:])]
        assert all(a - b > recursion._RATIO_FALL for a, b in zip(ratios, ratios[1:]))
        assert ratios[20] - ratios[22] <= recursion._RATIO_AGREE
        _, said = _tail_watch(steps)
        assert all(new is None for new in said)

    def test_stuck_run_takes_a_short_tail(self):
        # ldgm9 above its coupled threshold: 710 plain steps, decaying at
        # about 0.968 per step
        s, spec = _CHAINS["ldgm9"][0]().at_eps(0.513534), CouplingSpec(884, 12)
        plain, run = plain_fixed_point(s, spec), coupled_fixed_point(s, spec)
        assert run.jumps >= 1 and run.iters <= 250 < plain.iters == 710
        assert run.profile.max > 0.8
        assert np.array_equal(run.profile.values, run.profile.values[::-1])
        limit = plain_fixed_point(s, spec, IterationConfig(tol=1e-16)).profile.values
        # measured: 181 steps, and 1.2e-12 against 3.0e-11
        assert np.max(np.abs(run.profile.values - limit)) < (
            0.1 * np.max(np.abs(plain.profile.values - limit)))

    @pytest.mark.parametrize("eps", [0.624, 0.6235])
    def test_stuck_run_just_under_the_cap(self, eps):
        # ldpc8 just above its eps_c on a (200, 3) chain: a still front whose
        # tail decays at 0.987 and 0.989, under the 0.99 cap. Extrapolated
        # heads pass the limit by up to a few 1e-5, and the run rises back
        # onto that same stuck fixed point, no farther from it than the
        # plain run (7.3e-11 and 1.3e-11 against 7.4e-11 and 9.2e-11)
        s, spec = _CHAINS["ldpc8"][0]().at_eps(eps), CouplingSpec(200, 3)
        plain, run = plain_fixed_point(s, spec), coupled_fixed_point(s, spec)
        last = [iterate(plain_fixed_point, s, spec, plain.iters - k)[:101] for k in (0, 1, 2)]
        lam = np.max(np.abs(last[0] - last[1])) / np.max(np.abs(last[1] - last[2]))
        assert 0.985 <= lam <= recursion._RATIO_MAX
        assert run.jumps >= 1 and run.iters < plain.iters
        assert run.profile.max == pytest.approx(plain.profile.max, abs=1e-9)
        limit = plain_fixed_point(s, spec, IterationConfig(tol=1e-16)).profile.values
        assert np.max(np.abs(run.profile.values - limit)) <= (
            np.max(np.abs(plain.profile.values - limit)) + 5e-13)

    def test_decoding_tail_below_eps_single(self):
        # ldpc8 at 0.6 < eps_single, where the uncoupled recursion decodes
        # on its own; its tail decays at h'(0) = 0.864
        s, spec = _CHAINS["ldpc8"][0]().at_eps(0.6), CouplingSpec(400, 3)
        plain, run = plain_fixed_point(s, spec), coupled_fixed_point(s, spec)
        assert run.jumps >= 1 and run.iters < plain.iters
        # measured: 1.1e-13 against 5.9e-12, in 160 steps against 219
        assert run.profile.max <= 1e-12 < plain.profile.max
        assert_near_the_limit(run.profile.values, plain.profile.values, s, spec)

    def test_last_step_is_extrapolated_cellwise(self):
        # cells 0.3 + 1.3e-12 r^k / (1 - r) that decay at their own ratios r
        # from 0.8 to 0.9: the steps, 1.3e-12 0.9^(k-1), are the slowest
        # cell's, and on the third head the next step is due to end the run
        # (0.9 * 1.05e-12 <= tol); the cellwise extrapolation lands every
        # cell on 0.3 to the rounding of its steps' ratio (1e-4 of it), where
        # one lam = 0.9 would have taken the 0.8 cell 5 d2 = 4.2e-12 below it
        # (d2 its last step)
        H = 50
        watch = recursion._WaveJumps(SimpleNamespace(h=None), CouplingSpec(2 * H, 3))
        r = np.linspace(0.8, 0.9, H)
        heads = [0.3 + 1.3e-12 * r**k / (1.0 - r) for k in range(4)]
        said = [watch(k, heads[k], float(np.max(np.abs(heads[k] - heads[k - 1]))))
                for k in range(1, 4)]
        assert said[0] is None and said[1] is None
        assert np.max(np.abs(said[2] - 0.3)) <= 5e-14
        assert np.all(said[2] <= heads[3])


class TestStartProfile:
    """coupled_fixed_point from a given start: the monotone step squeezes
    any start between the fixed point and x_max onto the fixed point."""

    def test_start_at_fixed_point_stops_at_once(self):
        s, spec = example1_system(), CouplingSpec(16, 3)
        run = coupled_fixed_point(s, spec)
        again = coupled_fixed_point(s, spec, start=run.profile.values)
        assert again.iters == 1
        assert np.max(np.abs(again.profile.values - run.profile.values)) <= 1e-12

    def test_start_between_fixed_point_and_x_max(self):
        s, spec = example1_system(), CouplingSpec(16, 3)
        cold = coupled_fixed_point(s, spec)
        start = 0.5 * (cold.profile.values + s.x_max)
        warm = coupled_fixed_point(s, spec, start=start)
        first = iterate(coupled_fixed_point, s, spec, 1, start=start)
        ref = coupled_step(s, CoupledProfile(start, spec)).values
        assert np.max(np.abs(first - ref)) <= 1e-13
        assert warm.iters <= cold.iters
        assert np.max(np.abs(warm.profile.values - cold.profile.values)) <= 1e-10

    @pytest.mark.parametrize("bad,error", [
        (lambda v: v[:-1], ShapeError),
        (lambda v: np.concatenate([v, v]), ShapeError),
        (lambda v: v + np.linspace(0.0, 1e-3, v.size), DomainError),
        (lambda v: np.where(np.arange(v.size) == 0, 0.5, v), DomainError),
        (lambda v: v + 1e-6, DomainError),
        (lambda v: v - 2.0, DomainError),
        (lambda v: np.full(v.size, np.nan), DomainError),
    ], ids=["short", "long", "tilted", "one_cell", "above_x_max", "negative", "nan"])
    def test_bad_start_raises(self, bad, error):
        s, spec = example1_system(), CouplingSpec(16, 3)
        with pytest.raises(error):
            coupled_fixed_point(s, spec, start=bad(np.full(spec.M, s.x_max)))


class TestTranslate:
    def test_identity_at_zero(self):
        s = example1_system()
        t = translate_system(s, 0.0)
        xs = np.linspace(0, 1, 17)
        assert np.allclose(t.h(xs), s.h(xs), atol=1e-15)
        assert np.allclose(U_s(t, xs), U_s(s, xs), atol=1e-15)

    def test_potential_shift_identity(self):
        s = example1_system()
        t = translate_system(s, EX1_FP_TOP)
        xs = np.linspace(0, t.x_max, 33)
        ref = U_s(s, xs + EX1_FP_TOP) - U_s(s, EX1_FP_TOP)
        assert np.max(np.abs(U_s(t, xs) - ref)) <= 1e-12

    def test_translated_zero_is_fixed_point(self):
        s = example1_system()
        t = translate_system(s, EX1_FP_TOP)
        assert abs(t.h(0.0)) <= 1e-10
        assert t.x_max == pytest.approx(1.0 - EX1_FP_TOP)

    def test_requires_fixed_point(self):
        s = example1_system()
        with pytest.raises(DomainError):
            translate_system(s, 0.5)

    def test_shift_identity_with_nonzero_g_origin(self):
        # the fixed-up antiderivatives keep the potential identity even when
        # g(0) != 0 after translation bookkeeping
        s = example2_system()
        top, _ = uncoupled_fixed_point(s, s.x_max)
        t = translate_system(s, top)
        xs = np.linspace(0, t.x_max, 21)
        ref = U_s(s, xs + top) - U_s(s, top)
        assert np.max(np.abs(np.asarray(U_s(t, xs)) - ref)) <= 1e-12
        assert abs(t.h(0.0)) <= 1e-9


class TestEnumerate:
    def test_example1_three_fixed_points(self):
        s = example1_system()
        pts = fixed_points_of(s.h, s.x_max)
        # oracle: fine scan of x - h(x) plus bisection on each sign change
        xs = np.linspace(0, 1, 10**6 + 1)
        d = xs - np.asarray(s.h(xs))
        changes = np.where(d[:-1] * d[1:] < 0)[0]
        assert len(pts) == len(changes) + 1  # +1 for the exact root at 0
        assert pts[0] == 0.0
        assert pts[1] == pytest.approx(EX1_FP_MID, abs=1e-9)
        assert pts[2] == pytest.approx(EX1_FP_TOP, abs=1e-9)

    def test_grid_n_validation(self):
        s = example1_system()
        with pytest.raises(DomainError):
            fixed_points_of(s.h, s.x_max, 1)

    def test_pathological_accumulation(self):
        s = pathological_system()
        pts = [x for x in fixed_points_of(s.h, s.x_max, 200000) if 0.01 <= x <= 0.1]
        assert len(pts) >= 5

    def test_tangential_root_found(self):
        # h(x) - x = -x (x - 1/2)^2 / 2 grazes zero at 1/2 without a sign
        # change; bisection cannot bracket it, the |d| refinement finds it
        k = 0.5
        s = make_system(f=lambda x: x * (1.0 - k * (x - 0.5) ** 2),
                        g=lambda x: 1.0 * x, x_max=1.0,
                        f_prime=lambda x: 1.0 - k * ((x - 0.5) ** 2 + 2 * x * (x - 0.5)),
                        g_prime=lambda x: 1.0 + 0.0 * x,
                        g_second=lambda x: 0.0 * x)
        pts = fixed_points_of(s.h, s.x_max)
        assert pts[0] == 0.0
        assert len(pts) == 2
        assert pts[1] == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("grid_n", [11, ANALYSIS_GRID_N])
    def test_tangent_roots_in_first_and_last_interior_cells(self, grid_n):
        # x - h(x) = (x - r1)^2 (x - r2)^2 grazes zero 1e-6 past the grid's
        # second point and 1e-6 before its second-to-last, so the only
        # local minima of |x - h| below 1e-9 sit at indices 1 and
        # grid_n - 2, the ends of the scan's slices, and no cell changes sign
        xs = np.linspace(0.0, 1.0, grid_n)
        r1, r2 = xs[1] + 1e-6, xs[-2] - 1e-6

        def h(x):
            return x - (x - r1) ** 2 * (x - r2) ** 2

        pts = fixed_points_of(h, 1.0, grid_n)
        assert len(pts) == 2
        assert pts[0] == pytest.approx(r1, abs=1e-5)
        assert pts[1] == pytest.approx(r2, abs=1e-5)
        assert all(abs(x - h(x)) < 1e-9 for x in pts)

    @pytest.mark.parametrize("grid_n", [11, 3000, ANALYSIS_GRID_N])
    def test_lanes_equal_float_scans(self, grid_n):
        # slices x - h = s (x - c)^2 (x - a): a sign change at a, an exact
        # zero where a is a grid point, and a grazing root at c; the slices
        # scanned and refined as lanes give each one fixed_points_of's list
        xs = _analysis_grid(1.0, grid_n)
        rng = np.random.default_rng(grid_n)
        k = 12
        a = rng.uniform(0.0, 1.0, k)
        a[::4] = xs[rng.integers(0, grid_n, 3)]
        c = rng.uniform(0.0, 1.0, k)
        s = rng.uniform(0.01, 0.1, k) * rng.choice([-1.0, 1.0], k)

        def h(x, rows):
            return x - s[rows] * (x - c[rows]) * (x - c[rows]) * (x - a[rows])

        def dfun(x, rows):
            return x - h(x, rows)

        d = xs - h(xs, np.arange(k)[:, None])
        cells = _root_cells(xs, d)
        got = _fixed_points_lanes(dfun, k, xs, *cells)
        for j in range(k):
            want = fixed_points_of(lambda x: h(x, j), 1.0, grid_n)
            assert [v.hex() for v in got[j]] == [v.hex() for v in want], j
        # a sign-change cell carries d at both of its ends, of strictly
        # opposite signs, which the Brent lanes start from
        rows, cols, d_lo, d_hi = cells[1]
        assert d_lo.tolist() == d[rows, cols].tolist()
        assert d_hi.tolist() == d[rows, cols + 1].tolist()
        assert np.all(d_lo * d_hi < 0.0)
        # each kind of root is there to be found, but the 11-point grid
        # resolves no grazing root
        zeros, changes, grazing = (part[0].size for part in cells)
        assert zeros and changes and (grazing or grid_n == 11)

    @pytest.mark.parametrize("x_max, grid_n", [(1.0, ANALYSIS_GRID_N), (0.75, 1234)])
    def test_shared_grid_is_a_read_only_linspace(self, x_max, grid_n):
        xs = _analysis_grid(x_max, grid_n)
        assert xs.tobytes() == np.linspace(0.0, x_max, grid_n).tobytes()
        assert _analysis_grid(x_max, grid_n) is xs
        with pytest.raises(ValueError):
            xs[1] = 0.5
        assert xs[1] == x_max / (grid_n - 1)

    def test_potential_and_fixed_point_scans_share_the_grid(self):
        s = example1_system()
        seen = []

        def on_grid(fn):
            def wrapped(x):
                if np.ndim(x) and len(x) == ANALYSIS_GRID_N:
                    seen.append(x)
                return fn(x)
            return wrapped

        minimize_potential(on_grid(lambda x: U_s(s, x)), on_grid(s.h), s.x_max, s.y_max)
        assert len(seen) == 2
        assert all(x is _analysis_grid(s.x_max, ANALYSIS_GRID_N) for x in seen)


def test_make_system_rejects_decreasing_g():
    with pytest.raises(ConstructionError):
        make_system(f=lambda y: y, g=lambda x: -x + 1.0, x_max=1.0)


@pytest.mark.parametrize("kwargs, match", [
    (dict(f=lambda y: y, g=lambda x: 1.0 * x, x_max=0.0), None),
    (dict(f=lambda y: np.where(y > 0.5, np.nan, y), g=lambda x: 1.0 * x, x_max=1.0,
          F=lambda y: 0.5 * y * y, G=lambda x: 0.5 * x * x), None),
    # a map must return its argument's shape; only partials may be floats
    (dict(f=lambda y: 0.5, g=lambda x: 1.0 * x, x_max=1.0,
          F=lambda y: 0.5 * y, G=lambda x: 0.5 * x * x), "f returns shape"),
    (dict(f=lambda y: y, g=lambda x: 1.0, x_max=1.0,
          F=lambda y: 0.5 * y * y, G=lambda x: 1.0 * x), "g returns shape"),
], ids=["zero-width", "nan-f", "constant-f", "constant-g"])
def test_make_system_fails_closed(kwargs, match):
    with pytest.raises(ConstructionError, match=match):
        make_system(**kwargs)


def test_validate_system_checks_y_max():
    # y_max must be g(x_max), which make_system sets and a replaced field
    # need not keep
    bad = dataclasses.replace(example1_system(), y_max=1.5)
    with pytest.raises(ConstructionError, match=r"^system ldpc@eps=0\.97: y_max != g\(x_max\)$"):
        validate_system(bad)


def test_make_system_fd_and_quadrature_fallbacks():
    ref = example1_system()
    bare = make_system(f=ref.f, g=ref.g, x_max=1.0)
    xs = np.linspace(0.0, 1.0, 9)
    assert np.max(np.abs(np.asarray(bare.F(xs)) - np.asarray(ref.F(xs)))) <= 1e-9
    assert np.max(np.abs(np.asarray(bare.G(xs)) - np.asarray(ref.G(xs)))) <= 1e-9
    mid = xs[1:-1]
    assert np.max(np.abs(np.asarray(bare.f_prime(mid)) - np.asarray(ref.f_prime(mid)))) <= 1e-6
    assert np.max(np.abs(np.asarray(bare.g_prime(mid)) - np.asarray(ref.g_prime(mid)))) <= 1e-6


class TestClamp:
    def test_in_range_comes_back_unchanged(self):
        v = np.linspace(0.0, 1.0, 7).reshape(7, 1)
        assert _clamp(v, 0.0, 1.0).tobytes() == v.tobytes()

    def test_slack_is_clipped_to_the_bounds(self):
        out = _clamp(np.array([-5e-10, 0.5, 1.0 + 5e-10]), 0.0, 1.0)
        assert out.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("bad", [1.0 + 2e-9, -2e-9])
    def test_beyond_slack_raises(self, bad):
        with pytest.raises(DomainError, match=r"^x escapes \[0\.0, 1\.0\] by 2\.000e-09$"):
            _clamp(np.array([0.5, bad]), 0.0, 1.0, "x")

    def test_nan_passes_and_the_rest_is_clipped(self):
        out = _clamp(np.array([np.nan, 1.0 + 1e-12, 0.25]), 0.0, 1.0)
        assert np.isnan(out[0]) and out[1:].tolist() == [1.0, 0.25]

    @pytest.mark.parametrize("v,expected", [(0.25, 0.25), (np.float64(1.0 + 1e-12), 1.0),
                                            (np.array(-1e-12), 0.0), (-1e-12, 0.0),
                                            (1.0 + 5e-10, 1.0), (-0.0, -0.0)])
    def test_scalar_returns_float(self, v, expected):
        out = _clamp(v, 0.0, 1.0)
        assert type(out) is float and out == expected
        assert math.copysign(1.0, out) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("bad", [1.0 + 2e-9, -2e-9, np.float64(-2e-9), np.array(1.0 + 2e-9)])
    def test_scalar_beyond_slack_raises(self, bad):
        with pytest.raises(DomainError, match=r"^x escapes \[0\.0, 1\.0\] by 2\.000e-09$"):
            _clamp(bad, 0.0, 1.0, "x")

    @pytest.mark.parametrize("v", [math.nan, np.float64(math.nan), np.array(math.nan)])
    def test_scalar_nan_passes(self, v):
        out = _clamp(v, 0.0, 1.0)
        assert type(out) is float and math.isnan(out)

    def test_array_keeps_shape_and_empty_passes(self):
        v = np.array([[0.5, 1.0 + 1e-12], [-1e-12, 0.25]])
        assert _clamp(v, 0.0, 1.0).tolist() == [[0.5, 1.0], [0.0, 0.25]]
        empty = np.empty((0, 3))
        assert _clamp(empty, 0.0, 1.0).shape == (0, 3)


class TestTabulatedAntiderivative:
    """F of a cs system has no closed form unless asked for; make_system
    tabulates it once per system."""

    @pytest.fixture(scope="class")
    def two_point(self):
        return cs_system(CsParams(TwoPointPrior(1.0, 0.1), 1e-4, 0.44))

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-3])
    def test_two_point_matches_tight_simpson(self, sigma2):
        s = cs_system(CsParams(TwoPointPrior(1.0, 0.1), sigma2, 0.44))
        # f is flat near 0 and changes within the last few percent of [0, y_max]
        ys = s.y_max * np.array([0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0])
        pieces = [quad(s.f, a, b, epsabs=1e-13, epsrel=1e-13)[0] for a, b in zip(ys[:-1], ys[1:])]
        ref = np.concatenate(([0.0], np.cumsum(pieces)))
        assert np.max(np.abs(s.F(ys) - ref)) <= 1e-10

    def test_gaussian_matches_closed_form(self):
        params = CsParams(GaussianPrior(1.0), 0.25, 0.5)
        table, closed = cs_system(params), cs_system(params, use_closed_form_F=True)
        ys = np.linspace(0.0, table.y_max, 25)
        assert np.max(np.abs(table.F(ys) - closed.F(ys))) <= 1e-12

    def test_scalar_and_shape(self, two_point):
        y = 0.5 * two_point.y_max
        assert type(two_point.F(y)) is float
        grid = np.linspace(0.0, two_point.y_max, 12).reshape(3, 4)
        out = two_point.F(grid)
        assert out.shape == (3, 4)
        assert out[1, 2] == two_point.F(float(grid[1, 2]))

    def test_zero_at_origin(self, two_point):
        assert two_point.F(0.0) == 0.0

    def test_outside_domain_raises(self, two_point):
        with pytest.raises(DomainError):
            two_point.F(two_point.y_max + 1e-6)
        with pytest.raises(DomainError):
            two_point.F(np.array([0.0, -1e-6]))
        # rounding slack at the ends is clamped, not rejected
        assert two_point.F(two_point.y_max + 1e-12) == two_point.F(two_point.y_max)

    def test_second_query_evaluates_nothing(self, two_point):
        seen = [0]

        def f(y):
            seen[0] += np.size(y)
            return two_point.f(y)

        s = make_system(f=f, g=two_point.g, x_max=two_point.x_max,
                        g_prime=two_point.g_prime, G=two_point.G)
        ys = np.linspace(0.0, s.y_max, 10**4)
        s.F(ys)
        built = seen[0]
        s.F(ys)
        assert seen[0] == built

    @pytest.mark.parametrize("f", [lambda y: np.where(y > 0.5, np.nan, y),
                                   lambda y: 1e-6 * np.sin(1e7 * y)],
                             ids=["not-finite", "unresolved"])
    def test_unusable_integrand_raises(self, f):
        s = make_system(f=f, g=lambda x: 1.0 * x, x_max=1.0, G=lambda x: 0.5 * x * x,
                        validate=False)
        with pytest.raises(NumericError):
            s.F(0.25)

    # A scalar read (a float, a numpy scalar or a 0-d array) runs in
    # Python floats and gives the bits of the same y inside an array.
    @pytest.fixture(scope="class")
    def tabulated_reads(self):
        """(label, antiderivative, integrand, upper end) of tabulated F and G:
        cs-gaussian, cs-two-point, and a system with both F and G tabulated.
        Each table is built before a test reads it."""
        gauss = cs_system(CsParams(GaussianPrior(1.0), 0.3377, 0.4419))
        two_point = cs_system(CsParams(TwoPointPrior(1.0, 0.1), 1e-4, 0.44))
        both = make_system(f=gauss.f, g=gauss.g, x_max=gauss.x_max, g_prime=gauss.g_prime)
        reads = [("cs-gaussian F", gauss.F, gauss.f, gauss.y_max),
                 ("cs-two-point F", two_point.F, two_point.f, two_point.y_max),
                 ("tabulated F", both.F, both.f, both.y_max),
                 ("tabulated G", both.G, both.g, both.x_max)]
        for _, anti, _, hi in reads:
            anti(np.array([0.0, hi]))
        return reads

    @pytest.mark.parametrize("i", range(4))
    def test_scalar_reads_equal_array_entries(self, tabulated_reads, i):
        label, anti, fn, hi = tabulated_reads[i]
        edges = _chebyshev_table(fn, 0.0, hi)[0]
        ys = np.concatenate((np.linspace(0.0, hi, 2001), edges, [0.0, hi]))
        want = [v.hex() for v in anti(ys).tolist()]
        for kind in (float, np.float64, np.array):
            got = [anti(kind(y)) for y in ys.tolist()]
            assert all(type(v) is float for v in got), (label, kind)
            assert [v.hex() for v in got] == want, (label, kind)

    def test_float_reads_skip_the_array_kernel(self, tabulated_reads, monkeypatch):
        def refuse(*args):
            raise AssertionError("_clenshaw called")

        monkeypatch.setattr(recursion, "_clenshaw", refuse)
        for label, anti, _, hi in tabulated_reads:
            assert type(anti(0.5 * hi)) is float, label
            with pytest.raises(AssertionError, match="_clenshaw called"):
                anti(np.array([0.5 * hi]))

    @pytest.mark.parametrize("kind", [float, np.float64, np.array])
    def test_domain_clamp_and_nan(self, tabulated_reads, kind):
        for _, anti, _, hi in tabulated_reads:
            for bad in (hi + 2 * _CLAMP_TOL, -2 * _CLAMP_TOL):
                with pytest.raises(DomainError):
                    anti(kind(bad))
            assert anti(kind(hi + 0.5 * _CLAMP_TOL)) == anti(hi)
            assert anti(kind(-0.5 * _CLAMP_TOL)) == anti(0.0) == 0.0
            out = anti(kind(math.nan))
            assert type(out) is float and math.isnan(out)


class TestTabulatedIntegral:
    """The one quadrature of the package: a single piecewise-Chebyshev
    table over [lo, hi]."""

    def test_exact_on_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = Polynomial(tuple(rng.normal(size=9)))
            anti = p.antiderivative()
            a, b = sorted(rng.uniform(-1, 1, 2))
            assert abs(tabulated_integral(p, a, b) - (anti(b) - anti(a))) <= 1e-14

    def test_smooth_integrands(self):
        assert abs(tabulated_integral(np.exp, 0.0, 3.0) - (math.e**3 - 1)) <= 1e-11
        runge = tabulated_integral(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0)
        assert abs(runge - 0.4 * math.atan(5.0)) <= 1e-11
        # the square root's infinite slope at 0 makes the table refine there
        assert abs(tabulated_integral(np.sqrt, 0.0, 1.0) - 2.0 / 3.0) <= 1e-11

    def test_empty_interval(self):
        assert tabulated_integral(np.exp, 2.0, 2.0) == 0.0

    def test_reversed_ends_raise(self):
        # the integral over [1, 0] is -(e - 1); one table over a reversed
        # bracket would integrate something else
        with pytest.raises(DomainError, match="finite lo <= hi"):
            tabulated_integral(np.exp, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                        (-math.inf, 0.0)])
    def test_non_finite_ends_raise(self, lo, hi):
        with pytest.raises(DomainError, match="finite lo <= hi"):
            tabulated_integral(np.exp, lo, hi)

    def test_unresolved_integrand_raises(self):
        with pytest.raises(NumericError):
            tabulated_integral(lambda x: 1e-6 * np.sin(1e7 * x), 0.0, 1.0)
