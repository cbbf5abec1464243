"""Spherical Bessel evaluator and zero tables: exact l=0 seeds, the
tan x = x root, interlacing, residuals through the public evaluator, an
mpmath oracle and the table shapes of the former level-by-level solver."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cavityrad import (
    BesselZeroError,
    BesselZeroTable,
    ResourceLimitError,
    build_bessel_zero_table,
    spherical_bessel_zeros,
    spherical_jl,
)
from cavityrad.bessel import MAX_BESSEL_ZEROS

# frozen root of x*cos(x) = sin(x), cross-checked by the bisection oracle below
FIRST_J1_ZERO = 4.493409457909064

# x_max of the 0.2 mm sphere up to 1e15 rad/s (figure 4): 1e15 * 1e-4 / c
X_SPHERE = 333.5640951981521


def bisect_j1_zero(lo=4.0, hi=5.0):
    """Independent bisection on x*cos(x) - sin(x)."""
    f = lambda x: x * math.cos(x) - math.sin(x)
    assert f(lo) * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_j0_zeros_are_exact_multiples_of_pi():
    z = spherical_bessel_zeros(0, 10.0)
    assert np.array_equal(z, np.array([1.0, 2.0, 3.0]) * math.pi)


def test_first_j1_zero_against_bisection_oracle():
    oracle = bisect_j1_zero()
    assert oracle == pytest.approx(FIRST_J1_ZERO, abs=1e-12)
    z = spherical_bessel_zeros(1, 10.0)
    assert z[0] == pytest.approx(FIRST_J1_ZERO, abs=1e-10)


def test_empty_when_no_zero_below_cutoff():
    assert spherical_bessel_zeros(0, 1.0).size == 0
    assert spherical_bessel_zeros(5, 8.0).size == 0


def test_table_interlacing():
    table = build_bessel_zero_table(60.0)
    assert isinstance(table, BesselZeroTable)
    for l in range(table.max_order):
        a, b = table.zeros(l), table.zeros(l + 1)
        m = min(len(a) - 1, len(b))
        assert np.all(b[:m] > a[:m])
        assert np.all(b[:m] < a[1 : m + 1])


def test_table_residuals_under_downward_recurrence_evaluator():
    table = build_bessel_zero_table(60.0)
    for l in range(table.max_order + 1):
        z = table.zeros(l)
        if z.size:
            assert np.max(np.abs(spherical_jl(l, z))) < 1e-10


def test_zero_counts_match_weyl_style_growth():
    # number of zeros of j_l below x is close to (x - l*pi/2)/pi for x >> l
    table = build_bessel_zero_table(120.0)
    for l in (0, 5, 10):
        expect = (120.0 - l * math.pi / 2) / math.pi
        assert abs(len(table.zeros(l)) - expect) <= 2.0


def test_strictly_increasing_within_level():
    # gaps approach pi from above at large x; allow float noise at the limit
    table = build_bessel_zero_table(80.0)
    for l in range(table.max_order + 1):
        z = table.zeros(l)
        assert np.all(np.diff(z) > math.pi * (1.0 - 1e-12))


def test_jl_closed_forms():
    x = np.linspace(0.0, 40.0, 4001)
    assert spherical_jl(0, 0.0) == 1.0
    assert spherical_jl(1, 0.0) == 0.0
    assert spherical_jl(7, 0.0) == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        ref0 = np.where(x > 0, np.sin(x) / np.where(x > 0, x, 1.0), 1.0)
    assert np.allclose(spherical_jl(0, x), ref0, atol=1e-15)
    # recurrence identity j_{l+1} = (2l+1)/x j_l - j_{l-1} on the grid interior
    xi = x[x > 1.0]
    for l in (1, 3, 8, 15):
        lhs = spherical_jl(l + 1, xi)
        rhs = (2 * l + 1) / xi * spherical_jl(l, xi) - spherical_jl(l - 1, xi)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_jl_small_argument_series():
    # j_l(x) ~ x^l / (2l+1)!! for x -> 0
    for l, dfact in ((2, 15.0), (3, 105.0), (4, 945.0)):
        x = np.array([1e-4, 3e-4, 1e-3])
        assert np.allclose(spherical_jl(l, x), x**l / dfact, rtol=1e-6)


# below 1e-8 spherical_jl uses the small-argument series: the recurrence
# overflowed below about 1e-55 and returned 0.0 (or a warning) there
TINY_X = np.concatenate(([5e-324, 1e-323, 1e-310, 2.2250738585072014e-308],
                         np.geomspace(1e-320, 1e-8, 300)))


@pytest.mark.parametrize("l", [2, 3, 5, 10, 50])
def test_jl_at_tiny_x_against_mpmath(l):
    mpmath = pytest.importorskip("mpmath")
    got = spherical_jl(l, TINY_X)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(x)))
                              * mpmath.besselj(l + 0.5, mpmath.mpf(x))) for x in TINY_X])
    normal = ref >= 2.2250738585072014e-308
    assert np.all(np.abs(got - ref)[normal] <= 1e-13 * ref[normal])
    assert np.all(np.abs(got - ref)[~normal] <= 1e-323)
    for i in range(3):  # scalar calls; 1/x overflows at 5e-324
        assert spherical_jl(l, float(TINY_X[i])) == got[i]


# j_1's small-x series, were it evaluated at every point, overflows from
# ~1e100, and its closed form's x^2 from ~1.3e154; neither may warn
HUGE_X = [1e100, 1e150, 1.3e154, 1e160, 1e300, 1.7e308, 1.7976931348623157e308]


def test_j1_at_huge_x_emits_no_warning():
    mpmath = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spherical_jl(1, np.array(HUGE_X))
        scalar = [spherical_jl(1, x) for x in HUGE_X]
    assert got.tolist() == scalar
    with mpmath.workdps(30):
        ref = [float(mpmath.sin(x) / x**2 - mpmath.cos(x) / x) for x in map(mpmath.mpf, HUGE_X)]
    assert np.allclose(got, ref, rtol=1e-15, atol=0.0)


def test_jl_series_and_recurrence_points_in_one_call():
    # the recurrence points get the values of a call on them alone, the
    # series points those of a call on each alone
    x = np.array([1e-60, 2.0, 1e-8, 9.99e-9, 0.0, 40.0, 1e-100])
    series = (x > 0.0) & (x < 1e-8)
    for l in (2, 3, 7):
        got = spherical_jl(l, x)
        assert np.array_equal(got[~series], spherical_jl(l, x[~series]))
        assert np.array_equal(got[series], [spherical_jl(l, v) for v in x[series]])
    assert spherical_jl(2, 1e-60) == pytest.approx(6.666666666666666e-122, rel=1e-15)
    assert spherical_jl(3, 1e-100) == pytest.approx(9.523809523809524e-303, rel=1e-15)
    assert spherical_jl(10**9, 1e-10) == 0.0  # the series takes no recurrence steps


def test_jl_against_upward_recurrence_in_oscillatory_zone():
    from cavityrad.bessel import _jl_pair

    rng = np.random.default_rng(3)
    orders = (2, 5, 17, 40)
    xs = [rng.uniform(l + 2.0, l + 50.0, size=50) for l in orders]
    # one batched call over every order, as the zero solver makes it
    below, up = _jl_pair(np.repeat(orders, 50), np.concatenate(xs))
    for i, (l, x) in enumerate(zip(orders, xs)):
        part = slice(50 * i, 50 * (i + 1))
        assert np.allclose(up[part], spherical_jl(l, x), atol=2e-16, rtol=5e-12)
        assert np.allclose(below[part], spherical_jl(l - 1, x), atol=2e-16, rtol=5e-12)


def test_zeros_against_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    table = build_bessel_zero_table(X_SPHERE)
    # n = 1 sits just past the turning point x ~ l; large n lie deep in the
    # oscillatory zone
    for l, n in [(1, 1), (10, 1), (100, 1), (320, 1), (50, 7), (150, 20),
                 (1, 105), (20, 90), (100, 40)]:
        ref = float(mpmath.besseljzero(l + 0.5, n))
        assert table.zeros(l)[n - 1] == pytest.approx(ref, rel=1e-13, abs=0), (l, n)


@pytest.mark.parametrize("x_max, max_order, count", [
    (83.39102379953802, 74, 849),
    (X_SPHERE, 320, 13827),
    (400.0, 385, 19899),
])
def test_table_shape_pinned(x_max, max_order, count):
    # shapes measured on the former level-by-level interlacing chain
    table = build_bessel_zero_table(x_max)
    assert table.max_order == max_order
    assert sum(z.size for z in table.zeros_by_l) == count
    assert build_bessel_zero_table(x_max, max_order=max_order + 5).max_order == max_order


@pytest.mark.parametrize("x_max", [83.39102379953802, X_SPHERE])
def test_zero_counts_against_sign_changes(x_max):
    # independent completeness: the sign changes of the downward-recurrence
    # evaluator on a grid finer than the zero spacing (> pi), every level
    table = build_bessel_zero_table(x_max)
    for l in range(table.max_order + 2):
        grid = np.append(np.arange(l + 0.5, x_max, 1.0), x_max)
        f = spherical_jl(l, grid)
        changes = int(np.count_nonzero(f[:-1] * f[1:] < 0))
        assert changes == (table.zeros(l).size if l <= table.max_order else 0), l


def test_newton_converges_in_few_sweeps():
    from cavityrad.bessel import _newton, _olver_guess

    # n = 1 just past the turning point is the hardest guess, and near
    # l ~ 2000 the recurrence's rounding floor (~1e-15) must not stall Newton
    l = np.array([1, 10, 320, 1944, 3000])
    x = _olver_guess(l, np.ones_like(l))
    assert _newton(l, x) <= 4
    for order, root in zip(l, x):
        order = int(order)
        f = spherical_jl(order, root)
        slope = spherical_jl(order - 1, root) - (order + 1) / root * f
        assert abs(f / slope) < 1e-13 * root, order


def test_open_ended_sentinel_identified_by_distance_and_sign():
    from cavityrad.bessel import _check_interlacing

    # levels 0 and 1 up to x_max = 5, two zeros each: the sentinel of level 1
    # (n = 2) needs x_{3,0}, which is not solved, as its upper end
    j1 = [4.493409457909064, 7.725251836937707, 10.904121659428899, 14.066193912831473]
    counts, offsets = np.array([2, 2]), np.array([0, 2])
    l, n = np.array([1, 1]), np.array([1, 2])

    def check(sentinel):
        x = np.array([j1[0], sentinel])
        roots = np.concatenate(([math.pi, 2.0 * math.pi], x))
        _check_interlacing(l, n, x, roots, offsets, counts, 5.0)

    check(j1[1])
    for wrong in j1[2:]:  # the next zero: wrong sign; the one after: too far
        with pytest.raises(BesselZeroError, match="interlacing"):
            check(wrong)


def test_interlacing_failure_raises_and_exits_4(monkeypatch, capsys):
    from cavityrad import bessel, cli

    guess = bessel._olver_guess
    # every estimate one zero spacing too high: each root lands on the next zero
    monkeypatch.setattr(bessel, "_olver_guess", lambda l, n: guess(l, n + 1))
    with pytest.raises(BesselZeroError, match="interlacing"):
        build_bessel_zero_table(60.0)
    code = cli.main(["modes", "--geometry", "sphere", "--diameter", "1e-5",
                     "--temperature", "300", "--omega-max", "1e15"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1


def test_olver_guess_and_estimates_run_once_per_table(monkeypatch):
    from cavityrad import bessel

    # the level estimates and the Olver guesses of a table are each formed once
    calls = []
    for name in ("_olver_guess", "_level_estimates"):
        def counted(*args, _f=getattr(bessel, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(bessel, name, counted)
    for x_max, max_order in ((60.0, None), (X_SPHERE, None), (1e4, 3)):
        calls.clear()
        build_bessel_zero_table(x_max, max_order)
        assert sorted(calls) == ["_level_estimates", "_olver_guess"], (x_max, max_order)


@pytest.mark.parametrize("x_max", [60.0, X_SPHERE])
def test_estimates_up_to_two_short_leave_the_table_unchanged(monkeypatch, x_max):
    from cavityrad import bessel

    # the one guess past each estimate keeps a level's sentinel while the
    # estimate is at most 2 short; 3 short leaves a level without one
    estimates = bessel._level_estimates
    reference = build_bessel_zero_table(x_max).zeros_by_l
    for short in (1, 2, 3):
        def lowered(limit, top, _short=short):
            levels, est = estimates(limit, top)
            return levels, np.maximum(est - _short, 0)
        monkeypatch.setattr(bessel, "_level_estimates", lowered)
        if short == 3:
            with pytest.raises(BesselZeroError, match="sentinel"):
                build_bessel_zero_table(x_max)
            continue
        table = build_bessel_zero_table(x_max).zeros_by_l
        assert len(table) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(table, reference)), short


def test_orders_are_nonnegative_integers_everywhere():
    table = build_bessel_zero_table(20.0)
    for bad in (-1, 1.5, float("nan"), True, "2"):
        with pytest.raises(ValueError, match="^max_order must be a nonnegative integer$"):
            build_bessel_zero_table(20.0, max_order=bad)
        for call in (lambda: table.zeros(bad), lambda: spherical_jl(bad, 1.0),
                     lambda: spherical_bessel_zeros(bad, 20.0)):
            with pytest.raises(ValueError, match="^l must be a nonnegative integer$"):
                call()
    with pytest.raises(ValueError, match="^max_order must be"):
        build_bessel_zero_table(1.0, max_order=-1)  # no zero below pi: still checked
    for beyond in (table.max_order + 1, 99):
        with pytest.raises(ValueError, match="at most max_order = %d" % table.max_order):
            table.zeros(beyond)
    assert table.zeros(np.int64(table.max_order)) is table.zeros_by_l[-1]
    assert build_bessel_zero_table(20.0, max_order=np.uint8(2)).max_order == 2


def test_invalid_inputs():
    with pytest.raises(ValueError):
        spherical_jl(-1, 1.0)
    with pytest.raises(ValueError):
        spherical_jl(2, -0.5)
    with pytest.raises(ValueError):
        spherical_bessel_zeros(2, 0.0)


def test_zero_tables_over_cap_refused_before_allocation():
    import tracemalloc

    # 3.2e12 zeros of j_0 alone and ~1.25e13 over all levels: 23 and 91 TiB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="Bessel zeros"):
            spherical_bessel_zeros(0, 1e13)
        with pytest.raises(ResourceLimitError, match="Bessel zeros"):
            build_bessel_zero_table(1e7)
        # 3.2e7 and 6.4e7 candidates, under the former cap of 2e8: j_1 to 1e8
        # took 23 s and 3.46 GB there
        for l in (0, 1):
            with pytest.raises(ResourceLimitError, match="Bessel zeros") as err:
                spherical_bessel_zeros(l, 1e8)
            assert MAX_BESSEL_ZEROS < err.value.required < 2 * 10**8
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert spherical_bessel_zeros(0, 1e6).size == 318309  # max_order 0: level 0 alone counts


def test_zero_tables_past_the_sweep_cap_refused_before_allocation():
    import tracemalloc

    from cavityrad.bessel import MAX_SWEEP_STEPS

    # x_max = 8,000 (a 1 mm sphere to 4.8e15 rad/s) passes the zero cap, but
    # its table would take ~120 s and ~0.8 GB; the sweep cap is near 3,040
    tracemalloc.start()
    try:
        for x_max in (3050.0, 8000.0):
            with pytest.raises(ResourceLimitError, match="recurrence steps per sweep") as err:
                build_bessel_zero_table(x_max)
            # the sum of l over the candidates, ~x_max^3/(9 pi)
            assert MAX_SWEEP_STEPS < err.value.required < 1.05 * x_max**3 / (9.0 * math.pi)
        # from x_max ~ 8,930 a full table meets the zero cap first: ~x_max^2/8 candidates
        with pytest.raises(ResourceLimitError, match="Bessel zeros") as err:
            build_bessel_zero_table(28000.0)
        assert MAX_BESSEL_ZEROS < err.value.required < 1.01 * 28000.0**2 / 8.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6  # arrays of 28,001 levels; 1e8 zeros would take GBs
    # a few levels far past x_max = 3,050 sweep few steps, and are solved
    assert spherical_bessel_zeros(3, 3050.0).size == 969  # (n + 3/2) pi <= 3,050


def test_jl_recurrence_over_cap_refused_at_once():
    # the downward recurrence starts above max(l, x): unbounded calls must not start
    script = (
        "from cavityrad import ResourceLimitError, spherical_jl\n"
        "for l, x in ((2, 1e300), (10**9, 1.0)):\n"
        "    try:\n"
        "        spherical_jl(l, x)\n"
        "    except ResourceLimitError as exc:\n"
        "        print(exc)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       timeout=10)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 2 and all("recurrence steps" in line for line in lines)


def test_jl_order_beyond_the_float_range_refused():
    from cavityrad.bessel import MAX_RECURRENCE_STEPS

    # the order is compared with the cap as an int, before any float conversion
    with pytest.raises(ResourceLimitError, match="recurrence steps"):
        spherical_jl(10**400, 1.0)
    with pytest.raises(ResourceLimitError, match="needs 2000001 recurrence steps"):
        spherical_jl(MAX_RECURRENCE_STEPS + 1, 1.0)
    assert spherical_jl(10**400, 0.0) == 0.0  # j_l(0) = 0 needs no recurrence
