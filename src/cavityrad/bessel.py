"""Spherical Bessel functions j_l and tables of their positive zeros.

The zero table drives the sphere eigenfrequency enumeration: the scalar
Dirichlet eigenvalues of a ball of radius R are c*x/R over all zeros x of
j_l, each with the (2l+1) spherical-harmonic degeneracy.

Every zero of every level is solved in one batch. Level 0 is exact: j_0 =
sin(x)/x vanishes at n*pi. For l >= 1 each candidate zero starts from Olver's
uniform asymptotic estimate of j_{l+1/2,n} (DLMF 10.21.43, with the Airy
zeros of DLMF 9.9.6), and all candidates are polished together by a
safeguarded Newton iteration whose every sweep is one upward recurrence over
all points, sorted by l. A level's candidates are the n whose estimate lies
below x_max (plus a small margin) and one sentinel beyond.

Completeness is then checked, not assumed. Zeros of neighbouring levels
interlace, x_{n,l-1} < x_{n,l} < x_{n+1,l-1}, and each interval holds exactly
one zero of j_l, so a level-l root strictly inside its interval is the n-th
zero and no zero was skipped. A sentinel whose interval would end beyond the
solved zeros of level l-1 is placed in it by its distance from x_{n,l-1}
and the sign of j_{l-1}. Every level must end in a sentinel above x_max. A
failed check raises BesselZeroError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BesselZeroError, ResourceLimitError
from .geometry import _Record
from .validate import finite_real

__all__ = ["spherical_jl", "spherical_bessel_zeros", "build_bessel_zero_table",
           "BesselZeroTable", "MAX_BESSEL_ZEROS", "MAX_RECURRENCE_STEPS"]

#: cap on the candidate zeros of one table, counted in floats before any
#: array exists; more raises ResourceLimitError. Twice the default estimate
#: cap of enumerate_sphere_modes, so a sphere meets its own cap first. A
#: table's tracemalloc peak is 52-104 B per counted candidate (max_order 1
#: and 5 at x_max = 1e6, the full table at x_max = 1,500), so a call at the
#: cap needs ~10-21 GB.
MAX_BESSEL_ZEROS = 2 * 10**8

#: cap on the steps of one downward recurrence in spherical_jl, which starts
#: above max(l, x); more raises ResourceLimitError. On a 2-vCPU Xeon VM j_3
#: takes 5-8 s at x = 1e6 (~10**6 steps) and ~13 s just below the cap.
MAX_RECURRENCE_STEPS = 2 * 10**6

#: cap on the recurrence steps of one Newton sweep over a zero table, the sum
#: of l over the candidate zeros of every level l (~x_max^3/(9 pi)), counted
#: before any array of zeros exists; more raises ResourceLimitError. The cap
#: is x_max ~ 3,040, where a table takes ~4 s and ~0.14 GB peak RSS on a 2-vCPU
#: Xeon VM (x_max = 8,000 would take ~120 s and ~0.83 GB).
MAX_SWEEP_STEPS = 10**9

_RESCALE = 1e250

#: below this x, j_l for l >= 2 is the small-argument series: the recurrence
#: multiplies by (2n+1)/x at each step and overflows below about x = 1e-55
_SERIES_X = 1e-8

#: candidates are the zeros whose estimate is below x_max + _GUESS_MARGIN;
#: the estimates are good to ~1e-2, so the sentinel beyond lies above x_max
_GUESS_MARGIN = 0.25

#: longest Newton step, well under the zero spacing (always more than pi)
_MAX_STEP = 0.5

#: a point whose Newton step falls below this (relative) is converged: the
#: error left is at most (l/x) * (1e-11 * x)^2, under one ulp for x < 1e5
_STEP_TOL = 1e-11

#: Newton sweeps before giving up; the guesses converge in three or four
_MAX_SWEEPS = 20


def _j0(x):
    return np.sinc(x / np.pi)


def _j1(x):
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.25
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):  # past ~1.3e154 sin(xs)/xs^2 is 0; the series is unused
        closed = np.sin(xs) / xs**2 - np.cos(xs) / xs
        series = x / 3.0 * (1.0 - x**2 / 10.0 * (1.0 - x**2 / 28.0 * (1.0 - x**2 / 54.0)))
    return np.where(small, series, closed)


def _order(l, name="l"):
    """l as an int; ValueError unless it is a nonnegative integer."""
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 0:
        raise ValueError(name + " must be a nonnegative integer")
    return int(l)


def spherical_jl(l, x):
    """Spherical Bessel function j_l(x) for x >= 0, vectorized over x.

    Closed forms for l <= 1; for l >= 2 a downward (Miller) recurrence
    normalized against j_0 or j_1, whichever is better conditioned at each
    point. Downward recurrence is stable on both sides of the turning point,
    unlike the upward direction which fails for x < l. It takes about
    max(l, x) steps; more than MAX_RECURRENCE_STEPS raise ResourceLimitError.
    Below x = 1e-8 the small-argument series x^l/(2l+1)!! is used instead,
    with no recurrence and so no step cap.
    """
    l = _order(l)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValueError("x must be finite and >= 0")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if l == 0:
        out = _j0(x)
    elif l == 1:
        out = _j1(x)
    else:
        out = _miller(l, x)
    return float(out[0]) if scalar else out


def _series(l, x):
    """j_l(x) = x^l/(2l+1)!! (1 - x^2/(2(2l+3)) + ...) for 0 < x < _SERIES_X.

    The x^2 term is below 1e-17 relative there, under half an ulp, so the
    leading term is j_l to rounding. It is formed one factor x/(2k+1) at a
    time, so neither x^l nor (2l+1)!! leaves the float range; each factor is
    below 1e-8, so the product reaches 0 within ~40 factors and stops there.
    """
    out = np.ones_like(x)
    for k in range(1, l + 1):
        out *= x / (2 * k + 1)
        if not out.any():
            break
    return out


def _miller(l, x):
    out = np.zeros_like(x)
    tiny = (x > 0.0) & (x < _SERIES_X)
    out[tiny] = _series(l, x[tiny])
    pos = x >= _SERIES_X
    xp = x[pos]
    if xp.size:
        if l > MAX_RECURRENCE_STEPS:  # checked as an int: past the float range, m ** (1/3) overflows
            raise ResourceLimitError(l, MAX_RECURRENCE_STEPS, "recurrence steps")
        m = max(l, int(math.ceil(float(xp.max()))))
        n_start = m + int(math.ceil(12.0 * m ** (1.0 / 3.0))) + 16
        if n_start > MAX_RECURRENCE_STEPS:
            raise ResourceLimitError(n_start, MAX_RECURRENCE_STEPS, "recurrence steps")
        jp = np.zeros_like(xp)
        jc = np.full_like(xp, 1e-30)
        out_l = np.zeros_like(xp)
        j1u = np.zeros_like(xp)
        inv = 1.0 / xp
        for n in range(n_start, 0, -1):
            jm = (2 * n + 1) * inv * jc - jp
            jp, jc = jc, jm
            if n - 1 == l:
                out_l = jc.copy()
            if n - 1 == 1:
                j1u = jc.copy()
            big = np.abs(jc) > _RESCALE
            if big.any():
                f = np.where(big, 1.0 / _RESCALE, 1.0)
                jp *= f
                jc *= f
                out_l *= f
                j1u *= f
        j0u = jc  # unnormalized j_0
        t0, t1 = _j0(xp), _j1(xp)
        use0 = np.abs(j0u) >= np.abs(j1u)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(use0, t0 / j0u, t1 / j1u)
        val = out_l * scale
        out[pos] = np.where(np.isfinite(val), val, 0.0)
    # j_l(0) = 0 for every l >= 1
    return out


def _jl_pair(l, x):
    """(j_{l-1}, j_l) at every point by one upward recurrence over all of them.

    l holds orders >= 1 in ascending order and x the arguments, x > l (the
    oscillatory zone, where the upward direction is stable). Step k advances
    only the suffix of points with l >= k + 1, so the cost is sum(l) and no
    points-by-orders buffer is allocated.
    """
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    jm = np.sin(x) * inv
    jc = (jm - np.cos(x)) * inv
    suffix = np.searchsorted(l, np.arange(2, int(l[-1]) + 1)) if l.size else ()
    for k, s in enumerate(suffix, start=1):
        nxt = (2 * k + 1) * inv[s:] * jc[s:] - jm[s:]
        jm[s:] = jc[s:]
        jc[s:] = nxt
    return jm, jc


def _airy_zero(n):
    """n-th negative zero a_n of Ai from its asymptotic expansion (DLMF 9.9.6)."""
    t = 3.0 * math.pi / 8.0 * (4.0 * n - 1.0)
    u = t ** -2.0
    series = 1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * (
        77125.0 / 82944.0 - u * 108056875.0 / 6967296.0)))
    return -t ** (2.0 / 3.0) * series


def _olver_guess(l, n):
    """Olver's uniform estimate of the n-th zero of j_l (DLMF 10.21.43).

    With nu = l + 1/2 and zeta = nu^(-2/3) a_n, z solves
    (2/3)(-zeta)^(3/2) = sqrt(z^2 - 1) - arcsec(z) and the zero is
    nu*z + f_1(zeta)/nu, accurate to ~1e-2 at n = 1 and far better beyond.
    """
    nu = l + 0.5
    zeta = nu ** (-2.0 / 3.0) * _airy_zero(n)
    w = (2.0 / 3.0) * (-zeta) ** 1.5
    # the left side is convex and increasing in z and exceeds w at w + pi/2,
    # so Newton from there descends monotonically onto the root
    z = w + 0.5 * math.pi
    for _ in range(60):
        s = np.sqrt(z * z - 1.0)
        step = (s - np.arccos(1.0 / z) - w) * z / s
        z = z - step
        if np.all(step <= 1e-15 * z):
            break
    s = np.sqrt(z * z - 1.0)
    h2 = np.sqrt(4.0 * zeta / (1.0 - z * z))
    b0 = -5.0 / (48.0 * zeta**2) + (5.0 / (24.0 * s**3) + 1.0 / (8.0 * s)) / np.sqrt(-zeta)
    return nu * z + 0.5 * z * h2 * b0 / nu


def _newton(l, x):
    """Polish every guess x of a zero of j_l together; returns the sweep count.

    Newton runs on r = j_l/j_{l-1}, which increases like tan between its poles
    for x > l (r' = 1 + r^2 - 2lr/x > 0). Each sweep is one batched recurrence
    over the points not yet converged; a step is clipped to _MAX_STEP, a
    fraction of the zero spacing (> pi), so no single step can reach a
    neighbouring zero. The iteration converges quadratically with constant
    r''/2r' = l/x < 1, so once a step is below _STEP_TOL * x the point is
    exact to rounding and freezes; the rounding floor of the recurrence
    (about 1e-15 relative at l ~ 2000) never has to be beaten.
    """
    active = np.arange(x.size)
    for sweep in range(1, _MAX_SWEEPS + 1):
        la, xa = l[active], x[active]
        jm, jc = _jl_pair(la, xa)
        with np.errstate(all="ignore"):
            step = jc * jm / (jm * jm + jc * jc - 2.0 * la / xa * jc * jm)
        step = np.clip(step, -_MAX_STEP, _MAX_STEP)
        x[active] = xa - step
        active = active[~(np.abs(step) <= _STEP_TOL * xa)]
        if active.size == 0:
            return sweep
    i = int(active[0])
    raise BesselZeroError(int(l[i]), "Newton did not converge near x=%.17g "
                          "within %d sweeps" % (x[i], _MAX_SWEEPS))


class BesselZeroTable(_Record):
    """Zeros of j_l in (0, x_max] for every l that has at least one.

    zeros_by_l[l] is strictly increasing; neighbouring levels interlace;
    level 0 is exactly pi, 2*pi, 3*pi, ...
    """

    _fields = ("x_max", "zeros_by_l")

    @property
    def max_order(self):
        return len(self.zeros_by_l) - 1

    def zeros(self, l):
        if _order(l) > self.max_order:
            raise ValueError("l must be at most max_order = %d" % self.max_order)
        return self.zeros_by_l[l]


def _expand(levels, counts):
    """Flat (l, n) pairs, n = 1..counts[i] on level levels[i], sorted by l."""
    l = np.repeat(levels, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return l, np.arange(l.size) - first + 1


def _level_estimates(limit, top):
    """(levels 1..top, how many zeros of each lie below limit): the leading
    term of Olver's expansion plus a headroom of 2. The table guesses one
    candidate past each count, so a count up to 2 short of the zeros below
    limit still leaves a sentinel; 3 short fails the sentinel check."""
    levels = np.arange(1, top + 1)
    nu = levels + 0.5
    with np.errstate(invalid="ignore"):
        phase = np.sqrt(limit**2 - nu**2) - nu * np.arccos(nu / limit)
    return levels, np.where(nu < limit, phase / math.pi + 0.25, 0.0).astype(np.int64) + 2


def _check_interlacing(l, n, x, roots, offsets, counts, x_max):
    """Raise unless every root is the n-th zero of its j_l and every level
    ends with a sentinel above x_max.

    (x_{n,l-1}, x_{n+1,l-1}) holds exactly one zero of j_l, the n-th, so a
    root strictly inside it is that zero. A sentinel whose n equals the
    count of level l-1 has no solved upper end; x < x_{n,l-1} + 2*pi keeps it
    below x_{n+2,l} (zeros of j_{l-1} are more than pi apart) and the sign
    (-1)^n of j_{l-1}(x) rules out x_{n+1,l}.
    """
    below = offsets[l - 1] + n - 1              # index of x_{n,l-1} in roots
    lower = roots[below]
    open_end = n == counts[l - 1]
    upper = np.where(open_end, lower + 2.0 * math.pi, roots[below + 1])
    inside = (lower < x) & (x < upper)
    if open_end.any():
        jm, _ = _jl_pair(l[open_end], x[open_end])
        inside[open_end] &= jm * (-1.0) ** n[open_end] > 0
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        raise BesselZeroError(int(l[i]), "zero %d at x=%.17g is outside its interlacing "
                              "interval (%.17g, %.17g)" % (n[i], x[i], lower[i], upper[i]))
    short = np.flatnonzero(~(roots[offsets + counts - 1] > x_max))
    if short.size:
        raise BesselZeroError(int(short[0]), "no sentinel zero above x_max=%.17g" % x_max)


def build_bessel_zero_table(x_max, max_order=None):
    """Tabulate the zeros of the spherical Bessel functions up to x_max.

    Levels stop at the first l with no zero below x_max, or at max_order,
    which must be a nonnegative integer (else ValueError). Raises
    BesselZeroError if the solved zeros fail the interlacing check, and
    ResourceLimitError before any array of zeros exists if the levels to
    solve hold more than MAX_BESSEL_ZEROS candidate zeros, or if one Newton
    sweep over them takes more than MAX_SWEEP_STEPS recurrence steps.
    """
    x_max = finite_real(x_max, "x_max must be finite and > 0")
    top = int(x_max + _GUESS_MARGIN) + 1       # j_l has no zero below l + 1/2
    if max_order is not None:
        top = min(top, _order(max_order, "max_order"))
    if x_max < math.pi:
        return BesselZeroTable(x_max, (np.empty(0),))
    # each level holds at most limit/pi guesses, all levels ~limit^2/8 (the
    # integral of the phase in _level_estimates), and each level adds at most
    # 3.25 for the headroom and the guess past it
    limit, levels = x_max + _GUESS_MARGIN, top + 1.0
    required = min(limit * limit / 8.0, levels * limit / math.pi) + 3.25 * levels
    if not required <= MAX_BESSEL_ZEROS:
        raise ResourceLimitError(required, MAX_BESSEL_ZEROS, "Bessel zeros")
    orders, est = _level_estimates(limit, top)
    # each Newton sweep recurs l steps for every candidate zero of level l
    steps = int(np.dot(orders, est))
    if not steps <= MAX_SWEEP_STEPS:
        raise ResourceLimitError(steps, MAX_SWEEP_STEPS, "recurrence steps per sweep")
    l, n = _expand(orders, est + 1)
    x = _olver_guess(l, n)
    # each level's guesses up to the limit plus one sentinel, never more than
    # the level below (where the lower ends of the interlacing intervals are)
    below = np.bincount(l[x <= limit] - 1, minlength=top)
    counts = np.concatenate(([int(limit / math.pi)], np.minimum(below, est))) + 1
    counts = np.minimum.accumulate(counts)
    counts = counts[: np.count_nonzero(counts > 1) + 1]   # to the first level with no zero
    # Newton and the check take the first counts[l] guesses of each level
    keep = n <= np.pad(counts, (0, top + 1 - counts.size))[l]
    l, n, x = l[keep], n[keep], x[keep]
    _newton(l, x)
    roots = np.concatenate((np.arange(1, counts[0] + 1) * math.pi, x))
    offsets = np.cumsum(counts) - counts
    _check_interlacing(l, n, x, roots, offsets, counts, x_max)
    levels = []
    for off, c in zip(offsets, counts):
        level = roots[off:off + c]
        pub = level[level <= x_max]
        if pub.size == 0:
            break
        pub.setflags(write=False)
        levels.append(pub)
    return BesselZeroTable(x_max, tuple(levels))


def spherical_bessel_zeros(l, x_max):
    """All zeros of j_l in (0, x_max], each accurate to ~1e-12 relative.

    Solves levels 0..l of the zero table, since level l is checked against
    level l - 1; the empty array is a valid result when j_l has no zero
    below x_max.
    """
    l = _order(l)
    table = build_bessel_zero_table(float(x_max), max_order=l)
    if l > table.max_order:
        return np.empty(0)
    return table.zeros(l)
