"""Spectral energy densities of films and rods.

A film (two infinite plates a distance L1 apart) has the closed form

    u(omega, T) = hbar*omega^2/(pi c^2 L1 (e^{hbar omega/k_B T} - 1)) * N(omega)

where N is the number of admitted longitudinal wavenumbers; the rod version
sums 1/sqrt(omega^2/c^2 - k_perp^2) over the admitted transverse modes and is
singular at every transverse threshold (the singularity is integrable but the
pointwise value is unbounded, so evaluation inside a narrow guard window is
refused rather than returning astronomically large floats).
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .constants import C_LIGHT
from .errors import ResourceLimitError, ThresholdSingularityError
from .geometry import (BLOCK, CUT_MARGIN, BoundaryCondition, FilmGeometry, RodGeometry,
                       _kept_table, disc_sums, label_count, lattice_axes, quantization)
from .planck import mean_oscillator_energy
from .validate import finite_array, finite_density, finite_real, instance_of

__all__ = [
    "film_mode_count",
    "film_density",
    "rod_transverse_modes",
    "rod_density",
    "rod_threshold_frequencies",
    "rod_window_average",
]

#: relative half-width of the rod threshold guard window
THRESHOLD_GUARD = 1e-9

#: cap on the entries of one transverse k^2 table; more raises
#: ResourceLimitError. At the cap a rod_density or rod_threshold_frequencies call
#: takes ~1.0-1.6 s and ~0.79 GB peak RSS under each BC, on a 2-vCPU Xeon VM.
#: rod_density and the CLI grid keep the last geometry's table between calls, as
#: geometry._kept_table's "rod" table: a growing call may build up to 4x the
#: entries it needs. A rod_density call whose _rod_sum hits reads no table.
MAX_ROD_TABLE = 5 * 10**7

#: rod_density's mode sums kept by _rod_sum; past it the least recently used goes
MAX_ROD_SUMS = 1024


def film_mode_count(omega, geom: FilmGeometry, bc: BoundaryCondition):
    """Number of longitudinal wavenumbers admitted below omega/c.

    periodic      2*floor(omega L1/(2 c pi)) + 1
    antiperiodic  2*floor(omega L1/(2 c pi) + 1/2)
    dirichlet     floor(omega L1/(c pi))

    Floors jump at exact integer arguments and take the upper value there
    (right-continuity in omega): a mode is counted the instant it is admitted.
    A count of 2**63 or more, which an int64 cannot hold, raises
    ResourceLimitError.
    """
    instance_of(geom, FilmGeometry, "geom")
    period, offset, _ = quantization(bc)
    omega = finite_array(omega, "omega must be finite and >= 0")
    with np.errstate(over="ignore"):  # an overflowed count is inf and refused below
        n = label_count(np.floor(omega * geom.L1 / (C_LIGHT * period) + offset), bc)
    if not np.all(n < 2.0**63):  # the int64 cast would wrap
        raise ResourceLimitError(float(np.max(n)), 2**63 - 1, "film modes")
    return int(n) if n.ndim == 0 else n.astype(np.int64)


def film_density(omega, T, geom: FilmGeometry, bc: BoundaryCondition):
    """Film spectral energy density, J s/(rad m^3). Vectorized over omega.

    A density beyond the float range raises ValueError."""
    counts = film_mode_count(omega, geom, bc)
    omega = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by finite_density
        out = finite_density(omega * mean_oscillator_energy(omega, T)
                             / (math.pi * C_LIGHT**2 * geom.L1) * counts)
    return float(out) if out.ndim == 0 else out


def _rod_axes(geom, bc, k_cap):
    """The two transverse axes covering k_perp <= k_cap, within MAX_ROD_TABLE."""
    instance_of(geom, RodGeometry, "geom")
    return lattice_axes((geom.L1, geom.L2), bc, k_cap, MAX_ROD_TABLE, "transverse modes")


def _transverse_k2(geom, bc, k_cap):
    """Sorted transverse k^2 of the modes with k_perp <= k_cap, built per call."""
    s = disc_sums([k for k, _ in _rod_axes(geom, bc, k_cap)], k_cap * k_cap * CUT_MARGIN)
    s.sort()
    return s


def rod_transverse_modes(omega, geom: RodGeometry, bc: BoundaryCondition):
    """Admitted transverse wavevector pairs with k1^2 + k2^2 < (omega/c)^2.

    Returns an (N, 2) float array sorted by (k1^2 + k2^2, k1, k2); the empty
    set is a valid result. The inequality is strict, as in the rod sum.
    """
    omega = finite_real(omega, "omega must be finite and >= 0", inclusive=True)
    k = omega / C_LIGHT
    (k1, _), (k2, _) = _rod_axes(geom, bc, k)
    with np.errstate(over="ignore"):  # an overflowed k^2 is inf and never admitted
        i1, i2 = np.nonzero((k1**2)[:, None] + (k2**2)[None, :] < k * k)
    pairs = np.column_stack([k1[i1], k2[i2]])
    order = np.lexsort((pairs[:, 1], pairs[:, 0], pairs[:, 0] ** 2 + pairs[:, 1] ** 2))
    return pairs[order]


def rod_density(omega, T, geom: RodGeometry, bc: BoundaryCondition,
                threshold_guard=THRESHOLD_GUARD):
    """Rod spectral energy density at a single angular frequency.

    The mode sum does not depend on T. _rod_sum keeps the last MAX_ROD_SUMS
    non-singular sums, so a call at the same (geom, bc, omega, threshold_guard)
    and another T reads no table and recomputes only the thermal factor,
    with the same temperature check and overflow refusal. A miss reads the
    rod table geometry._kept_table keeps for the last geometry (MAX_ROD_TABLE).

    Parameters
    ----------
    omega, T : float
        Angular frequency (rad/s) and temperature (K).
    geom, bc : RodGeometry, BoundaryCondition
    threshold_guard : float
        Relative half-width of the refusal window around each transverse
        threshold, finite and in [0, 1). Pass 0 to disable (used when
        integrating across thresholds with a regularizing substitution).

    Raises
    ------
    ThresholdSingularityError
        If omega/c lies within the guard window of an admitted or boundary
        mode, where the pointwise density is genuinely unbounded.
    ValueError
        If the density exceeds the float range, or if (omega/c)^2 does while
        the mean oscillator energy is positive.
    """
    instance_of(geom, RodGeometry, "geom")  # a kept table or a _rod_sum hit reads no axes
    omega = finite_real(omega, "omega must be finite and >= 0", inclusive=True)
    message = "threshold_guard must be finite, >= 0 and < 1"
    guard = finite_real(threshold_guard, message, inclusive=True)
    if not guard < 1.0:
        raise ValueError(message)
    try:
        total = _rod_sum(geom, bc, omega, guard)
    except ThresholdSingularityError:
        _rod_values(omega, T, geom, 0.0)  # the T check and the overflow refusal come first
        raise
    return float(_rod_values(omega, T, geom, total))


@functools.lru_cache(maxsize=MAX_ROD_SUMS)
def _rod_sum(geom, bc, omega, guard):
    """The mode sum of _rod_sums at one omega. A singular sample raises its
    ThresholdSingularityError, which lru_cache never keeps."""
    totals, singular = _rod_sums(np.array([omega]), geom, bc, guard)
    if singular:
        raise singular[0]
    return totals[0]


def _rod_sums(omega, geom, bc, threshold_guard):
    """Mode sums sum 1/sqrt(omega^2/c^2 - k_perp^2) at a 1-D array of omegas.

    All samples share one sorted transverse table, the kept table covering
    the largest omega. Returns the sums, a float array, and a dict from
    the index of each sample inside a guard window to its
    ThresholdSingularityError; those samples sum to 0.0. Each sum is the one
    a table sized to its own omega gives, bit for bit: the entries below
    (omega/c)^2 are the same sorted prefix for any table that covers omega,
    and each sample sums its own prefix. Where (omega/c)^2 overflows, each
    term would be 0, so a sample that admits a mode sums to inf instead.
    """
    k = omega / C_LIGHT
    k_cap = max(k.tolist()) * (1.0 + 4.0 * max(threshold_guard, 1e-9))
    s = _kept_table("rod", (geom.L1, geom.L2, bc), k_cap,
                    functools.partial(_transverse_k2, geom, bc))
    with np.errstate(over="ignore"):  # an overflowed square is inf: it admits every finite entry
        k2 = k * k
        i0 = s.searchsorted((k * (1.0 - threshold_guard)) ** 2)
        i1 = s.searchsorted((k * (1.0 + threshold_guard)) ** 2)
    n = s.searchsorted(k2)  # admitted modes: s < k^2
    singular = {}
    for i in (i1 > i0).nonzero()[0].tolist():  # none at threshold_guard = 0
        k_perp = math.sqrt(s[i0[i]])
        singular[i] = ThresholdSingularityError(
            float(omega[i]), *_mode_indices(geom, bc, k_perp, k_cap), k_perp)
        n[i] = 0
    totals = np.where(n > 0, math.inf, 0.0)  # kept where (omega/c)^2 overflows
    rows = np.flatnonzero(k2 < math.inf)
    rows = rows[n[rows].argsort()]
    ms, kk, sums = n[rows].tolist(), k2[rows, None], np.zeros(rows.size)
    buf = np.empty(min(len(ms) * ms[-1], max(BLOCK, ms[-1])) if ms else 0)
    # the samples admitting m modes form (rows, m) blocks in one buffer reused
    # across blocks, of at most BLOCK terms (512 KiB) or one row, so the
    # sums add at most that to the table; ascending s = ascending term magnitude
    # keeps each sum well conditioned, and a C-contiguous row sums in the
    # pairwise order of the 1-D np.sum of that row: every total is bit-identical
    j = bisect.bisect_right(ms, 0)
    while j < len(ms):
        m = ms[j]
        end = min(bisect.bisect_right(ms, m, lo=j), j + max(1, BLOCK // m))
        t = buf[:(end - j) * m].reshape(end - j, m)
        np.subtract(kk[j:end], s[:m], out=t)
        np.sqrt(t, out=t)
        np.add.reduce(np.divide(1.0, t, out=t), axis=1, out=sums[j:end])
        j = end
    totals[rows] = sums
    return totals, singular


def _rod_values(omega, T, geom, totals):
    """Densities 2 omega eps(omega, T)/(pi c^2 L1 L2) * totals of the mode sums
    at omega, eps the mean oscillator energy; checks T and refuses overflow.
    As in weyl_density, an inf sum gives 0.0 where eps is 0."""
    with np.errstate(all="ignore"):  # a density that is not finite is refused
        energy = mean_oscillator_energy(omega, T)
        return finite_density(np.divide(2.0 * omega * energy,
                                        math.pi * C_LIGHT**2 * geom.L1 * geom.L2)
                              * np.where(energy > 0.0, totals, 0.0))


def _mode_indices(geom, bc, k_perp, k_cap):
    """Lattice labels (n1, n2) of the transverse mode at k_perp (error path only)."""
    k_max = min(k_perp * 1.001, k_cap)  # within the table that found k_perp, so within its cap
    pairs = rod_transverse_modes(C_LIGHT * k_max, geom, bc)
    k = pairs[np.argmin(np.abs(pairs[:, 0]**2 + pairs[:, 1]**2 - k_perp**2))]
    period, offset, _ = quantization(bc)
    return tuple(round(x * L / period - offset) for x, L in zip(k, (geom.L1, geom.L2)))


def rod_threshold_frequencies(geom: RodGeometry, bc: BoundaryCondition, omega_max):
    """Distinct positive transverse thresholds c*k_perp <= omega_max, sorted.

    The periodic (0, 0) mode is admitted from omega = 0+ and contributes no
    positive threshold.
    """
    omega_max = finite_real(omega_max, "omega_max must be finite and > 0")
    s = _transverse_k2(geom, bc, omega_max / C_LIGHT)
    pos = s[s.searchsorted(0.0, side="right"):]  # sorted: distinct = unlike its left neighbour
    w = C_LIGHT * np.sqrt(np.concatenate((pos[:1], pos[1:][pos[1:] != pos[:-1]])))
    return w[w <= omega_max]


def rod_window_average(omega, T, geom: RodGeometry, bc: BoundaryCondition):
    """Average rod density over the inter-threshold interval containing omega.

    The interval [a, b) runs from the largest threshold a <= omega to the
    smallest threshold b > omega, so its interior holds no singularity. One
    table covers it: along the longer axis, with the other axis at its
    smallest |k|, the thresholds start at the first one and rise by at most
    one step c*period/max(L1, L2), so b <= omega + that step. Each mode's
    1/sqrt(omega^2/c^2 - s) term is integrated with its exact antiderivative
    c*ln(omega + sqrt(omega^2 - c^2 s)), and the smooth thermal prefactor is
    applied piecewise at sub-interval midpoints. omega must lie at or
    above the first threshold. An average beyond the float range raises
    ValueError.
    """
    instance_of(geom, RodGeometry, "geom")
    omega = finite_real(omega, "omega must be finite and > 0")
    step = C_LIGHT * quantization(bc)[0] / max(geom.L1, geom.L2)
    s = _transverse_k2(geom, bc, (omega + step) * (1.0 + 1e-9) / C_LIGHT)
    first = int(s.searchsorted(0.0, side="right"))  # the first positive entry
    i = bisect.bisect_right(s, omega, lo=first, key=lambda v: C_LIGHT * math.sqrt(v))
    if i == first:
        raise ValueError("omega lies below the first transverse threshold")
    a, b = C_LIGHT * math.sqrt(s[i - 1]), C_LIGHT * math.sqrt(s[i])
    if not b * b < math.inf:  # then every omega^2 of the window is formed finite
        raise ValueError("the threshold window exceeds the float range")
    mid_all = 0.5 * (a + b)
    s_adm = s[:s.searchsorted((mid_all / C_LIGHT) ** 2)]  # the sorted entries below it

    def antiderivative(w):
        r = np.sqrt(np.maximum(w * w - C_LIGHT**2 * s_adm, 0.0))
        return C_LIGHT * np.log(w + r)

    # subdivide so the thermal prefactor varies by < ~1e-3 per piece
    pieces = max(1, math.ceil((b - a) / (1e-3 * mid_all)))
    edges = np.linspace(a, b, pieces + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by finite_density
        sums = [float(np.sum(antiderivative(hi) - antiderivative(lo)))
                for lo, hi in zip(edges[:-1], edges[1:])]
        total = 0.0
        for value in _rod_values(0.5 * (edges[:-1] + edges[1:]), T, geom, sums):
            total += value  # in piece order; np.sum would pair terms and move last bits
        return finite_density(total / (b - a))
