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

import math

import numpy as np

from .constants import C_LIGHT
from .errors import ResourceLimitError, ThresholdSingularityError
from .geometry import (CUT_MARGIN, BoundaryCondition, FilmGeometry, RodGeometry,
                       disc_sums, label_count, lattice_axes, quantization)
from .planck import mean_oscillator_energy
from .validate import finite_real

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
#: ResourceLimitError. At the cap a rod_density call takes ~1.6 s and ~0.93 GB
#: peak RSS, rod_threshold_frequencies ~1.4 s and ~0.76 GB, on a 2-vCPU Xeon VM.
#: rod_density and the CLI grid keep the last geometry's table between calls;
#: a growing call may build up to 4x the entries it needs.
MAX_ROD_TABLE = 5 * 10**7

#: the kept table (L1, L2, bc, k_cap, sorted k^2) of _rod_density_grid, or None
_kept = None


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
    period, offset, _ = quantization(bc)
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)) or np.any(omega < 0):
        raise ValueError("omega must be finite and >= 0")
    with np.errstate(over="ignore"):  # an overflowed count is inf and refused below
        n = label_count(np.floor(omega * geom.L1 / (C_LIGHT * period) + offset), bc)
    if not np.all(n < 2.0**63):  # the int64 cast would wrap
        raise ResourceLimitError(float(np.max(n)), 2**63 - 1, "film modes")
    return int(n) if n.ndim == 0 else n.astype(np.int64)


def film_density(omega, T, geom: FilmGeometry, bc: BoundaryCondition):
    """Film spectral energy density, J s/(rad m^3). Vectorized over omega."""
    counts = film_mode_count(omega, geom, bc)
    omega = np.asarray(omega, dtype=float)
    pref = omega * mean_oscillator_energy(omega, T) / (math.pi * C_LIGHT**2 * geom.L1)
    out = pref * counts
    return float(out) if out.ndim == 0 else out


def _rod_axes(geom, bc, k_cap):
    """The two transverse axes covering k_perp <= k_cap, within MAX_ROD_TABLE."""
    return lattice_axes((geom.L1, geom.L2), bc, k_cap, MAX_ROD_TABLE, "transverse modes")


def _k2_grid(axes):
    """Axis wavenumbers, their labels and the full k1^2 + k2^2 rectangle."""
    (k1, n1), (k2, n2) = axes
    with np.errstate(over="ignore"):  # an overflowed k^2 is inf and never admitted
        s = (k1**2)[:, None] + (k2**2)[None, :]
    return s, k1, k2, n1, n2


def _transverse_k2(geom, bc, k_cap):
    """Sorted transverse k^2 of the modes with k_perp <= k_cap, built per call."""
    s = disc_sums([k for k, _ in _rod_axes(geom, bc, k_cap)], k_cap * k_cap * CUT_MARGIN)
    s.sort()
    return s


def _kept_k2(geom, bc, k_cap):
    """_transverse_k2 through the kept table, grown on a miss.

    Any table at a cap >= k_cap holds the same sorted prefix below k_cap. A miss
    builds at max(k_cap, 2 x the kept cap) on the kept geometry, else at k_cap."""
    global _kept
    kept, key = _kept, (geom.L1, geom.L2, bc)
    if kept is not None and kept[:3] == key and kept[3] >= k_cap:
        return kept[4]
    cap = max(k_cap, 2.0 * kept[3]) if kept is not None and kept[:3] == key else k_cap
    _kept = kept = None  # release the old table before building the next
    try:
        s = _transverse_k2(geom, bc, cap)
    except ResourceLimitError:  # refused before any array exists
        cap, s = k_cap, _transverse_k2(geom, bc, k_cap)
    _kept = key + (cap, s)
    return s


def rod_transverse_modes(omega, geom: RodGeometry, bc: BoundaryCondition):
    """Admitted transverse wavevector pairs with k1^2 + k2^2 < (omega/c)^2.

    Returns an (N, 2) float array sorted by (k1^2 + k2^2, k1, k2); the empty
    set is a valid result. The inequality is strict, as in the rod sum.
    """
    omega = finite_real(omega, "omega must be finite and >= 0", inclusive=True)
    k = omega / C_LIGHT
    s, k1, k2, _, _ = _k2_grid(_rod_axes(geom, bc, k))
    i1, i2 = np.nonzero(s < k * k)
    pairs = np.column_stack([k1[i1], k2[i2]])
    order = np.lexsort((pairs[:, 1], pairs[:, 0], pairs[:, 0] ** 2 + pairs[:, 1] ** 2))
    return pairs[order]


def rod_density(omega, T, geom: RodGeometry, bc: BoundaryCondition,
                threshold_guard=THRESHOLD_GUARD):
    """Rod spectral energy density at a single angular frequency. The last
    geometry's transverse table is kept for the next call (see MAX_ROD_TABLE).

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
    """
    omega = finite_real(omega, "omega must be finite and >= 0", inclusive=True)
    message = "threshold_guard must be finite, >= 0 and < 1"
    if not finite_real(threshold_guard, message, inclusive=True) < 1.0:
        raise ValueError(message)
    values, singular = _rod_density_grid(np.array([omega]), T, geom, bc, float(threshold_guard))
    if singular:
        raise singular[0]
    return float(values[0])


def _rod_density_grid(omega, T, geom, bc, threshold_guard=THRESHOLD_GUARD):
    """Rod density at every omega of a 1-D array of finite omegas >= 0.

    All samples share one sorted transverse table, the kept table covering
    the largest omega, and one mean_oscillator_energy call. Returns the
    densities and a dict from the index of each sample inside a guard window
    to its ThresholdSingularityError; those samples hold nan. Each value is
    the one a table sized to its own omega gives, bit for bit: the entries
    below (omega/c)^2 are the same sorted prefix for any table that covers
    omega, and each sample sums its own prefix.
    """
    k = omega / C_LIGHT
    k_cap = max(k.tolist()) * (1.0 + 4.0 * max(threshold_guard, 1e-9))
    s = _kept_k2(geom, bc, k_cap)
    k2 = k * k
    n = s.searchsorted(k2)  # admitted modes: s < k^2
    singular = {}
    if threshold_guard > 0.0:
        i0 = s.searchsorted((k * (1.0 - threshold_guard)) ** 2)
        i1 = s.searchsorted((k * (1.0 + threshold_guard)) ** 2)
        for i in (i1 > i0).nonzero()[0].tolist():
            k_perp = math.sqrt(s[i0[i]])
            singular[i] = ThresholdSingularityError(
                float(omega[i]), *_mode_indices(geom, bc, k_perp, k_cap), k_perp)
            n[i] = 0
    # ascending s = ascending term magnitude keeps each sum well conditioned;
    # each sample's terms live in one buffer, so the sum adds no peak memory
    totals = []
    for kk, m in zip(k2.tolist(), n.tolist()):
        t = np.subtract(kk, s[:m])
        np.sqrt(t, out=t)
        totals.append(float(np.sum(np.divide(1.0, t, out=t))))
    values = _rod_prefactor(omega, T, geom) * np.array(totals)
    if singular:
        values[list(singular)] = np.nan
    return values, singular


def _rod_prefactor(omega, T, geom):
    """Thermal prefactor of the rod sum, 2 omega eps(omega, T)/(pi c^2 L1 L2)."""
    return 2.0 * omega * mean_oscillator_energy(omega, T) / (
        math.pi * C_LIGHT**2 * geom.L1 * geom.L2
    )


def _mode_indices(geom, bc, k_perp, k_cap):
    """Lattice indices (n1, n2) of the transverse mode at k_perp (error path only)."""
    k_max = min(k_perp * 1.001, k_cap)  # within the table that found k_perp, so within its cap
    s, _, _, n1, n2 = _k2_grid(_rod_axes(geom, bc, k_max))
    i, j = np.unravel_index(np.argmin(np.abs(s - k_perp**2)), s.shape)
    return int(n1[i]), int(n2[j])


def rod_threshold_frequencies(geom: RodGeometry, bc: BoundaryCondition, omega_max):
    """Distinct positive transverse thresholds c*k_perp <= omega_max, sorted.

    The periodic (0, 0) mode is admitted from omega = 0+ and contributes no
    positive threshold.
    """
    return _table_and_thresholds(geom, bc, omega_max)[1]


def _table_and_thresholds(geom, bc, omega_max):
    """The sorted transverse table up to omega_max/c and its distinct thresholds."""
    omega_max = finite_real(omega_max, "omega_max must be finite and > 0")
    s = _transverse_k2(geom, bc, omega_max / C_LIGHT)
    pos = s[s.searchsorted(0.0, side="right"):]  # sorted: distinct = unlike its left neighbour
    w = C_LIGHT * np.sqrt(np.concatenate((pos[:1], pos[1:][pos[1:] != pos[:-1]])))
    return s, w[w <= omega_max]


def rod_window_average(omega, T, geom: RodGeometry, bc: BoundaryCondition):
    """Average rod density over the inter-threshold interval containing omega.

    The interval [a, b) between two consecutive distinct thresholds contains
    no singularity in its interior; each mode's 1/sqrt(omega^2/c^2 - s) term
    is integrated with its exact antiderivative c*ln(omega + sqrt(omega^2 -
    c^2 s)), and the smooth thermal prefactor is applied piecewise at
    sub-interval midpoints. omega must lie strictly above the first distinct
    threshold.
    """
    omega = finite_real(omega, "omega must be finite and > 0")
    cap = 1.25
    while True:
        s, thresholds = _table_and_thresholds(geom, bc, omega * cap)
        i = int(np.searchsorted(thresholds, omega, side="right"))
        if i == 0:
            raise ValueError("omega lies below the first transverse threshold")
        if i < len(thresholds):
            break
        # one axis step, c*period/max(L1, L2) <= 2 * first threshold < 2*omega,
        # reaches the next threshold, so it lies below 3*omega and cap stops by 5
        cap *= 2.0
    a = float(thresholds[i - 1])
    b = float(thresholds[i])
    mid_all = 0.5 * (a + b)
    s_adm = s[:s.searchsorted((mid_all / C_LIGHT) ** 2)]  # the sorted entries below it

    def antiderivative(w):
        r = np.sqrt(np.maximum(w * w - C_LIGHT**2 * s_adm, 0.0))
        return C_LIGHT * np.log(w + r)

    # subdivide so the thermal prefactor varies by < ~1e-3 per piece
    pieces = max(1, math.ceil((b - a) / (1e-3 * mid_all)))
    edges = np.linspace(a, b, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        total += _rod_prefactor(mid, T, geom) * float(
            np.sum(antiderivative(hi) - antiderivative(lo)))
    return total / (b - a)
