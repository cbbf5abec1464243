"""Binned approximate spectra for closed cavities and the Weyl asymptotics.

A closed cavity has a discrete spectrum, so no pointwise density exists;
instead each mode's thermal energy is assigned to a frequency bin of fixed
width and divided by V*delta_omega. Bins are half-open [i*dw, (i+1)*dw),
anchored at 0, so the axis is partitioned with no modes dropped; a mode
landing exactly on the top edge of the last bin is kept in that bin. This
makes the energy-conservation identity sum(u_i)*dw*V = sum(N_i*eps_i) exact
to accumulation roundoff.

The three-term Weyl density (volume, surface, mean-curvature) is signed by
construction and intentionally not clamped: its negative values at small
cavity sizes are a physical finding, not a numerical artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT
from .errors import ConvolutionExactnessError, ResourceLimitError
from .geometry import (CUT_MARGIN, BoundaryCondition, GeometryDescriptors, axis_wavenumbers,
                       disc_sums, quantization)
from .modes import ModeList
from .planck import mean_oscillator_energy
from .validate import finite_real

__all__ = ["BinnedSpectrum", "binned_density", "cube_binned_density", "weyl_density",
           "MAX_BINS", "MAX_CUBE_NORMS"]

#: cap on the bins of one spectrum; more raises ResourceLimitError
MAX_BINS = 10**7

#: cap on the integer norms m_max of one cube spectrum; more raises
#: ResourceLimitError. At the cap one spectrum takes ~5 s and ~0.85 GB peak RSS
#: on a 2-vCPU Xeon VM.
MAX_CUBE_NORMS = 10**7


@dataclass(frozen=True)
class BinnedSpectrum:
    """Piecewise-constant spectral density on contiguous bins anchored at 0."""

    delta_omega: float
    omega_left: np.ndarray
    u: np.ndarray
    volume: float
    last_bin_partial: bool

    @property
    def n_bins(self):
        return len(self.u)

    @property
    def omega_centers(self):
        return self.omega_left + 0.5 * self.delta_omega

    def total_energy(self):
        """sum(u)*delta_omega*volume in J; equals the exact modal energy."""
        return float(np.sum(self.u) * self.delta_omega * self.volume)


def _bin_layout(omega_max, delta_omega, volume):
    """Checked bin count and partial flag, before any mode or bin array exists."""
    if not (delta_omega > 0 and volume > 0):
        raise ValueError("delta_omega and volume must be > 0, got delta_omega=%r, "
                         "volume=%r" % (delta_omega, volume))
    q = omega_max / delta_omega
    if not q <= MAX_BINS:
        raise ResourceLimitError(math.ceil(q) if math.isfinite(q) else q, MAX_BINS,
                                 "frequency bins")
    q_round = round(q)
    if q_round >= 1 and abs(q - q_round) <= 1e-9 * q:
        return int(q_round), False
    return int(math.ceil(q)), True  # last bin padded past omega_max


def _bin(omegas, multiplicities, T, delta_omega, volume, layout):
    n_bins, partial = layout
    idx = np.minimum((omegas / delta_omega).astype(np.int64), n_bins - 1)
    energy = multiplicities * mean_oscillator_energy(omegas, T)
    u = np.bincount(idx, weights=energy, minlength=n_bins) / (volume * delta_omega)
    return BinnedSpectrum(
        delta_omega=float(delta_omega),
        omega_left=np.arange(n_bins) * float(delta_omega),
        u=u,
        volume=float(volume),
        last_bin_partial=partial,
    )


def binned_density(modes: ModeList, T, delta_omega, volume):
    """Binned spectral density of a ModeList, J s/(rad m^3) per bin."""
    return _bin(modes.omegas, modes.multiplicities, T, delta_omega, volume,
                _bin_layout(modes.omega_max, delta_omega, volume))


def _fast_len(n):
    """Smallest 5-smooth integer 2^a 3^b 5^c >= n, a length the FFT is fast at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _round_counts(raw):
    # the counts are integers; a float result farther than 0.25 from one means
    # the FFT rounding error is no longer small enough to trust the rounding
    counts = np.rint(raw)
    deviation = float(np.max(np.abs(raw - counts)))
    if deviation > 0.25:
        raise ConvolutionExactnessError(deviation)
    return counts


def _exact_counts_by_convolution(j, m_max):
    """r3[m] = number of lattice triples with component-square sum m <= m_max.

    j holds the integer labels of one axis. The one- and two-axis counts r1
    and r2 are exact histograms of the lattice sums; r3 is their linear
    convolution by FFT, truncated at m_max (indices are nonnegative, so larger
    sums cannot feed back below m_max), and is checked to be safely
    round-trippable before rounding.
    """
    r1 = np.bincount(disc_sums([j], m_max))
    r2 = np.bincount(disc_sums([j, j], m_max))
    n = _fast_len(2 * m_max + 1)
    r3 = _round_counts(np.fft.irfft(np.fft.rfft(r2, n) * np.fft.rfft(r1, n), n)[: m_max + 1])
    return r3.astype(np.int64)


def _norm_bound(omega_max, unit):
    """Largest integer norm m with unit*sqrt(m) <= omega_max.

    Compared with MAX_CUBE_NORMS as a float, so a cube too large for any
    array is refused before an int or an array of that size exists.
    """
    q = omega_max / unit
    m = q**2 * CUT_MARGIN if q < 1e100 else math.inf  # float ** raises on overflow
    if not m <= MAX_CUBE_NORMS:
        raise ResourceLimitError(m, MAX_CUBE_NORMS, "integer norms")
    return int(m)


def cube_binned_density(side, bc: BoundaryCondition, T, delta_omega, omega_max):
    """Binned spectrum of a cube via exact integer-lattice multiplicities.

    For a cube the eigenfrequencies are sqrt(integer) times a fixed unit, so
    the spectrum is aggregated over integer norms instead of scanning
    O((omega_max L / c)^3) lattice points. The result has the bins and zero
    pattern of binned_density(enumerate_box_modes(...)) and its values to
    ~1e-14 relative (unit*sqrt(m) rounds differently from the scan's c*|k|),
    but stays cheap for desk-scale cavities as large as centimeters. More
    than MAX_CUBE_NORMS integer norms, or more than MAX_BINS bins, raise
    ResourceLimitError before the norm arrays exist.
    """
    side = finite_real(side, "side must be finite and > 0")
    omega_max = finite_real(omega_max, "omega_max must be finite and > 0")
    period, offset, _ = quantization(bc)
    volume = side * side * side  # BoxGeometry.volume; inf past ~1e102, refused by the norm cap
    layout = _bin_layout(omega_max, delta_omega, volume)
    # k = period*(n + offset)/side = (unit/c)*j with the integer j = scale*(n + offset)
    scale = 2 if offset else 1
    unit = period / scale * C_LIGHT / side
    m_max = _norm_bound(omega_max, unit)
    _, n = axis_wavenumbers(side, bc, math.isqrt(m_max) + 1)
    r3 = _exact_counts_by_convolution(scale * n + int(scale * offset), m_max)
    m = np.flatnonzero(r3)
    m = m[m > 0]                                       # periodic zero mode excluded
    om = unit * np.sqrt(m.astype(float))
    keep = om <= omega_max
    return _bin(om[keep], 2 * r3[m[keep]], T, delta_omega, volume, layout)  # 2 polarizations


def weyl_density(omega, T, desc: GeometryDescriptors):
    """Three-term Weyl asymptotic spectral density, signed, J s/(rad m^3).

    (hbar w^3/(pi^2 c^3) - (A/V) hbar w^2/(4 pi c^2) + (M/V) hbar w/(3 pi^2 c))
    / (e^{hbar w/k_B T} - 1), written through the mean oscillator energy so
    omega = 0 returns the analytic limit. With A = M = 0 this is exactly the
    Planck density. Negative values are returned as computed.
    """
    omega = np.asarray(omega, dtype=float)
    dos = (
        omega**2 / (math.pi**2 * C_LIGHT**3)
        - (desc.A / desc.V) * omega / (4.0 * math.pi * C_LIGHT**2)
        + (desc.M / desc.V) / (3.0 * math.pi**2 * C_LIGHT)
    )
    out = dos * mean_oscillator_energy(omega, T)
    return float(out) if out.ndim == 0 else out
