"""Binned approximate spectra for closed cavities.

A closed cavity has a discrete spectrum, so no pointwise density exists;
instead each mode's thermal energy is assigned to a frequency bin of fixed
width and divided by V*delta_omega. Bins are half-open [i*dw, (i+1)*dw),
anchored at 0, so the axis is partitioned with no modes dropped; a mode
landing exactly on the top edge of the last bin is kept in that bin. This
makes the energy-conservation identity sum(u_i)*dw*V = sum(N_i*eps_i) exact
to accumulation roundoff.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvolutionExactnessError
from .geometry import (BLOCK, BoundaryCondition, _Record, _bin_layout, _cube_unit, _kept_table,
                       _norm_bound, axis_wavenumbers, disc_sums, fold_signs, quantization)
from .planck import _T_MESSAGE, mean_oscillator_energy
from .validate import finite_density, finite_real

__all__ = ["BinnedSpectrum", "binned_density", "cube_binned_density"]


class BinnedSpectrum(_Record):
    """Piecewise-constant spectral density on contiguous bins anchored at 0."""

    _fields = ("delta_omega", "omega_left", "u", "volume", "last_bin_partial")

    @property
    def n_bins(self):
        return len(self.u)

    @property
    def omega_centers(self):
        return self.omega_left + 0.5 * self.delta_omega

    def total_energy(self):
        """sum(u)*delta_omega*volume in J; equals the exact modal energy."""
        return float(np.sum(self.u) * self.delta_omega * self.volume)


def _bin_into(energy_sums, omegas, multiplicities, T, delta_omega):
    """Add each mode's thermal energy to its bin of energy_sums, in mode order."""
    idx = np.minimum((omegas / delta_omega).astype(np.int64), energy_sums.size - 1)
    np.add.at(energy_sums, idx, multiplicities * mean_oscillator_energy(omegas, T))


def _spectrum(energy_sums, delta_omega, volume, layout):
    n_bins, partial = layout
    with np.errstate(over="ignore"):  # refused by finite_density
        u = finite_density(energy_sums / (volume * delta_omega))
    return BinnedSpectrum(
        delta_omega=float(delta_omega),
        omega_left=np.arange(n_bins) * float(delta_omega),
        u=u,
        volume=float(volume),
        last_bin_partial=partial,
    )


def binned_density(modes, T, delta_omega, volume):
    """Binned spectral density of a ModeList, J s/(rad m^3) per bin.

    A density beyond the float range raises ValueError."""
    layout = _bin_layout(modes.omega_max, delta_omega, volume)
    energy_sums = np.zeros(layout[0])
    _bin_into(energy_sums, modes.omegas, modes.multiplicities, T, delta_omega)
    return _spectrum(energy_sums, delta_omega, volume, layout)


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


def _pair_counts(j, cap, shift):
    """Histogram of (a^2 + b^2) >> shift over label pairs with a^2 + b^2 <= cap.

    The pairs are summed a block of rows at a time, so no array of all pairs
    exists. Labels of both signs are folded to |a| with the number of labels
    as a weight (fold_signs), so a sign-symmetric axis sums a quarter of the pairs.
    """
    [v], w = fold_signs([j])
    # weighted counts sum in floats, exact for integers below 2^53
    counts = np.zeros((cap >> shift) + 1, dtype=np.int64 if w is None else float)
    rows = max(1, BLOCK // max(len(v), 1))
    for lo in range(0, len(v), rows):
        if w is None:
            part = np.bincount(disc_sums([v[lo:lo + rows], v], cap) >> shift)
        else:
            s, ww = disc_sums([v[lo:lo + rows], v], cap, [w[0][lo:lo + rows], w[0]])
            part = np.bincount(s >> shift, weights=ww)
        counts[:part.size] += part
    return counts.astype(np.int64, copy=False)


def _odd_classes(out, jo, half, m_max):
    """Write the triples with 1 to 3 odd components into out[m], m <= m_max.

    jo holds the odd labels with jo^2 <= m_max, half the even labels halved,
    with 4 half^2 <= m_max. An odd square is 1 (mod 8) and an even one
    0 (mod 4), so each count is one histogram convolution on one residue
    class mod 8:

    * 3 odd: m = 3 (mod 8), the odd pairs (m = 2 mod 8) * the odd squares;
    * 2 odd: m = 2 and 6 (mod 8), 3 x the odd pairs * the even squares;
    * 1 odd: m = 1 and 5 (mod 8), 3 x the even pairs * the odd squares.

    The FFT convolutions are about m_max/4 long, truncated at m_max (indices
    are nonnegative, so larger sums cannot feed back below m_max) and checked
    to be safely round-trippable before rounding. Classes c and c + 4 share
    one factor, so they share one transform of lo + 2^shift hi, with 2^shift
    above every count of class c; the rounded integers split exactly.
    """
    # one transform length serves every class: the longest class computed
    size = len(range(1 if half.size else 3, m_max + 1, 8))
    n = _fast_len(2 * size - 1)

    def spectrum(counts):
        return np.fft.rfft(counts[:size], n)

    def packed(parts, other_max):
        # the spectrum of lo + 2^shift hi, boxed, from the box parts = [lo, hi];
        # max(other) * sum(lo) bounds every count of lo's convolution with other
        hi, lo = parts.pop()[:size], parts.pop()[:size]
        shift = int(other_max * lo.sum()).bit_length()
        both = np.zeros(max(lo.size, hi.size))
        both[:lo.size] = lo
        both[:hi.size] += hi * float(1 << shift)
        del lo, hi
        return [spectrum(both)], shift

    def convolve_into(c, box, shift, other, factor=1):
        # class c (and c + 4 if shift is given): factor x the convolution of
        # the spectra in box and other. box is a one-element list, so the
        # spectrum popped from it is multiplied in place and freed before rounding
        product = box.pop()
        product *= other
        raw = np.fft.irfft(product, n)[:len(range(c, m_max + 1, 8))]
        del product
        counts = _round_counts(raw)
        del raw
        if shift is not None:  # floor and the power of two are exact on these floats
            hi = np.floor(counts / float(1 << shift))
            out[c + 4::8] = factor * hi[:len(range(c + 4, m_max + 1, 8))]
            counts -= hi * float(1 << shift)
        out[c::8] = factor * counts

    odd_pairs = _pair_counts(jo, m_max, 3)                # m = 8s + 2 at s
    pairs_max = int(odd_pairs[:size].max())
    pairs = [spectrum(odd_pairs)]
    del odd_pairs
    if half.size:
        # even squares m = 4u, u = 2s + e: m = 8s + 4e + 2, classes 2 and 6
        even = [np.bincount(i * i >> 1) for i in (half[half % 2 == 0], half[half % 2 == 1])]
        convolve_into(2, *packed(even, pairs_max), pairs[0], 3)
    odd_squares = np.bincount(jo * jo >> 3)               # m = 8s + 1 at s
    squares_max = int(odd_squares.max())
    odd_squares = spectrum(odd_squares)
    convolve_into(3, pairs, None, odd_squares)
    if half.size:
        even_pairs = _pair_counts(half, m_max >> 2, 0)    # m = 4u at u
        even_pairs = [even_pairs[0::2], even_pairs[1::2]]  # m = 8s + 4e + 1: classes 1, 5
        convolve_into(1, *packed(even_pairs, squares_max), odd_squares, 3)


def _exact_counts_by_convolution(j, m_max):
    """r3[m] = number of lattice triples with component-square sum m <= m_max.

    j holds the integer labels of one axis: every integer (periodic), every
    positive integer (Dirichlet) or every odd integer (antiperiodic) with
    j^2 <= m_max; larger labels are ignored. The number of odd components of
    a triple is m mod 4. _odd_classes counts the triples with an odd
    component. The all-even triples, at m = 4t, are the triples of the halved
    even labels at t, which are the labels again: r3[4t] = r3[t], copied up
    from the smallest t. Antiperiodic labels are all odd: one residue class.
    """
    # int32 holds every count: a pair (a, b) with a^2 + b^2 <= m and the sign of
    # c fix a triple, so r3[m] <= 2 (2 sqrt(m) + 1)^2, under 10^8 below MAX_CUBE_NORMS
    if m_max < 8:
        return np.bincount(disc_sums([j, j, j], m_max), minlength=m_max + 1).astype(np.int32)
    r3 = np.zeros(m_max + 1, dtype=np.int32)
    odd = j % 2 == 1
    jo, half = j[odd], j[~odd] // 2
    jo, half = jo[jo * jo <= m_max], half[4 * half * half <= m_max]
    _odd_classes(r3, jo, half, m_max)
    r3[0], lo = np.count_nonzero(j == 0) ** 3, 1
    while half.size and lo <= m_max >> 2:  # r3[t] with 4 | t was filled by the pass before
        hi = min(4 * lo, (m_max >> 2) + 1)
        r3[4 * lo:4 * hi:4], lo = r3[lo:hi], hi
    return r3


def _cube_counts(bc, m_max):
    """r3[m] of a cube's labels for m <= m_max, read-only, in the smallest
    unsigned dtype that holds them (uint16 for the 1 cm cubes, at most uint32
    below MAX_CUBE_NORMS). They do not depend on the side."""
    _, offset, _ = quantization(bc)
    scale = 2 if offset else 1
    _, n = axis_wavenumbers(1.0, bc, math.isqrt(m_max) + 1)  # the labels only
    r3 = _exact_counts_by_convolution(scale * n + int(scale * offset), m_max)
    counts = r3.astype(np.min_scalar_type(r3.max()))
    counts.flags.writeable = False
    return counts


def cube_binned_density(side, bc: BoundaryCondition, T, delta_omega, omega_max):
    """Binned spectrum of a cube via exact integer-lattice multiplicities.

    For a cube the eigenfrequencies are sqrt(integer) times a fixed unit, so
    the spectrum is aggregated over integer norms instead of scanning
    O((omega_max L / c)^3) lattice points. The result has the bins and zero
    pattern of binned_density(enumerate_box_modes(...)) and its values to
    ~1e-14 relative (unit*sqrt(m) rounds differently from the scan's c*|k|),
    but stays cheap for desk-scale cavities as large as centimeters. More
    than MAX_CUBE_NORMS integer norms, or more than MAX_BINS bins, raise
    ResourceLimitError before the norm arrays exist. The counts of the last
    (bc, norm bound) are kept (geometry._kept_table): a call at another T or
    bin width only bins them, and one at a new key drops them before building.
    A density beyond the float range raises ValueError.
    """
    side = finite_real(side, "side must be finite and > 0")
    omega_max = finite_real(omega_max, "omega_max must be finite and > 0")
    T = finite_real(T, _T_MESSAGE)
    unit = _cube_unit(side, bc)
    m_max = _norm_bound(omega_max, unit)
    volume = side * side * side  # BoxGeometry.volume; inf past ~1e102, refused by the norm cap
    layout = _bin_layout(omega_max, delta_omega, volume)
    r3 = _kept_table("cube", (bc, m_max), m_max, lambda m: _cube_counts(bc, m))
    # binned a block of norms at a time, in norm order
    energy_sums = np.zeros(layout[0])
    for lo in range(1, m_max + 1, BLOCK):  # periodic zero mode excluded
        block = r3[lo:lo + BLOCK]
        m = np.flatnonzero(block)
        om = unit * np.sqrt((m + lo).astype(float))
        keep = om <= omega_max
        # 2 polarizations, doubled in int64 so a narrow count cannot overflow
        _bin_into(energy_sums, om[keep], 2 * block[m[keep]].astype(np.int64), T, delta_omega)
    return _spectrum(energy_sums, delta_omega, volume, layout)

