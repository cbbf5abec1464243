"""Exact discrete eigenfrequency enumeration for closed cavities.

Boxes: omega = c*k with k from the quantization rule of the boundary
condition (integers, half-integers, or positive integers over pi/L_i).
Spheres: scalar Dirichlet eigenvalues omega = c*x_{n,l}/R over the zeros of
the spherical Bessel functions, each carrying the (2l+1) harmonic
degeneracy.

Every multiplicity carries a global polarization factor 2, which is what
makes the large-cavity limit of the binned spectrum converge to the Planck
formula (whose density V omega^2/(pi^2 c^3) counts both polarizations).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C_LIGHT
from .geometry import (BLOCK, CUT_MARGIN, DEFAULT_LATTICE_CAP, BoundaryCondition, BoxGeometry,
                       SphereGeometry, _Record, _box_bounds, _sphere_x_max, axis_wavenumbers,
                       disc_sums, fold_signs)
from .planck import mean_oscillator_energy
from .validate import finite_real, instance_of, nonnegative_int

__all__ = ["ModeList", "enumerate_box_modes", "enumerate_sphere_modes", "MERGE_RTOL"]

#: relative tolerance below which neighbouring frequencies merge into one entry
MERGE_RTOL = 1e-12


class ModeList(_Record):
    """Sorted discrete spectrum: (omega_i, N_i) pairs below a cutoff.

    omegas is strictly increasing, multiplicities are positive even integers
    (the polarization factor 2 is included), and the list is complete below
    omega_max.
    """

    _fields = ("omegas", "multiplicities", "omega_max")

    def __len__(self):
        return len(self.omegas)

    @property
    def total_mode_count(self):
        """N(<= omega_max): total number of modes including multiplicity."""
        return int(self.multiplicities.sum())

    def thermal_energy(self, T):
        """Total thermal energy sum(N_i * eps(omega_i, T)) in J."""
        return float(np.sum(self.multiplicities * mean_oscillator_energy(self.omegas, T)))


def _merge_weighted(omegas, weights=None):
    """Sort and merge entries whose neighbour gap is below MERGE_RTOL.

    Chain convention: consecutive values whose gap is <= rtol*left merge into
    one group represented by its smallest member; weights are summed. Without
    weights every entry counts 1, so a plain sort and the run lengths of the
    groups replace the stable argsort and gather.
    """
    if weights is None:
        om = np.sort(omegas)
    else:
        order = np.argsort(omegas, kind="stable")
        om, weights = omegas[order], weights[order]
    if om.size == 0:
        return om, np.zeros(0, dtype=np.int64)
    new_group = np.empty(om.size, dtype=bool)
    new_group[0] = True
    for lo in range(0, om.size - 1, BLOCK):  # blocks bound the gap arrays' memory
        hi = min(lo + BLOCK, om.size - 1)
        new_group[lo + 1:hi + 1] = np.diff(om[lo:hi + 1]) > MERGE_RTOL * om[lo:hi]
    starts = np.flatnonzero(new_group)
    counts = (np.diff(starts, append=om.size) if weights is None
              else np.add.reduceat(weights, starts))
    return om[starts], counts.astype(np.int64, copy=False)


def enumerate_box_modes(geom: BoxGeometry, bc: BoundaryCondition, omega_max,
                        max_lattice_points=DEFAULT_LATTICE_CAP):
    """Every box eigenfrequency omega = c*k <= omega_max as a ModeList.

    Frequencies agreeing within 1e-12 relative merge with summed
    multiplicities, then every multiplicity is doubled for polarization.
    The periodic (0,0,0) zero mode is excluded. Periodic and antiperiodic
    scans visit one sign of each component (fold_signs). A cutoff implying more
    points of the full signed bounding lattice than max_lattice_points, an
    integer >= 0, raises ResourceLimitError naming that count.
    """
    omega_max = finite_real(omega_max, "omega_max must be finite and > 0")
    cap = nonnegative_int(max_lattice_points, "max_lattice_points must be a nonnegative integer")
    bounds = _box_bounds(geom, bc, omega_max, cap)
    ks, weights = fold_signs([axis_wavenumbers(L, bc, m)[0]
                              for L, m in zip(geom._astuple(), bounds)])
    k_max = omega_max / C_LIGHT
    s_cap = (k_max * k_max) * CUT_MARGIN  # superset; exact filter in omega below
    s, w = disc_sums(ks, s_cap, weights) if weights else (disc_sums(ks, s_cap), None)
    om = C_LIGHT * np.sqrt(s)
    keep = (s > 0.0) & (om <= omega_max)  # the periodic zero mode carries no energy
    del s  # the sums are not needed while the merge sorts a copy of om
    om, w = om[keep], (None if w is None else w[keep])
    om_u, counts = _merge_weighted(om, w)
    return ModeList(om_u, 2 * counts, omega_max)


def enumerate_sphere_modes(geom: SphereGeometry, omega_max):
    """Scalar Dirichlet sphere spectrum omega = c*x_{n,l}/R as a ModeList.

    Each Bessel zero contributes multiplicity 2*(2l+1): the spherical
    harmonic degeneracy times the global polarization factor. An estimate of
    DEFAULT_LATTICE_CAP zeros or more raises ResourceLimitError.
    """
    instance_of(geom, SphereGeometry, "geom")
    omega_max = finite_real(omega_max, "omega_max must be finite and > 0")
    radius = geom.radius
    x_max = _sphere_x_max(geom, omega_max)
    if x_max < math.pi:  # no zero; also an x_max that underflows to 0, which the table refuses
        return ModeList(np.empty(0), np.empty(0, dtype=np.int64), omega_max)
    from .bessel import build_bessel_zero_table  # only a sphere needs the Bessel module
    table = build_bessel_zero_table(x_max)
    omegas, weights = [], []
    for l, zeros in enumerate(table.zeros_by_l):
        om = C_LIGHT * zeros / radius
        om = om[om <= omega_max]
        omegas.append(om)
        weights.append(np.full(om.size, 2 * (2 * l + 1), dtype=np.int64))
    om_u, counts = _merge_weighted(np.concatenate(omegas), np.concatenate(weights))
    return ModeList(om_u, counts, omega_max)
