"""Cavity geometries, boundary conditions and Weyl geometry descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ResourceLimitError
from .validate import finite_real

__all__ = [
    "BoundaryCondition",
    "quantization",
    "label_count",
    "CUT_MARGIN",
    "lattice_axes",
    "disc_sums",
    "axis_wavenumbers",
    "FilmGeometry",
    "RodGeometry",
    "BoxGeometry",
    "SphereGeometry",
    "GeometryDescriptors",
    "descriptors_for",
]


class BoundaryCondition(Enum):
    """Wavevector quantization rule on the constrained directions."""

    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"
    DIRICHLET = "dirichlet"


# k_n = period*(n + offset)/L on a constrained axis of length L, for every
# integer n (two-sided) or for n >= 1 only
_RULES = {
    BoundaryCondition.PERIODIC: (2.0 * math.pi, 0.0, True),
    BoundaryCondition.ANTIPERIODIC: (2.0 * math.pi, 0.5, True),
    BoundaryCondition.DIRICHLET: (math.pi, 0.0, False),
}


def quantization(bc):
    """(period, offset, two_sided) of the rule k_n = period*(n + offset)/L."""
    if not isinstance(bc, BoundaryCondition):
        raise TypeError("bc must be a BoundaryCondition")
    return _RULES[bc]


def label_count(m, bc):
    """Number of labels n with |n + offset| <= m (two-sided) or 1 <= n <= m.

    m is a whole number >= 0: an int, a float or a float array. Two-sided
    labels pair up as n and -n - 2*offset, and n = 0 is alone at offset 0, so
    the count is 2m + 1 (periodic), 2m (antiperiodic) or m (Dirichlet).
    """
    _, offset, two_sided = quantization(bc)
    return (2 * m + (0 if offset else 1)) if two_sided else m


#: relative margin of every cut on k^2 or on an integer norm: the cut keeps a
#: superset, and the exact filter runs on omega after the square root
CUT_MARGIN = 1.0 + 4e-16


def lattice_axes(lengths, bc, k_cap, cap, what):
    """axis_wavenumbers of each axis of a box covering |k_i| <= k_cap.

    Axis i holds the labels with |n + offset| <= m_i (two-sided) or
    1 <= n <= m_i. The bounding box's points are counted in floats and
    compared with cap, so a cutoff too large for any array raises
    ResourceLimitError(required, cap, what) before an int or an array exists.
    """
    period, offset, _ = quantization(bc)
    bounds = [float(np.ceil(k_cap * L / period + offset)) + 1.0 for L in lengths]
    required = math.prod(label_count(m, bc) for m in bounds)
    if not required <= cap:
        raise ResourceLimitError(required, cap, what)
    return [axis_wavenumbers(L, bc, m) for L, m in zip(lengths, bounds)]


def axis_wavenumbers(L, bc, m):
    """Wavenumbers and their integer labels n on one axis with label bound m."""
    period, offset, two_sided = quantization(bc)
    m = int(m)
    n = np.arange(label_count(m, bc)) + (-m if two_sided else 1)  # from the first label
    with np.errstate(over="ignore"):  # an infinite k is never admitted
        return period * (n + offset) / L, n


def disc_sums(axes, cap, weights=None):
    """Every sum k_1^2 + ... + k_d^2 <= cap over the axes, in row-major order.

    The last axis is cut first, then each earlier axis is added as one
    broadcast and the sums cut again; each cut is exact, because adding a
    square >= 0 never lowers a float sum. The association is
    k_1^2 + (k_2^2 + k_3^2). Works on float wavenumbers and integer labels.
    With one weight array per axis, the products of the weights go through
    the same cuts and (sums, weights) is returned.
    """
    def cut(s, w):
        keep = s <= cap
        return s[keep], (None if w is None else w[keep])

    with np.errstate(over="ignore"):  # an overflowed k^2 is inf and never admitted
        s, w = cut(axes[-1] ** 2, None if weights is None else weights[-1])
        for i in range(len(axes) - 2, -1, -1):
            s = (axes[i] ** 2)[:, None] + s[None, :]
            if w is not None:
                w = weights[i][:, None] * w[None, :]
            s, w = cut(s, w)
    return s if weights is None else (s, w)


#: elements per block of the blocked kernels (rod mode sums, cube pair counts,
#: cube norm binning, box-mode merge): 512 KiB of float64 bounds their scratch
BLOCK = 1 << 16

_kept = {}  # kind -> (key, bound, table): the one table of each kind kept between calls


def _kept_table(kind, key, bound, build):
    """build(bound), or the table of this kind kept between calls.

    A table kept for key up to bound b serves every later bound <= b. A miss
    on the kept key builds at max(bound, 2b), or at bound if that raises
    ResourceLimitError; a miss on another key builds at bound. The kind's
    old table is dropped before any build."""
    old_key, b = _kept.get(kind, (None, None))[:2]
    if old_key == key and b >= bound:
        return _kept[kind][2]
    cap = max(bound, 2 * b) if old_key == key else bound
    _kept.pop(kind, None)  # release the old table before building the next
    try:
        table = build(cap)
    except ResourceLimitError:  # refused before any array exists
        if cap == bound:  # a refused bound is not built again
            raise
        cap, table = bound, build(bound)
    _kept[kind] = (key, cap, table)
    return table


def _require_positive(geom, *names):
    # stores each length as a float, so numpy scalars cannot leak float32 math
    message = "%s must be a positive finite length" % ", ".join(names)
    for name in names:
        object.__setattr__(geom, name, finite_real(getattr(geom, name), message))


@dataclass(frozen=True)
class FilmGeometry:
    """Two infinite parallel plates a distance L1 apart (m)."""

    L1: float

    def __post_init__(self):
        _require_positive(self, "L1")


@dataclass(frozen=True)
class RodGeometry:
    """Infinite rod with finite transverse cross-section L1 x L2 (m)."""

    L1: float
    L2: float

    def __post_init__(self):
        _require_positive(self, "L1", "L2")


@dataclass(frozen=True)
class BoxGeometry:
    """Closed rectangular box with edge lengths L1, L2, L3 (m)."""

    L1: float
    L2: float
    L3: float

    def __post_init__(self):
        _require_positive(self, "L1", "L2", "L3")

    @property
    def volume(self):
        return self.L1 * self.L2 * self.L3


@dataclass(frozen=True)
class SphereGeometry:
    """Closed sphere of the given diameter (m)."""

    diameter: float

    def __post_init__(self):
        _require_positive(self, "diameter")

    @property
    def radius(self):
        return 0.5 * self.diameter

    @property
    def volume(self):
        try:
            return 4.0 / 3.0 * math.pi * self.radius**3
        except OverflowError:  # past the float range: inf, as BoxGeometry.volume
            return math.inf


@dataclass(frozen=True)
class GeometryDescriptors:
    """Volume V (m^3), surface area A (m^2) and integrated mean curvature M (m).

    M is the surface integral of (kappa_1 + kappa_2)/2; for polyhedra it
    concentrates on the edges as sum(edge length * exterior angle)/2, which
    gives pi*(L1 + L2 + L3) for a box. V must be positive and finite, A and M
    finite; A = M = 0 is the Planck density.
    """

    V: float
    A: float
    M: float

    def __post_init__(self):
        finite_real(self.V, "V must be a positive finite volume")
        for value in (self.A, self.M):
            finite_real(value, "A and M must be finite", lower=-math.inf)


def descriptors_for(geom):
    """Weyl descriptors (V, A, M) for a box or a sphere."""
    if isinstance(geom, BoxGeometry):
        l1, l2, l3 = geom.L1, geom.L2, geom.L3
        return GeometryDescriptors(
            V=geom.volume,
            A=2.0 * (l1 * l2 + l2 * l3 + l3 * l1),
            M=math.pi * (l1 + l2 + l3),
        )
    if isinstance(geom, SphereGeometry):
        V = finite_real(geom.volume, "V must be a positive finite volume")  # so r**2 is finite
        r = geom.radius
        return GeometryDescriptors(V=V, A=4.0 * math.pi * r**2, M=4.0 * math.pi * r)
    raise TypeError("descriptors are defined for BoxGeometry and SphereGeometry only")
