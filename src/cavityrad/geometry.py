"""Cavity geometries, boundary conditions and Weyl geometry descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .validate import finite_real

__all__ = [
    "BoundaryCondition",
    "quantization",
    "axis_bound",
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


def axis_bound(L, bc, k_max):
    """Label bound m of one axis covering |k| <= k_max, and the axis size.

    The axis holds the labels with |n + offset| <= m (two-sided) or 1 <= n <= m.
    Both are floats, so a cutoff too large for any array yields a huge or
    infinite size to refuse instead of an overflow.
    """
    period, offset, two_sided = quantization(bc)
    m = float(np.ceil(k_max * L / period + offset)) + 1.0
    if not two_sided:
        return m, m
    return m, 2.0 * m + (1.0 if offset == 0.0 else 0.0)  # n = 0 has no mirror at offset 0


def axis_wavenumbers(L, bc, m):
    """Wavenumbers and their integer labels n on one axis with label bound m."""
    period, offset, two_sided = quantization(bc)
    m = int(m)
    if not two_sided:
        n = np.arange(1, m + 1)
    else:
        n = np.arange(-m, m + 1 if offset == 0.0 else m)
    return period * (n + offset) / L, n


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
        return 4.0 / 3.0 * math.pi * self.radius**3


@dataclass(frozen=True)
class GeometryDescriptors:
    """Volume V (m^3), surface area A (m^2) and integrated mean curvature M (m).

    M is the surface integral of (kappa_1 + kappa_2)/2; for polyhedra it
    concentrates on the edges as sum(edge length * exterior angle)/2, which
    gives pi*(L1 + L2 + L3) for a box.
    """

    V: float
    A: float
    M: float


def descriptors_for(geom):
    """Weyl descriptors (V, A, M) for a box or a sphere."""
    if isinstance(geom, BoxGeometry):
        l1, l2, l3 = geom.L1, geom.L2, geom.L3
        return GeometryDescriptors(
            V=l1 * l2 * l3,
            A=2.0 * (l1 * l2 + l2 * l3 + l3 * l1),
            M=math.pi * (l1 + l2 + l3),
        )
    if isinstance(geom, SphereGeometry):
        r = geom.radius
        return GeometryDescriptors(
            V=4.0 / 3.0 * math.pi * r**3,
            A=4.0 * math.pi * r**2,
            M=4.0 * math.pi * r,
        )
    raise TypeError("descriptors are defined for BoxGeometry and SphereGeometry only")
