"""Cavity geometries, boundary conditions and Weyl geometry descriptors."""

from __future__ import annotations

import math
from enum import Enum

# no module-level numpy: the CLI checks a request on these classes and caps before
# it loads numpy, so the functions that need numpy import it themselves
from .constants import C_LIGHT
from .errors import ResourceLimitError
from .validate import finite_real, instance_of

__all__ = [
    "BoundaryCondition",
    "quantization",
    "label_count",
    "CUT_MARGIN",
    "lattice_axes",
    "fold_signs",
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
    return _RULES[instance_of(bc, BoundaryCondition, "bc")]


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


#: default cap on the lattice points one box enumeration may scan, and on the
#: estimated Bessel zeros of one sphere; more raises ResourceLimitError
DEFAULT_LATTICE_CAP = 10**8

#: cap on the bins of one spectrum; more raises ResourceLimitError
MAX_BINS = 10**7

#: cap on the integer norms m_max of one cube spectrum; more raises
#: ResourceLimitError. At the cap a periodic or Dirichlet 1 cm cube spectrum takes
#: ~1.1 s and ~0.19 GB peak RSS on a 2-vCPU Xeon VM (antiperiodic ~0.5 s, ~0.15 GB).
MAX_CUBE_NORMS = 10**7

# The caps below are arithmetic on a request's numbers, so the CLI decides
# them before numpy loads; the compute functions call the same checks.


def _lattice_bounds(lengths, bc, k_cap, cap, what):
    """Label bound m_i of each axis of a box covering |k_i| <= k_cap.

    Axis i holds the labels with |n + offset| <= m_i (two-sided) or
    1 <= n <= m_i. The bounding box's points are counted in floats (an
    infinite bound stays inf) and compared with cap, so a cutoff too large
    for any array raises ResourceLimitError(required, cap, what).
    """
    period, offset, _ = quantization(bc)
    edges = [k_cap * L / period + offset for L in lengths]
    bounds = [(math.ceil(e) if math.isfinite(e) else e) + 1.0 for e in edges]
    required = math.prod(label_count(m, bc) for m in bounds)
    if not required <= cap:
        raise ResourceLimitError(required, cap, what)
    return bounds


def lattice_axes(lengths, bc, k_cap, cap, what):
    """axis_wavenumbers of each axis of a box covering |k_i| <= k_cap, on the
    label bounds of _lattice_bounds, which refuses before an int or an array exists."""
    return [axis_wavenumbers(L, bc, m)
            for L, m in zip(lengths, _lattice_bounds(lengths, bc, k_cap, cap, what))]


def _box_bounds(geom, bc, omega_max, cap=DEFAULT_LATTICE_CAP):
    """_lattice_bounds of a box's lattice points with omega = c*|k| <= omega_max."""
    instance_of(geom, BoxGeometry, "geom")
    return _lattice_bounds(geom._astuple(), bc, omega_max / C_LIGHT, cap, "lattice points")


def _sphere_x_max(geom, omega_max):
    """x_max = omega_max*R/c, the largest Bessel zero below a sphere's cutoff.

    An estimate of DEFAULT_LATTICE_CAP zeros or more raises ResourceLimitError.
    """
    x_max = omega_max * geom.radius / C_LIGHT
    estimate = x_max * x_max / 8.0 + x_max  # zero-count estimate; may be inf
    if not estimate < DEFAULT_LATTICE_CAP:
        raise ResourceLimitError(int(estimate) + 1 if math.isfinite(estimate) else estimate,
                                 DEFAULT_LATTICE_CAP, "Bessel zeros")
    return x_max


def _cube_unit(side, bc):
    """The unit of a cube's frequencies unit*sqrt(m), m an integer norm: k =
    period*(n + offset)/side = (unit/c)*j with the integer j = scale*(n + offset)."""
    period, offset, _ = quantization(bc)
    return period / (2 if offset else 1) * C_LIGHT / side


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


def _bin_layout(omega_max, delta_omega, volume):
    """Checked bin count and partial flag, before any mode or bin array exists."""
    if not (delta_omega > 0 and volume > 0):
        raise ValueError("delta_omega and volume must be > 0, got delta_omega=%r, "
                         "volume=%r" % (delta_omega, volume))
    q = omega_max / delta_omega
    if not q <= MAX_BINS:
        raise ResourceLimitError(math.ceil(q) if math.isfinite(q) else q, MAX_BINS,
                                 "frequency bins")
    if not 0.0 < volume * delta_omega < math.inf:  # the divisor of every bin
        raise ValueError("volume * delta_omega must be a positive finite product, got "
                         "delta_omega=%r, volume=%r" % (delta_omega, volume))
    q_round = round(q)
    if q_round >= 1 and abs(q - q_round) <= 1e-9 * q:
        return int(q_round), False
    return int(math.ceil(q)), True  # last bin padded past omega_max


def axis_wavenumbers(L, bc, m):
    """Wavenumbers and their integer labels n on one axis with label bound m."""
    import numpy as np
    period, offset, two_sided = quantization(bc)
    m = int(m)
    n = np.arange(label_count(m, bc)) + (-m if two_sided else 1)  # from the first label
    with np.errstate(over="ignore"):  # an infinite k is never admitted
        return period * (n + offset) / L, n


def fold_signs(axes):
    """(values, counts): each axis's distinct |value|, ascending, and their counts.

    P and AP wavenumbers and labels pair up as exact negations, so a scan of the
    folded axes weighted by the count products is the signed scan's multiset.
    Axes with no negative value (Dirichlet) come back unchanged, with None.
    """
    import numpy as np
    if not any((a < 0).any() for a in axes):
        return axes, None
    folded = [np.unique(np.abs(a), return_counts=True) for a in axes]
    return [v for v, _ in folded], [w for _, w in folded]


def disc_sums(axes, cap, weights=None):
    """Every sum k_1^2 + ... + k_d^2 <= cap over the axes, in row-major order.

    The last axis is cut first, then each earlier axis is added as one
    broadcast and the sums cut again; each cut is exact, because adding a
    square >= 0 never lowers a float sum. The association is
    k_1^2 + (k_2^2 + k_3^2). Works on float wavenumbers and integer labels.
    With one weight array per axis, the products of the weights go through
    the same cuts and (sums, weights) is returned.
    """
    import numpy as np

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


class _Record:
    """A frozen value record of the fields named in _fields, built as a frozen
    dataclass is but with no code generated at import.

    The fields bind from positional or keyword arguments, then __post_init__
    runs. Assigning or deleting an attribute raises AttributeError. ==, hash
    and repr go by the field tuple, _astuple(), and == holds only within one
    class. The fields live in the instance __dict__, so pickle and copy restore
    an instance without __setattr__.
    """

    _fields = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError("%s takes the fields %s, each once"
                            % (type(self).__name__, ", ".join(self._fields)))
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self._astuple())))


class _Lengths(_Record):
    """A record of positive finite lengths, floats so numpy cannot leak float32 math."""

    def __post_init__(self):
        message = "%s must be a positive finite length" % ", ".join(self._fields)
        for name in self._fields:
            self.__dict__[name] = finite_real(self.__dict__[name], message)


class FilmGeometry(_Lengths):
    """Two infinite parallel plates a distance L1 apart (m)."""

    _fields = ("L1",)


class RodGeometry(_Lengths):
    """Infinite rod with finite transverse cross-section L1 x L2 (m)."""

    _fields = ("L1", "L2")


class BoxGeometry(_Lengths):
    """Closed rectangular box with edge lengths L1, L2, L3 (m)."""

    _fields = ("L1", "L2", "L3")

    @property
    def volume(self):
        return self.L1 * self.L2 * self.L3


class SphereGeometry(_Lengths):
    """Closed sphere of the given diameter (m)."""

    _fields = ("diameter",)

    @property
    def radius(self):
        return 0.5 * self.diameter

    @property
    def volume(self):
        try:
            return 4.0 / 3.0 * math.pi * self.radius**3
        except OverflowError:  # past the float range: inf, as BoxGeometry.volume
            return math.inf


class GeometryDescriptors(_Record):
    """Volume V (m^3), surface area A (m^2) and integrated mean curvature M (m).

    M is the surface integral of (kappa_1 + kappa_2)/2; for polyhedra it
    concentrates on the edges as sum(edge length * exterior angle)/2, which
    gives pi*(L1 + L2 + L3) for a box. V must be positive and finite, A and M
    finite; A = M = 0 is the Planck density.
    """

    _fields = ("V", "A", "M")

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
