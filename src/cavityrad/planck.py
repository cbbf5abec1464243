"""Planck spectral quantities for the infinite cavity and the Weyl asymptotics.

The spectral energy density u(omega, T) is energy per unit volume per unit
angular frequency, J s/(rad m^3). Everything is expressed through the mean
thermal oscillator energy so that the omega -> 0 limits are analytic instead
of NaN (grids routinely contain omega = 0). The Planck density is the A = M = 0
case of the three-term Weyl density, which is signed and intentionally not
clamped: its negative values at small cavity sizes are a physical finding.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .geometry import GeometryDescriptors
from .validate import finite_array, finite_density, finite_real, instance_of

__all__ = [
    "mean_oscillator_energy",
    "planck_density",
    "weyl_density",
    "radiation_constant",
    "planck_total_energy_density",
    "planck_energy_fraction_below",
    "planck_peak_frequency",
]

_D0 = GeometryDescriptors(V=1.0, A=0.0, M=0.0)  # the infinite cavity: no surface or edges

#: Stefan-Boltzmann-type radiation constant a in u_total = a T^4, J/(m^3 K^4)
radiation_constant = math.pi**2 * K_B**4 / (15.0 * HBAR**3 * C_LIGHT**3)

# Total of the dimensionless spectrum integral(x^3/(e^x - 1), 0, inf)
_TOTAL_X3 = math.pi**4 / 15.0

# Bernoulli numbers B_2, B_4, ..., B_32 as exact fractions (DLMF 24.2)
_BERNOULLI_EVEN = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322), (-7709321041217, 510),
)

# B_2j/((2j)! (2j+3)), highest j first for Horner; int/int division rounds once
_DEBYE_COEFFS = tuple(
    p / (q * math.factorial(2 * j) * (2 * j + 3))
    for j, (p, q) in reversed(list(enumerate(_BERNOULLI_EVEN, 1)))
)

# below this x the Bernoulli series is used, above it the exponential tail;
# there the series ratio is (x/2pi)^2 ~ 0.1, the 16 terms truncate below
# 1e-17 relative and the tail needs ~35 terms
_SERIES_X_MAX = 2.0

# the message of every temperature refusal, binned's cube included
_T_MESSAGE = "temperature must be > 0 and finite"


def _validate(omega, T):
    return finite_array(omega, "omega must be finite and >= 0"), finite_real(T, _T_MESSAGE)


def mean_oscillator_energy(omega, T):
    """Mean thermal energy of an oscillator at angular frequency omega.

    Parameters
    ----------
    omega : float or array_like
        Angular frequency in rad/s, >= 0.
    T : float
        Temperature in K, > 0.

    Returns
    -------
    float or ndarray
        hbar*omega / (exp(hbar*omega/(k_B T)) - 1) in J; the x -> 0 limit
        k_B*T is returned where x = hbar*omega/(k_B T) is 0 or below ~5.6e-309.
    """
    omega, T = _validate(omega, T)
    # exp(-x)/(1 - exp(-x)) is stable for every x > 0, unlike 1/expm1(x); it
    # overflows for those x, and is nan at 0/0 (k_B*T underflows at omega = 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = HBAR * omega / (K_B * T)
        occ = np.exp(-x) / (-np.expm1(-x))
        out = np.where(np.isfinite(occ), HBAR * omega * occ, K_B * T)
    return float(out) if out.ndim == 0 else out


def weyl_density(omega, T, desc: GeometryDescriptors):
    """Three-term Weyl asymptotic spectral density, signed, J s/(rad m^3).

    (hbar w^3/(pi^2 c^3) - (A/V) hbar w^2/(4 pi c^2) + (M/V) hbar w/(3 pi^2 c))
    / (e^{hbar w/k_B T} - 1), written through the mean oscillator energy so
    omega = 0 returns the analytic limit; A = M = 0 is the Planck density.
    Negative values are returned as computed; where the mean energy is 0 the
    density is 0.0, however large omega**2 is. A density beyond the float
    range raises ValueError. Computed in float64 for any dtype of omega.
    """
    instance_of(desc, GeometryDescriptors, "desc")
    omega, T = _validate(omega, T)
    energy = mean_oscillator_energy(omega, T)
    omega = np.where(energy > 0.0, omega, 0.0)  # there omega**2 may be inf, and inf * 0 nan
    with np.errstate(over="ignore", invalid="ignore"):  # refused by finite_density
        dos = (
            omega**2 / (math.pi**2 * C_LIGHT**3)
            - (desc.A / desc.V) * omega / (4.0 * math.pi * C_LIGHT**2)
            + (desc.M / desc.V) / (3.0 * math.pi**2 * C_LIGHT)
        )
        out = finite_density(dos * energy)
    return float(out) if out.ndim == 0 else out


def planck_density(omega, T):
    """Planck spectral energy density, J s/(rad m^3): weyl_density at A = M = 0."""
    return weyl_density(omega, T, _D0)


def planck_total_energy_density(T):
    """Closed-form total energy density a*T^4 in J/m^3; ValueError past the float range."""
    T = finite_real(T, _T_MESSAGE)
    try:
        return radiation_constant * T**4
    except OverflowError:  # T**4 overflows from ~1.16e77 K, a*T^4 only from ~2.2e80 K
        return finite_density(radiation_constant * T * T * T * T)


def _series_integral(x):
    # integral(t^3/(e^t - 1), 0, x)
    #   = x^3/3 - x^4/8 + sum_j B_2j x^(2j+3)/((2j)! (2j+3)), for x < 2 pi
    y = x * x
    s = 0.0
    for c in _DEBYE_COEFFS:
        s = (s + c) * y
    return x**3 * (1.0 / 3.0 - x / 8.0 + s)


def _tail_integral(x0, terms=60):
    # integral(x^3 e^{-n x}) from x0 summed over n >= 1; converges in a few terms
    total = 0.0
    for n in range(1, terms + 1):
        e = math.exp(-n * x0)
        term = e * (x0**3 / n + 3 * x0**2 / n**2 + 6 * x0 / n**3 + 6 / n**4)
        total += term
        if term < 1e-30 * max(total, 1e-300):
            break
    return total


def planck_energy_fraction_below(omega_max, T):
    """Fraction of the total Planck energy carried below omega_max.

    In the dimensionless variable x = hbar*omega/(k_B T) this is
    integral(t^3/(e^t - 1), 0, x) / (pi^4/15), evaluated in closed form: up
    to x = 2 by the Bernoulli (Debye) power series (Abramowitz & Stegun
    27.1), above it as 1 minus the exponential series of the remainder
    integral(t^3/(e^t - 1), x, inf). Either agrees with an independent
    quadrature to about 1e-15 relative. The fraction is 0.0 at omega_max = 0,
    and 1.0 where x is infinite (k_B*T underflows) or e^{-x} underflows.
    omega_max is a scalar, as T is.
    """
    omega_max = finite_real(omega_max, "omega_max must be finite and >= 0", inclusive=True)
    T = finite_real(T, _T_MESSAGE)
    if omega_max == 0.0:  # where k_B*T may underflow to 0 as well
        return 0.0
    x_max = HBAR * omega_max / (K_B * T) if K_B * T > 0.0 else math.inf
    if x_max <= _SERIES_X_MAX:
        return _series_integral(x_max) / _TOTAL_X3
    # where e^{-x} underflows the tail is 0, and x_max**3 in it may overflow
    return 1.0 - _tail_integral(x_max) / _TOTAL_X3 if math.exp(-x_max) > 0.0 else 1.0


def planck_peak_frequency(T):
    """Angular frequency maximizing planck_density at temperature T.

    The peak solves 3*(1 - e^{-x}) = x in x = hbar*omega/(k_B T). A peak
    beyond the float range raises ValueError.
    """
    T = finite_real(T, _T_MESSAGE)
    x = 2.8214393721220787  # the root in double precision: a Newton step from it is -0.0
    return finite_real(x * K_B * T / HBAR, "the peak frequency exceeds the float range",
                       inclusive=True)
