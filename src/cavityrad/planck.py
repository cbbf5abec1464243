"""Planck spectral quantities for the infinite cavity.

The spectral energy density u(omega, T) is energy per unit volume per unit
angular frequency, J s/(rad m^3). Everything is expressed through the mean
thermal oscillator energy so that the omega -> 0 limits are analytic instead
of NaN (grids routinely contain omega = 0).
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .validate import finite_real

__all__ = [
    "mean_oscillator_energy",
    "planck_density",
    "radiation_constant",
    "planck_total_energy_density",
    "planck_energy_fraction_below",
    "planck_peak_frequency",
]

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


def _validate(omega, T):
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega must be finite")
    if np.any(omega < 0.0):
        raise ValueError("omega must be >= 0")
    T = finite_real(T, "temperature must be a finite number", lower=-math.inf)
    if T <= 0.0:
        raise ValueError("temperature must be > 0")
    return omega, T


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


def planck_density(omega, T):
    """Planck spectral energy density of the infinite cavity, J s/(rad m^3)."""
    omega, T = _validate(omega, T)
    out = omega**2 / (math.pi**2 * C_LIGHT**3) * mean_oscillator_energy(omega, T)
    return float(out) if out.ndim == 0 else out


def planck_total_energy_density(T):
    """Closed-form total energy density a*T^4 in J/m^3."""
    _, T = _validate(0.0, T)
    return radiation_constant * T**4


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
    quadrature to about 1e-15 relative.
    """
    omega_max, T = _validate(omega_max, T)
    if omega_max.ndim != 0:
        raise ValueError("omega_max must be scalar")
    x_max = HBAR * float(omega_max) / (K_B * T)
    if x_max <= _SERIES_X_MAX:
        return _series_integral(x_max) / _TOTAL_X3
    return 1.0 - _tail_integral(x_max) / _TOTAL_X3


def planck_peak_frequency(T):
    """Angular frequency maximizing planck_density at temperature T.

    The peak solves 3*(1 - e^{-x}) = x in x = hbar*omega/(k_B T).
    """
    _, T = _validate(0.0, T)
    x = 2.8214393721220787  # the root in double precision: a Newton step from it is -0.0
    return x * K_B * T / HBAR
