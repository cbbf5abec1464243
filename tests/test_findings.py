"""The paper's findings in numbers, against closed forms.

x = L/lambda_T with lambda_T = hbar*c/(k_B*T). A Dirichlet film's total
energy carries a surface term: E/E_Planck - 1 = -(A/V)*pi*zeta(3)*lambda_T/(12*zeta(4))
with A/V = 2/L, so x*(E/E_Planck - 1) tends to -pi*zeta(3)/(6*zeta(4)).

Periodic and antiperiodic films have no surface term; their excess falls as
x^-4. In units hbar = c = k_B = 1, beta = 1/T, per polarization, the free
energy density of the film's field, vacuum included, is the image sum

    f = -1/(2 pi^2) * sum over (m, n) != (0, 0) of s^n / ((m beta)^2 + (n L)^2)^2

with s = 1 (periodic) or s = -1 (antiperiodic), and u = d(beta f)/d(beta).
* n = 0 is Planck: f = -pi^2 T^4/90, u_Planck = pi^2 T^4/30.
* m = 0 is the vacuum (Casimir) energy of the compact dimension,
  eps_C = -1/pi^2 * sum_{n>=1} s^n/(n L)^4: -zeta(4)/(pi^2 L^4) periodic,
  +eta(4)/(pi^2 L^4) = +(7/8) zeta(4)/(pi^2 L^4) antiperiodic.
* For m, n != 0, Poisson summation over m gives
  sum_m ((m beta)^2 + b^2)^-2 = pi/(2 beta b^3) * (1 + 2 (1 + 2 pi b/beta) e^(-2 pi b/beta) + ...)
  at b = |n| L: beta f gets a beta-free term, which carries no energy, and
  u_corr = -s * 4 pi x e^(-2 pi x)/(L^2 beta^2) + O(e^(-4 pi x)).
The film's thermal energy, E = u - eps_C, then has
    x^4 (E/E_Planck - 1) = -x^4 eps_C/u_Planck - s * (120/pi) x^3 e^(-2 pi x)
                         = 1/3 (periodic) or -(7/8)/3 (antiperiodic), each plus that term:
the thermal correction cancels the Casimir energy of one compact dimension,
(lambda_T/L)^4/3 of Planck, and an antiperiodic dimension carries
-eta(4)/zeta(4) = -7/8 of it.

Claim (c), the Dirichlet asymptotic formula fails for a small cavity, is
checked on the sphere, x = D/lambda_T. weyl_density integrates in closed
form, with integral(t^n/(e^t - 1), 0, inf) = n! zeta(n + 1):

    E_Weyl = V a T^4 - A hbar 2 zeta(3) (k_B T/hbar)^3/(4 pi c^2) + M k_B T (k_B T/hbar)/(18 c).
"""

import math

import pytest

from cavityrad import (
    C_LIGHT,
    HBAR,
    K_B,
    BoundaryCondition,
    FilmGeometry,
    SphereGeometry,
    descriptors_for,
    enumerate_sphere_modes,
    film_density,
    planck_total_energy_density,
    quadrature_total_energy,
    weyl_density,
)
from cavityrad.geometry import quantization

ZETA3 = 1.2020569031595942
ZETA4 = math.pi**4 / 90.0
DIRICHLET_FILM_COEFFICIENT = -math.pi * ZETA3 / (6.0 * ZETA4)  # -0.581523...

#: quadrature_total_energy's default relative tolerance, which bounds the error of E
QUADRATURE_RTOL = 1e-10


def film_excess(x, bc, T=300.0):
    """E/E_Planck - 1 of a film of thickness x*lambda_T, by quadrature."""
    geom = FilmGeometry(x * HBAR * C_LIGHT / (K_B * T))
    omega_max = 60.0 * K_B * T / HBAR  # the Planck tail beyond it is ~e^-60
    # the mode count jumps at each period*(n + offset)*c/L; the quadrature needs every
    # jump as an edge
    period, offset, _ = quantization(bc)
    step = period * C_LIGHT / geom.L1
    thresholds = [(n + offset) * step for n in range(int(omega_max / step) + 1)]
    energy = quadrature_total_energy(lambda w: film_density(w, T, geom, bc), omega_max,
                                     thresholds=thresholds, rel_tol=QUADRATURE_RTOL)
    return energy / planck_total_energy_density(T) - 1.0


@pytest.mark.parametrize("x", [5.0, 10.0, 30.0])
def test_dirichlet_film_surface_coefficient(x):
    coefficient = x * film_excess(x, BoundaryCondition.DIRICHLET)
    assert abs(coefficient - DIRICHLET_FILM_COEFFICIENT) < 1e-3


@pytest.mark.parametrize("x", [3.0, 4.0])
def test_compact_film_dimension_cancels_its_casimir_energy(x):
    # the e^(-2 pi x) image term of the docstring: 6.7e-6 at x = 3, 3.0e-8 at x = 4
    image = 120.0 / math.pi * x**3 * math.exp(-2.0 * math.pi * x)
    # E is converged to QUADRATURE_RTOL relative; x^4 scales that, with a 10x margin.
    # The e^(-4 pi x) terms left out are below 1e-14 here.
    tol = 10.0 * QUADRATURE_RTOL * x**4
    periodic = x**4 * film_excess(x, BoundaryCondition.PERIODIC)
    antiperiodic = x**4 * film_excess(x, BoundaryCondition.ANTIPERIODIC)
    assert abs(periodic - (1.0 / 3.0 - image)) < tol
    assert abs(antiperiodic - (-7.0 / 8.0 / 3.0 + image)) < tol
    # so the ratio tends to -7/8, off by about 3/8 of the image term
    assert abs(antiperiodic / periodic + 7.0 / 8.0) < image


def weyl_total_energy(desc, T):
    """The three-term Weyl total energy of the module docstring, J."""
    w_T = K_B * T / HBAR
    return (desc.V * planck_total_energy_density(T)
            - desc.A * HBAR * 2.0 * ZETA3 * w_T**3 / (4.0 * math.pi * C_LIGHT**2)
            + desc.M * K_B * T * w_T / (18.0 * C_LIGHT))


def thermal_sphere(x, T=300.0):
    return SphereGeometry(x * HBAR * C_LIGHT / (K_B * T))


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_weyl_total_energy_closed_form(x):
    T, desc = 300.0, descriptors_for(thermal_sphere(x))
    quadrature = desc.V * quadrature_total_energy(
        lambda w: weyl_density(w, T, desc), 60.0 * K_B * T / HBAR, rel_tol=QUADRATURE_RTOL)
    assert quadrature == pytest.approx(weyl_total_energy(desc, T), rel=1e-9)


#: x = D/lambda_T of the sphere check
SPHERE_GRID = [0.5 + 0.25 * i for i in range(39)]  # 0.5, 0.75, ..., 10


def test_sphere_weyl_total_holds_from_a_few_thermal_wavelengths():
    T, weyl, planck = 300.0, {}, {}
    for x in SPHERE_GRID:
        geom = thermal_sphere(x, T)
        # the Planck tail beyond 40 k_B T/hbar is ~5e-14 of the total
        exact = enumerate_sphere_modes(geom, 40.0 * K_B * T / HBAR).thermal_energy(T)
        weyl[x] = exact / weyl_total_energy(descriptors_for(geom), T) - 1.0
        planck[x] = exact / (geom.volume * planck_total_energy_density(T)) - 1.0

    def first_within(tol):
        """The smallest grid x from which every larger grid x is within tol of Weyl."""
        return min(x for x in SPHERE_GRID
                   if all(abs(weyl[y]) < tol for y in SPHERE_GRID if y >= x))

    assert first_within(0.10) == 1.75
    assert first_within(0.01) == 3.25
    for x, value in [(1.5, -0.1671), (2.0, -0.0504), (3.0, -0.0101), (5.0, -0.0016)]:
        assert weyl[x] == pytest.approx(value, abs=1e-4)
    # the exact energy falls short of Weyl's everywhere, while at x = 10 it is
    # still 16% below Planck's: the surface term, which Weyl carries
    assert all(value < 0.0 for value in weyl.values())
    assert planck[10.0] == pytest.approx(-0.1645, abs=1e-4)
