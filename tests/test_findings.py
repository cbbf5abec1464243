"""The paper's findings in numbers, against closed forms.

x = L/lambda_T with lambda_T = hbar*c/(k_B*T). A Dirichlet film's total
energy carries a surface term: E/E_Planck - 1 = -(A/V)*pi*zeta(3)*lambda_T/(12*zeta(4))
with A/V = 2/L, so x*(E/E_Planck - 1) tends to -pi*zeta(3)/(6*zeta(4)).
"""

import math

import pytest

from cavityrad import (
    C_LIGHT,
    HBAR,
    K_B,
    BoundaryCondition,
    FilmGeometry,
    film_density,
    planck_total_energy_density,
    quadrature_total_energy,
)

ZETA3 = 1.2020569031595942
ZETA4 = math.pi**4 / 90.0
DIRICHLET_FILM_COEFFICIENT = -math.pi * ZETA3 / (6.0 * ZETA4)  # -0.581523...


@pytest.mark.parametrize("x", [5.0, 10.0, 30.0])
def test_dirichlet_film_surface_coefficient(x):
    T = 300.0
    geom = FilmGeometry(x * HBAR * C_LIGHT / (K_B * T))
    omega_max = 60.0 * K_B * T / HBAR  # the Planck tail beyond it is ~e^-60
    # the mode count jumps at each n*pi*c/L; the quadrature needs every jump as an edge
    step = math.pi * C_LIGHT / geom.L1
    thresholds = [n * step for n in range(1, int(omega_max / step) + 1)]
    energy = quadrature_total_energy(
        lambda w: film_density(w, T, geom, BoundaryCondition.DIRICHLET), omega_max,
        thresholds=thresholds)
    coefficient = x * (energy / planck_total_energy_density(T) - 1.0)
    assert abs(coefficient - DIRICHLET_FILM_COEFFICIENT) < 1e-3
