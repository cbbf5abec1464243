"""Scalar arguments of the public entry points: any finite real number of the
right sign, numpy scalars included, is accepted as its float value; bool,
non-numbers and non-finite values are refused with ValueError."""

import numpy as np
import pytest

from cavityrad import (
    BoundaryCondition,
    BoxGeometry,
    FilmGeometry,
    RodGeometry,
    SphereGeometry,
    build_bessel_zero_table,
    cube_binned_density,
    enumerate_box_modes,
    enumerate_sphere_modes,
    film_density,
    film_mode_count,
    planck_density,
    planck_energy_fraction_below,
    rod_density,
    rod_threshold_frequencies,
    rod_transverse_modes,
    rod_window_average,
    spherical_bessel_zeros,
    spherical_jl,
)
from cavityrad.validate import finite_real

P = BoundaryCondition.PERIODIC
ROD = RodGeometry(1e-5, 2e-5)
F32 = np.float32

# name -> (call taking one scalar, a numpy scalar to pass it)
ENTRY_POINTS = {
    "planck_density.T": (lambda v: planck_density(1e14, v), np.int64(300)),
    "planck_energy_fraction_below.T": (lambda v: planck_energy_fraction_below(1e14, v),
                                       np.int64(300)),
    "FilmGeometry.L1": (lambda v: film_density(5e14, 300.0, FilmGeometry(v), P), F32(1e-5)),
    "RodGeometry.L2": (lambda v: rod_density(5e14, 300.0, RodGeometry(1e-5, v), P),
                       F32(1e-5)),
    "BoxGeometry.L3": (lambda v: enumerate_box_modes(BoxGeometry(1e-5, 1e-5, v), P, 1e15)
                       .omegas, F32(1e-5)),
    "SphereGeometry.diameter": (lambda v: enumerate_sphere_modes(SphereGeometry(v), 1e15)
                                .omegas, F32(1e-5)),
    "rod_density.omega": (lambda v: rod_density(v, 300.0, ROD, P), F32(5e14)),
    "rod_transverse_modes.omega": (lambda v: rod_transverse_modes(v, ROD, P), F32(5e14)),
    "rod_threshold_frequencies.omega_max": (lambda v: rod_threshold_frequencies(ROD, P, v),
                                            F32(5e14)),
    "rod_window_average.omega": (lambda v: rod_window_average(v, 300.0, ROD, P), F32(5e14)),
    "enumerate_box_modes.omega_max": (lambda v: enumerate_box_modes(
        BoxGeometry(1e-5, 1e-5, 1e-5), P, v).omegas, F32(1e15)),
    "enumerate_sphere_modes.omega_max": (lambda v: enumerate_sphere_modes(
        SphereGeometry(1e-5), v).omegas, F32(1e15)),
    "cube_binned_density.side": (lambda v: cube_binned_density(v, P, 300.0, 1e13, 1e15).u,
                                 F32(1e-5)),
    "cube_binned_density.omega_max": (lambda v: cube_binned_density(1e-5, P, 300.0, 1e13, v).u,
                                      np.int64(10**15)),
    "build_bessel_zero_table.x_max": (lambda v: np.concatenate(
        build_bessel_zero_table(v).zeros_by_l), np.int64(20)),
}


# every public function taking a boundary condition, called with bc
BC_ENTRY_POINTS = {
    "film_mode_count": lambda bc: film_mode_count(5e14, FilmGeometry(1e-5), bc),
    "film_density": lambda bc: film_density(5e14, 300.0, FilmGeometry(1e-5), bc),
    "rod_transverse_modes": lambda bc: rod_transverse_modes(5e14, ROD, bc),
    "rod_density": lambda bc: rod_density(5e14, 300.0, ROD, bc),
    "rod_threshold_frequencies": lambda bc: rod_threshold_frequencies(ROD, bc, 5e14),
    "rod_window_average": lambda bc: rod_window_average(5e14, 300.0, ROD, bc),
    "enumerate_box_modes": lambda bc: enumerate_box_modes(BoxGeometry(1e-5, 2e-5, 3e-5),
                                                          bc, 1e15),
    "cube_binned_density": lambda bc: cube_binned_density(1e-5, bc, 300.0, 1e13, 1e15),
}


@pytest.mark.parametrize("bad", ["periodic", None], ids=["str", "None"])
@pytest.mark.parametrize("name", sorted(BC_ENTRY_POINTS))
def test_bc_must_be_a_boundary_condition(name, bad):
    BC_ENTRY_POINTS[name](P)  # the same call with a member is accepted
    with pytest.raises(TypeError, match="^bc must be a BoundaryCondition$"):
        BC_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_numpy_scalars_accepted_bool_refused(name):
    call, scalar = ENTRY_POINTS[name]
    # same result as the float value: float32 arithmetic must not leak in
    np.testing.assert_array_equal(call(scalar), call(float(scalar)))
    with pytest.raises(ValueError):
        call(True)


# integer orders: numpy integers are the same order, bool is not an order
INTEGER_ORDERS = {
    "spherical_jl.l": lambda l: spherical_jl(l, 1.0),
    "spherical_bessel_zeros.l": lambda l: spherical_bessel_zeros(l, 10.0),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ORDERS))
def test_integer_order_numpy_accepted_bool_refused(name):
    call = INTEGER_ORDERS[name]
    np.testing.assert_array_equal(call(np.int64(1)), call(1))
    for bad in (True, False, np.True_, 1.0):
        with pytest.raises(ValueError, match="l must be a nonnegative integer"):
            call(bad)


def test_geometry_stores_plain_floats():
    box = BoxGeometry(np.float32(1e-5), np.int64(2), 3e-5)
    assert all(type(v) is float for v in (box.L1, box.L2, box.L3))
    assert box.L1 == float(np.float32(1e-5)) and box.L2 == 2.0
    with pytest.raises(ValueError, match="L1, L2, L3 must be a positive finite length"):
        BoxGeometry(1e-5, True, 1e-5)


@pytest.mark.parametrize("bad", [True, False, "1.0", None, float("nan"), float("inf"),
                                 np.float32("inf"), 10**400, -1.0, 0.0, 1j])
def test_finite_real_refusals(bad):
    with pytest.raises(ValueError, match="^msg$"):
        finite_real(bad, "msg")


def test_finite_real_bounds():
    assert finite_real(0.0, "msg", inclusive=True) == 0.0
    assert type(finite_real(np.int64(3), "msg")) is float
    assert finite_real(-2.5, "msg", -3.0) == -2.5
    with pytest.raises(ValueError):
        finite_real(-3.0, "msg", -3.0)
