"""Arguments of the public entry points: any finite real number of the
right sign, numpy scalars included, is accepted as its float value, and a
frequency array of any integer or float dtype as its float64 values; bool,
complex, non-numbers and non-finite values are refused with ValueError, and
a record of another class with TypeError."""

import numpy as np
import pytest

from cavityrad import (
    BoundaryCondition,
    BoxGeometry,
    FilmGeometry,
    GeometryDescriptors,
    ModeList,
    RodGeometry,
    SphereGeometry,
    binned_density,
    build_bessel_zero_table,
    cube_binned_density,
    descriptors_for,
    enumerate_box_modes,
    enumerate_sphere_modes,
    film_density,
    film_mode_count,
    mean_oscillator_energy,
    planck_density,
    planck_energy_fraction_below,
    rod_density,
    rod_threshold_frequencies,
    rod_transverse_modes,
    rod_window_average,
    spherical_bessel_zeros,
    spherical_jl,
    weyl_density,
)
from cavityrad.validate import finite_array, finite_real

P = BoundaryCondition.PERIODIC
FILM = FilmGeometry(1e-5)
ROD = RodGeometry(1e-5, 2e-5)
BOX = BoxGeometry(1e-5, 2e-5, 3e-5)
DESC = descriptors_for(BOX)
MODES = enumerate_box_modes(BOX, P, 1e15)
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
    "cube_binned_density.delta_omega": (lambda v: cube_binned_density(1e-5, P, 300.0, v, 1e15).u,
                                        np.int64(10**13)),
    "binned_density.delta_omega": (lambda v: binned_density(MODES, 300.0, v, BOX.volume).u,
                                   F32(1e13)),
    "binned_density.volume": (lambda v: binned_density(MODES, 300.0, 1e13, v).u,
                              F32(BOX.volume)),
    "build_bessel_zero_table.x_max": (lambda v: np.concatenate(
        build_bessel_zero_table(v).zeros_by_l), np.int64(20)),
    "spherical_bessel_zeros.x_max": (lambda v: spherical_bessel_zeros(2, v), np.int64(20)),
    # the arguments that may also be arrays (ARRAY_ARGUMENTS)
    "film_mode_count.omega": (lambda v: film_mode_count(v, FILM, P), np.int64(5 * 10**14)),
    "film_density.omega": (lambda v: film_density(v, 300.0, FILM, P), np.int64(5 * 10**14)),
    "mean_oscillator_energy.omega": (lambda v: mean_oscillator_energy(v, 300.0),
                                     np.int64(5 * 10**13)),
    "planck_density.omega": (lambda v: planck_density(v, 300.0), np.int64(5 * 10**13)),
    "weyl_density.omega": (lambda v: weyl_density(v, 300.0, DESC), np.int64(5 * 10**14)),
    "spherical_jl.x": (lambda v: spherical_jl(3, v), np.int64(7)),
}

# the rows of ENTRY_POINTS whose argument may be an array as well as a scalar
ARRAY_ARGUMENTS = ("film_mode_count.omega", "film_density.omega",
                   "mean_oscillator_energy.omega", "planck_density.omega",
                   "weyl_density.omega", "spherical_jl.x")


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
    for bad in (True, 1j):
        with pytest.raises(ValueError):
            call(bad)


@pytest.mark.parametrize("name", ARRAY_ARGUMENTS)
def test_int_and_float_arrays_accepted_bool_arrays_refused(name):
    call, scalar = ENTRY_POINTS[name]
    for dtype in (np.int64, np.float32):
        values = np.array([0, scalar, 2 * scalar], dtype=dtype)
        np.testing.assert_array_equal(call(values), call(values.astype(float)))
        np.testing.assert_array_equal(call(values[1]), call(float(values[1])))
    for bad in (np.array([True, False]), np.array([1.0, 1j])):
        with pytest.raises(ValueError):
            call(bad)


# every record-taking public function, called with a record; the record class it takes
RECORD_ENTRY_POINTS = {
    "binned_density": (ModeList, lambda m: binned_density(m, 300.0, 1e13, BOX.volume)),
    "film_mode_count": (FilmGeometry, lambda g: film_mode_count(5e14, g, P)),
    "film_density": (FilmGeometry, lambda g: film_density(5e14, 300.0, g, P)),
    "rod_transverse_modes": (RodGeometry, lambda g: rod_transverse_modes(5e14, g, P)),
    "rod_density": (RodGeometry, lambda g: rod_density(5e14, 300.0, g, P)),
    "rod_threshold_frequencies": (RodGeometry, lambda g: rod_threshold_frequencies(g, P, 5e14)),
    "rod_window_average": (RodGeometry, lambda g: rod_window_average(5e14, 300.0, g, P)),
    "enumerate_box_modes": (BoxGeometry, lambda g: enumerate_box_modes(g, P, 1e15)),
    "enumerate_sphere_modes": (SphereGeometry, lambda g: enumerate_sphere_modes(g, 1e15)),
    "weyl_density": (GeometryDescriptors, lambda d: weyl_density(1e14, 300.0, d)),
}
RECORDS = (FILM, ROD, BOX, SphereGeometry(1e-5), DESC, MODES)


@pytest.mark.parametrize("name", sorted(RECORD_ENTRY_POINTS))
def test_records_of_another_class_refused(name):
    cls, call = RECORD_ENTRY_POINTS[name]
    for record in RECORDS:
        if type(record) is cls:
            call(record)  # its own record is accepted
            continue
        # a rod read as a box's first two sides, or a box as a rod, was a
        # silently wrong answer
        with pytest.raises(TypeError, match="^(geom|desc|modes) must be a %s$" % cls.__name__):
            call(record)


# integer arguments, Bessel orders and a cap: numpy integers are the same
# integer, bool is not an integer; (call, an integer to pass it)
INTEGER_ARGUMENTS = {
    "spherical_jl.l": (lambda l: spherical_jl(l, 1.0), 1),
    "spherical_bessel_zeros.l": (lambda l: spherical_bessel_zeros(l, 10.0), 1),
    "enumerate_box_modes.max_lattice_points": (
        lambda cap: enumerate_box_modes(BOX, P, 1e14, max_lattice_points=cap).omegas, 245),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_numpy_accepted_bool_refused(name):
    call, value = INTEGER_ARGUMENTS[name]
    np.testing.assert_array_equal(call(np.int64(value)), call(value))
    for bad in (True, False, np.True_, 1.0, -5, "1e8", float("nan")):
        with pytest.raises(ValueError, match="^%s must be a nonnegative integer$"
                                             % name.split(".")[1]):
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


ARRAY_REFUSALS = {
    "bool": True, "bool-array": np.array([False, True]), "complex": 1j, "str": "1.0",
    "None": None, "mixed-list": [1.0, "a"], "nan": float("nan"),
    "inf-array": np.array([1.0, np.inf]), "negative": -1.0, "negative-list": [0.0, -1e-300],
    "huge-int": 10**400, "huge-longdouble": np.longdouble("1e400"),
}


@pytest.mark.parametrize("bad", ARRAY_REFUSALS.values(), ids=ARRAY_REFUSALS.keys())
def test_finite_array_refusals(bad):
    with pytest.raises(ValueError, match="^msg$"):
        finite_array(bad, "msg")


def test_finite_array_returns_float64():
    for values in (3, np.float32(3.0), np.uint8(3), [0, 3], np.arange(4, dtype=np.int16)):
        out = finite_array(values, "msg")
        assert out.dtype == np.float64 and out.ndim == np.ndim(values)
        np.testing.assert_array_equal(out, np.asarray(values, dtype=float))
    assert finite_array(np.empty(0), "msg").size == 0


def test_finite_real_bounds():
    assert finite_real(0.0, "msg", inclusive=True) == 0.0
    assert type(finite_real(np.int64(3), "msg")) is float
    assert finite_real(-2.5, "msg", -3.0) == -2.5
    with pytest.raises(ValueError):
        finite_real(-3.0, "msg", -3.0)
