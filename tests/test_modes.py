"""Box and sphere enumeration: lattice-shell examples, brute-force
completeness, the sign fold against a signed scan, isometry and prefix
invariants, and the Weyl leading order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityrad import (
    C_LIGHT,
    BoundaryCondition,
    BoxGeometry,
    ModeList,
    ResourceLimitError,
    SphereGeometry,
    enumerate_box_modes,
    enumerate_sphere_modes,
    naive_box_count,
    spherical_bessel_zeros,
)
from cavityrad.geometry import CUT_MARGIN, disc_sums, lattice_axes
from cavityrad.modes import MERGE_RTOL

BCS = list(BoundaryCondition)


def test_periodic_cube_first_shell():
    L = 1e-5
    modes = enumerate_box_modes(BoxGeometry(L, L, L), BoundaryCondition.PERIODIC,
                                2.0 * math.pi * C_LIGHT / L * (1.0 + 1e-9))
    assert len(modes) == 1
    assert modes.multiplicities[0] == 12  # 6 lattice vectors x 2 polarizations
    assert modes.omegas[0] == pytest.approx(2.0 * math.pi * C_LIGHT / L, rel=1e-12)


def test_periodic_cube_second_shell():
    L = 1e-5
    modes = enumerate_box_modes(BoxGeometry(L, L, L), BoundaryCondition.PERIODIC,
                                2.0 * math.pi * C_LIGHT * math.sqrt(2.0) / L * (1.0 + 1e-9))
    assert list(modes.multiplicities[:2]) == [12, 24]


def test_dirichlet_cube_lowest_mode():
    L = 1e-5
    modes = enumerate_box_modes(BoxGeometry(L, L, L), BoundaryCondition.DIRICHLET, 2.0e14)
    assert modes.omegas[0] == pytest.approx(math.pi * C_LIGHT * math.sqrt(3.0) / L, rel=1e-12)
    assert modes.multiplicities[0] == 2


@pytest.mark.parametrize("bc", BCS)
def test_empty_below_lowest_mode(bc):
    L = 1e-5
    lowest = {
        BoundaryCondition.PERIODIC: 2.0 * math.pi * C_LIGHT / L,
        BoundaryCondition.ANTIPERIODIC: math.pi * C_LIGHT * math.sqrt(3.0) / L,
        BoundaryCondition.DIRICHLET: math.pi * C_LIGHT * math.sqrt(3.0) / L,
    }[bc]
    modes = enumerate_box_modes(BoxGeometry(L, L, L), bc, lowest * 0.999)
    assert len(modes) == 0
    assert modes.total_mode_count == 0


@pytest.mark.parametrize("bc", BCS)
def test_completeness_vs_naive_oracle(bc):
    rng = np.random.default_rng(hash(bc.value) % 2**32)
    for _ in range(8):
        lengths = tuple(float(rng.uniform(0.6e-5, 2e-5)) for _ in range(3))
        omega_max = float(rng.uniform(2.0, 6.0)) * math.pi * C_LIGHT / min(lengths)
        geom = BoxGeometry(*lengths)
        fast = enumerate_box_modes(geom, bc, omega_max)
        slow = naive_box_count(geom, bc, omega_max)
        assert np.array_equal(fast.omegas, slow.omegas)
        assert np.array_equal(fast.multiplicities, slow.multiplicities)


def test_isometry_invariance():
    lengths = (1.0e-5, 1.7e-5, 2.3e-5)
    omega_max = 4.0 * math.pi * C_LIGHT / 1e-5
    base = enumerate_box_modes(BoxGeometry(*lengths), BoundaryCondition.PERIODIC, omega_max)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        other = enumerate_box_modes(
            BoxGeometry(*(lengths[i] for i in perm)), BoundaryCondition.PERIODIC, omega_max
        )
        assert len(other) == len(base)
        assert np.array_equal(other.multiplicities, base.multiplicities)
        np.testing.assert_allclose(other.omegas, base.omegas, rtol=1e-12)


def test_prefix_monotonicity():
    L = 1e-5
    geom = BoxGeometry(L, 1.3 * L, 0.8 * L)
    lo = enumerate_box_modes(geom, BoundaryCondition.ANTIPERIODIC, 3.7e14)
    hi = enumerate_box_modes(geom, BoundaryCondition.ANTIPERIODIC, 6.1e14)
    n = len(lo)
    assert np.array_equal(lo.omegas, hi.omegas[:n])
    assert np.array_equal(lo.multiplicities, hi.multiplicities[:n])


def test_multiplicities_even_and_sorted():
    modes = enumerate_box_modes(BoxGeometry(1e-5, 1.1e-5, 0.9e-5),
                                BoundaryCondition.DIRICHLET, 5e14)
    assert np.all(modes.multiplicities % 2 == 0)
    assert np.all(modes.multiplicities >= 2)
    assert np.all(np.diff(modes.omegas) > 0)


@pytest.mark.parametrize("bc", BCS)
def test_weyl_leading_order_cube(bc):
    # omega_max L / c = 100: the doubled count is within 10% of V w^3/(3 pi^2 c^3)
    L = 1e-5
    omega_max = 100.0 * C_LIGHT / L
    modes = enumerate_box_modes(BoxGeometry(L, L, L), bc, omega_max)
    weyl = L**3 * omega_max**3 / (3.0 * math.pi**2 * C_LIGHT**3)
    assert 0.9 * weyl <= modes.total_mode_count <= 1.1 * weyl


def signed_box_scan(geom, bc, omega_max):
    """Every sign of every component, merged by a stable argsort and gather."""
    k_max = omega_max / C_LIGHT
    axes = lattice_axes((geom.L1, geom.L2, geom.L3), bc, k_max, 10**8, "lattice points")
    if bc is BoundaryCondition.PERIODIC:
        assert all(np.count_nonzero(k == 0.0) == 1 for k, _ in axes)  # the 0 label
    s = disc_sums([k for k, _ in axes], k_max * k_max * CUT_MARGIN)
    om = C_LIGHT * np.sqrt(s[s > 0.0])
    om = om[om <= omega_max]
    order = np.argsort(om, kind="stable")
    om, ones = om[order], np.ones(om.size, dtype=np.int64)[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(om) > MERGE_RTOL * om[:-1]]))
    return om[starts], 2 * np.add.reduceat(ones, starts)


def assert_equals_signed_scan(geom, bc, omega_max):
    modes = enumerate_box_modes(geom, bc, omega_max)
    omegas, multiplicities = signed_box_scan(geom, bc, omega_max)
    assert len(modes) > 0
    assert modes.omegas.dtype == omegas.dtype
    assert modes.multiplicities.dtype == multiplicities.dtype
    np.testing.assert_array_equal(modes.omegas, omegas)
    np.testing.assert_array_equal(modes.multiplicities, multiplicities)


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("lengths, omega_max", [
    ((3e-5, 3e-5, 3e-5), 1e15),           # a cube: shells shared by many sign copies
    ((5e-5, 4e-5, 3e-5), 1e15),
    ((1.2e-4, 1.6e-4, 0.8e-4), 1e15),
    ((1e-6, 2e-5, 3e-5), 1e15),            # the thin axis admits its lowest labels only
])
def test_folded_scan_equals_signed_scan(bc, lengths, omega_max):
    assert_equals_signed_scan(BoxGeometry(*lengths), bc, omega_max)


@given(lengths=st.tuples(*[st.floats(1e-5, 4e-5)] * 3), omega_max=st.floats(3e14, 1e15),
       bc=st.sampled_from(BCS))
@settings(max_examples=60, deadline=None)
def test_folded_scan_equals_signed_scan_on_random_boxes(lengths, omega_max, bc):
    assert_equals_signed_scan(BoxGeometry(*lengths), bc, omega_max)


@pytest.mark.parametrize("bc", BCS)
def test_lattice_cap_counts_the_signed_bounding_box(bc):
    # the fold scans an eighth of the signed lattice, but the cap and the
    # required count stay those of the full signed bounding box
    geom, omega_max = BoxGeometry(5e-5, 4e-5, 3e-5), 1e15
    k_max = omega_max / C_LIGHT
    with pytest.raises(ResourceLimitError) as signed:
        lattice_axes((geom.L1, geom.L2, geom.L3), bc, k_max, 1, "lattice points")
    required = signed.value.required
    with pytest.raises(ResourceLimitError, match="lattice points") as err:
        enumerate_box_modes(geom, bc, omega_max, max_lattice_points=required - 1)
    assert err.value.required == required
    assert len(enumerate_box_modes(geom, bc, omega_max, max_lattice_points=required)) > 0


def test_merge_scratch_is_about_one_sorted_copy():
    import tracemalloc

    from cavityrad.modes import _merge_weighted

    omegas = np.random.default_rng(1).choice(np.linspace(1e13, 1e15, 1000), 10**6)
    tracemalloc.start()
    try:
        om, counts = _merge_weighted(omegas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(om) == 1000 and counts.sum() == 10**6
    assert peak < 2 * omegas.nbytes  # the sorted copy plus block-sized gap arrays


def test_resource_cap():
    with pytest.raises(ResourceLimitError) as err:
        enumerate_box_modes(BoxGeometry(0.01, 0.01, 0.01), BoundaryCondition.PERIODIC,
                            1e16)
    assert err.value.required > err.value.cap
    # a tighter explicit cap triggers on desk-scale runs too
    with pytest.raises(ResourceLimitError):
        enumerate_box_modes(BoxGeometry(2e-4, 2e-4, 2e-4), BoundaryCondition.PERIODIC,
                            1e15, max_lattice_points=1000)


def test_naive_oracle_budget_refusal():
    with pytest.raises(ValueError, match="budget"):
        naive_box_count(BoxGeometry(1e-3, 1e-3, 1e-3), BoundaryCondition.PERIODIC, 1e15)


def test_sphere_lowest_mode_and_empty():
    geom = SphereGeometry(1e-5)
    R = 0.5e-5
    modes = enumerate_sphere_modes(geom, 3.2 * math.pi * C_LIGHT / R)
    assert modes.omegas[0] == pytest.approx(math.pi * C_LIGHT / R, rel=1e-12)
    assert modes.multiplicities[0] == 2
    assert len(enumerate_sphere_modes(geom, math.pi * C_LIGHT / R * 0.99)) == 0


def test_sphere_degeneracies_follow_2l_plus_1():
    geom = SphereGeometry(1e-5)
    R = 0.5e-5
    omega_max = 8.0 * C_LIGHT / R
    modes = enumerate_sphere_modes(geom, omega_max)
    # reconstruct independently from per-l zero lists
    expect = []
    for l in range(0, 10):
        for z in spherical_bessel_zeros(l, omega_max * R / C_LIGHT):
            expect.append((C_LIGHT * z / R, 2 * (2 * l + 1)))
    expect.sort()
    assert len(expect) == len(modes)
    for (w_ref, m_ref), w, m in zip(expect, modes.omegas, modes.multiplicities):
        assert w == pytest.approx(w_ref, rel=1e-12)
        assert m == m_ref


def test_sphere_count_near_weyl_leading_term():
    geom = SphereGeometry(1e-5)
    R = 0.5e-5
    x = 50.0
    omega_max = x * C_LIGHT / R
    modes = enumerate_sphere_modes(geom, omega_max)
    volume = 4.0 / 3.0 * math.pi * R**3
    leading = volume * omega_max**3 / (3.0 * math.pi**2 * C_LIGHT**3)
    assert abs(modes.total_mode_count / leading - 1.0) < 0.15


def test_box_scan_with_no_admitted_cross_section_stays_small():
    import tracemalloc

    tracemalloc.start()
    try:
        modes = enumerate_box_modes(BoxGeometry(0.2, 1e-7, 1e-7), BoundaryCondition.DIRICHLET,
                                    1e15)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(modes) == 0
    assert peak < 8 * 10**6


def test_sphere_with_an_underflowing_cutoff_has_no_modes():
    # x_max = omega_max * R / c underflows to 0, which the zero table refuses
    modes = enumerate_sphere_modes(SphereGeometry(1e-100), 1e-250)
    assert len(modes) == 0 and modes.total_mode_count == 0
    assert modes.omegas.dtype == np.float64 and modes.multiplicities.dtype == np.int64


def test_empty_mode_list_checks_the_temperature():
    empty = ModeList(np.empty(0), np.empty(0, dtype=np.int64), 1e15)
    assert empty.thermal_energy(300.0) == 0.0
    with pytest.raises(ValueError, match="temperature must be > 0"):
        empty.thermal_energy(-1.0)


def test_sphere_refusal_counts_bessel_zeros():
    with pytest.raises(ResourceLimitError, match="Bessel zeros"):
        enumerate_sphere_modes(SphereGeometry(1e-2), 1e16)
