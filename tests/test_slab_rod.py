"""Film and rod spectra: cutoffs, floor consistency, the Dirichlet bound,
large-size convergence, and the transverse mode machinery."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityrad import (
    C_LIGHT,
    HBAR,
    K_B,
    BoundaryCondition,
    FilmGeometry,
    ResourceLimitError,
    RodGeometry,
    ThresholdSingularityError,
    film_density,
    film_mode_count,
    mean_oscillator_energy,
    planck_density,
    rod_density,
    rod_threshold_frequencies,
    rod_transverse_modes,
    rod_window_average,
)

BCS = list(BoundaryCondition)


@pytest.fixture(autouse=True)
def no_kept_rod_table():
    """rod_density keeps its last table; every test here starts and ends without one."""
    from cavityrad import slab_rod

    slab_rod._kept = None
    yield
    slab_rod._kept = None


def brute_film_count(omega, L1, bc):
    """Explicit enumeration of admitted longitudinal wavenumbers, |k_i| <= w/c."""
    k = omega / C_LIGHT
    n_cap = math.ceil(omega * L1 / C_LIGHT) + 2
    count = 0
    for n in range(-n_cap, n_cap + 1):
        if bc is BoundaryCondition.PERIODIC:
            ki = 2.0 * math.pi * n / L1
        elif bc is BoundaryCondition.ANTIPERIODIC:
            ki = 2.0 * math.pi * (n + 0.5) / L1
        else:
            if n < 1:
                continue
            ki = math.pi * n / L1
        if abs(ki) <= k:
            count += 1
    return count


def test_film_counts_trivial():
    film = FilmGeometry(1e-5)
    assert film_mode_count(0.0, film, BoundaryCondition.PERIODIC) == 1
    # omega L1/(c pi) = 2.5
    omega = 2.5 * C_LIGHT * math.pi / 1e-5
    assert film_mode_count(omega, film, BoundaryCondition.DIRICHLET) == 2
    # omega L1/(2 c pi) = 0.4: below the antiperiodic cutoff
    omega = 0.4 * 2.0 * C_LIGHT * math.pi / 1e-5
    assert film_mode_count(omega, film, BoundaryCondition.ANTIPERIODIC) == 0


def test_film_count_right_continuous_at_jump():
    # L1 = 2*c*pi makes omega*L1/(c*pi) = 2*omega exactly representable
    film = FilmGeometry(2.0 * C_LIGHT * math.pi)
    omega = 4.0
    assert film_mode_count(omega, film, BoundaryCondition.DIRICHLET) == 8
    assert film_mode_count(np.nextafter(omega, 0.0), film, BoundaryCondition.DIRICHLET) == 7


@pytest.mark.parametrize("bc", BCS)
def test_film_count_matches_enumeration(bc):
    rng = np.random.default_rng(11)
    for _ in range(100):
        omega = float(rng.uniform(1e12, 5e14))
        L1 = float(rng.uniform(1e-6, 1e-4))
        assert film_mode_count(omega, FilmGeometry(L1), bc) == brute_film_count(omega, L1, bc)


def test_film_cutoffs_exact_zero():
    film = FilmGeometry(1e-5)
    cut = C_LIGHT * math.pi / 1e-5
    grid = np.linspace(0.0, cut * (1.0 - 1e-12), 500)
    assert np.all(film_density(grid, 300.0, film, BoundaryCondition.DIRICHLET) == 0.0)
    assert np.all(film_density(grid, 300.0, film, BoundaryCondition.ANTIPERIODIC) == 0.0)
    # periodic has no cutoff: nonzero immediately above omega = 0
    assert film_density(cut * 1e-6, 300.0, film, BoundaryCondition.PERIODIC) > 0.0
    assert film_density(cut * 1.001, 300.0, film, BoundaryCondition.DIRICHLET) > 0.0


def test_film_periodic_single_count_closed_form():
    # below the first nonzero mode the bracket term is 1
    L1 = 1e-5
    omega = 0.7 * 2.0 * C_LIGHT * math.pi / L1
    expected = HBAR * omega**2 / (
        math.pi * C_LIGHT**2 * L1 * (math.exp(HBAR * omega / (K_B * 300.0)) - 1.0)
    )
    got = film_density(omega, 300.0, FilmGeometry(L1), BoundaryCondition.PERIODIC)
    assert got == pytest.approx(expected, rel=1e-12)


@given(
    omega=st.floats(min_value=1e11, max_value=1e15),
    L1=st.floats(min_value=1e-7, max_value=1e-2),
    bc=st.sampled_from(BCS),
)
@settings(max_examples=300, deadline=None)
def test_floor_consistency(omega, L1, bc):
    geom = FilmGeometry(L1)
    pref = omega * mean_oscillator_energy(omega, 300.0) / (math.pi * C_LIGHT**2 * L1)
    assert film_density(omega, 300.0, geom, bc) == pref * film_mode_count(omega, geom, bc)


@given(
    omega=st.floats(min_value=1e10, max_value=1e16),
    L1=st.floats(min_value=1e-8, max_value=1e-1),
)
@settings(max_examples=300, deadline=None)
def test_dirichlet_film_bound(omega, L1):
    u = film_density(omega, 300.0, FilmGeometry(L1), BoundaryCondition.DIRICHLET)
    assert u <= planck_density(omega, 300.0) * (1.0 + 1e-12)


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("product", [1e2, 1e3, 1e4])
def test_film_large_size_convergence(bc, product):
    # |u/planck - 1| <= 2 pi c/(omega L1) whenever the count is nonzero
    rng = np.random.default_rng(int(product))
    for _ in range(40):
        omega = float(rng.uniform(5e13, 5e14))
        L1 = product * C_LIGHT / omega
        u = film_density(omega, 300.0, FilmGeometry(L1), bc)
        bound = 2.0 * math.pi * C_LIGHT / (omega * L1)
        assert abs(u / planck_density(omega, 300.0) - 1.0) <= bound * (1.0 + 1e-9)


def test_film_one_centimeter_matches_planck():
    for bc in BCS:
        u = film_density(1e14, 300.0, FilmGeometry(1e-2), bc)
        assert abs(u / planck_density(1e14, 300.0) - 1.0) < 1e-3


def test_rod_transverse_modes_examples():
    rod = RodGeometry(1e-5, 1e-5)
    # any positive omega admits (0, 0) under periodic conditions
    pairs = rod_transverse_modes(1e12, rod, BoundaryCondition.PERIODIC)
    assert len(pairs) == 1 and np.all(pairs[0] == 0.0)
    # just above 1.1x the fundamental: (0,0) plus four (+-2pi/L, 0) type pairs
    pairs = rod_transverse_modes(1.1 * 2.0 * math.pi * C_LIGHT / 1e-5, rod,
                                 BoundaryCondition.PERIODIC)
    assert len(pairs) == 5
    # dirichlet below the lowest transverse mode: empty
    low = math.pi * C_LIGHT * math.sqrt(2.0) / 1e-5
    assert len(rod_transverse_modes(low * 0.999, rod, BoundaryCondition.DIRICHLET)) == 0
    assert rod_density(low * 0.999, 300.0, rod, BoundaryCondition.DIRICHLET) == 0.0


@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC, BoundaryCondition.ANTIPERIODIC])
def test_rod_mode_set_negation_symmetry(bc):
    rod = RodGeometry(1.3e-5, 0.7e-5)
    pairs = rod_transverse_modes(3.1 * 2.0 * math.pi * C_LIGHT / 1e-5, rod, bc)
    have = {(round(a, 6), round(b, 6)) for a, b in pairs / np.abs(pairs).max()}
    assert all((-a, -b) in have for a, b in have)


def test_rod_single_term_reduction():
    L = 1e-5
    rod = RodGeometry(L, L)
    omega = 0.5 * 2.0 * math.pi * C_LIGHT / L  # below the first nonzero threshold
    expected = 2.0 * HBAR * omega / (
        math.pi * C_LIGHT * L * L * (math.exp(HBAR * omega / (K_B * 300.0)) - 1.0)
    )
    assert rod_density(omega, 300.0, rod, BoundaryCondition.PERIODIC) == pytest.approx(
        expected, rel=1e-12
    )


def test_rod_density_matches_pair_sum():
    # dual route: the density must equal the explicit sum over the pair list
    rod = RodGeometry(1.1e-5, 0.9e-5)
    T = 300.0
    for bc in BCS:
        omega = 4.7 * 2.0 * math.pi * C_LIGHT / 1e-5
        pairs = rod_transverse_modes(omega, rod, bc)
        k2 = (omega / C_LIGHT) ** 2
        total = sum(1.0 / math.sqrt(k2 - (a * a + b * b)) for a, b in pairs)
        expected = (
            2.0 * omega * mean_oscillator_energy(omega, T)
            / (math.pi * C_LIGHT**2 * rod.L1 * rod.L2) * total
        )
        assert rod_density(omega, T, rod, bc) == pytest.approx(expected, rel=1e-10)


def test_rod_threshold_guard_raises_and_names_mode():
    rod = RodGeometry(1e-5, 1e-5)
    th = rod_threshold_frequencies(rod, BoundaryCondition.PERIODIC, 1e15)
    with pytest.raises(ThresholdSingularityError) as err:
        rod_density(float(th[0]), 300.0, rod, BoundaryCondition.PERIODIC)
    assert err.value.mode is not None
    assert err.value.k_perp == pytest.approx(th[0] / C_LIGHT, rel=1e-9)
    # slightly off-threshold evaluation succeeds
    assert rod_density(float(th[0]) * (1.0 + 1e-6), 300.0, rod,
                       BoundaryCondition.PERIODIC) > 0.0


def per_sample_rod_density(omega, T, rod, bc, guard=1e-9):
    """Reference: the rod density with a transverse table sized to this omega
    alone, in Python floats; None inside a guard window."""
    from cavityrad.slab_rod import _transverse_k2

    k = omega / C_LIGHT
    s = _transverse_k2(rod, bc, k * (1.0 + 4.0 * guard))
    i0, i1 = np.searchsorted(s, [(k * (1.0 - guard)) ** 2, (k * (1.0 + guard)) ** 2])
    if i1 > i0:
        return None
    n = np.searchsorted(s, k * k)
    if n == 0:
        return 0.0
    pref = 2.0 * omega * mean_oscillator_energy(omega, T) / (
        math.pi * C_LIGHT**2 * rod.L1 * rod.L2)
    return pref * float(np.sum(1.0 / np.sqrt(k * k - s[:n])))


def rod_curves():
    """The nine figure-2 curves and a periodic grid that hits thresholds."""
    from cavityrad.figures import _load_preset

    preset = _load_preset(2)
    for name, section in preset.items():
        rod = RodGeometry(*(float(v) for v in section["lengths"].split(",")))
        grid = np.linspace(float(section["omega-min"]), float(section["omega-max"]),
                           int(section["samples"]))
        yield name, rod, BoundaryCondition(section["bc"]), float(section["temperature"]), grid
    L = 2e-5
    yield ("threshold grid", RodGeometry(L, L), BoundaryCondition.PERIODIC, 300.0,
           np.linspace(0.0, 10.0 * 2.0 * math.pi * C_LIGHT / L, 101))


def test_rod_grid_equals_per_sample_evaluation():
    # one table for the whole grid gives every value of a table per sample,
    # bit for bit, refuses the same samples and names the same modes
    from cavityrad.slab_rod import _rod_density_grid

    curves = list(rod_curves())
    assert len(curves) == 10
    refused = 0
    for name, rod, bc, T, grid in curves:
        values, singular = _rod_density_grid(grid, T, rod, bc)
        for i, w in enumerate(grid.tolist()):
            expected = per_sample_rod_density(w, T, rod, bc)
            if expected is None:
                refused += 1
                assert np.isnan(values[i]), (name, i)
                with pytest.raises(ThresholdSingularityError) as err:
                    rod_density(w, T, rod, bc)
                assert singular[i].mode == err.value.mode, (name, i)
                continue
            assert i not in singular and values[i] == expected, (name, i)
            assert rod_density(w, T, rod, bc) == expected, (name, i)
    assert refused >= 5


def own_cap(omega, guard=1e-9):
    """The table cap a rod_density call at omega asks for."""
    return omega / C_LIGHT * (1.0 + 4.0 * max(guard, 1e-9))


def own_table_rod_density(omega, T, rod, bc):
    """rod_density through a table of the call's own cap, as with nothing kept;
    the kept table is put back afterwards."""
    from cavityrad import slab_rod

    kept, slab_rod._kept = slab_rod._kept, None
    try:
        return rod_density(omega, T, rod, bc)
    finally:
        slab_rod._kept = kept


def test_kept_table_gives_every_value_of_a_table_per_call():
    # geometries interleaved in runs of 7 calls, a swapped L1/L2 pair among
    # them; ascending, descending and shuffled omegas
    from cavityrad import slab_rod

    L = 2e-5
    rods = [RodGeometry(L, L), RodGeometry(L, 0.75 * L), RodGeometry(0.75 * L, L)]
    grid = np.linspace(0.0, 10.0 * 2.0 * math.pi * C_LIGHT / L, 101).tolist()
    shuffled = list(grid)
    np.random.default_rng(5).shuffle(shuffled)
    hits = refused = 0
    for omegas in (grid, grid[::-1], shuffled):
        for start in range(0, len(omegas), 7):
            for rod in rods:
                for bc in BCS:
                    for w in omegas[start:start + 7]:
                        kept = slab_rod._kept
                        hits += (kept is not None and kept[:3] == (rod.L1, rod.L2, bc)
                                 and kept[3] >= own_cap(w))
                        expected = per_sample_rod_density(w, 300.0, rod, bc)
                        if expected is None:
                            refused += 1
                            with pytest.raises(ThresholdSingularityError) as err:
                                rod_density(w, 300.0, rod, bc)
                            with pytest.raises(ThresholdSingularityError) as own:
                                own_table_rod_density(w, 300.0, rod, bc)
                            assert err.value.mode == own.value.mode, (rod, bc, w)
                        else:
                            assert rod_density(w, 300.0, rod, bc) == expected, (rod, bc, w)
    assert hits > 1000 and refused >= 30


@pytest.mark.parametrize("lengths", [(1e-3, 1e-3), (7.5e-4, 5e-4)])
def test_rod_density_at_omega_zero_is_zero_and_checks_the_temperature(lengths):
    rod = RodGeometry(*lengths)
    for bc in BCS:
        assert rod_density(0.0, 300.0, rod, bc) == 0.0
        for T in (math.nan, -5.0, 0.0):
            with pytest.raises(ValueError) as want:
                mean_oscillator_energy(1.0, T)
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                rod_density(0.0, T, rod, bc)


def test_rod_density_threshold_guard_validated():
    rod, bc, omega = RodGeometry(2e-5, 1.5e-5), BoundaryCondition.DIRICHLET, 5e14
    for guard in (math.nan, math.inf, -1e-9, 1.0, True):
        with pytest.raises(ValueError, match="threshold_guard must be finite"):
            rod_density(omega, 300.0, rod, bc, threshold_guard=guard)
    assert rod_density(omega, 300.0, rod, bc) == per_sample_rod_density(omega, 300.0, rod, bc)
    assert (rod_density(omega, 300.0, rod, bc, threshold_guard=0.0)
            == per_sample_rod_density(omega, 300.0, rod, bc, guard=0.0))


def required_entries(rod, bc, k_cap):
    """The bounding-box count the table cap compares with MAX_ROD_TABLE."""
    from cavityrad.geometry import lattice_axes

    with pytest.raises(ResourceLimitError) as err:
        lattice_axes((rod.L1, rod.L2), bc, k_cap, 0, "transverse modes")
    return err.value.required


def test_doubled_cap_over_the_limit_builds_at_the_own_cap(monkeypatch):
    from cavityrad import slab_rod

    rod, bc, omega = RodGeometry(2e-5, 1.5e-5), BoundaryCondition.ANTIPERIODIC, 5e14
    rod_density(omega, 300.0, rod, bc)
    limit = required_entries(rod, bc, own_cap(1.2 * omega))
    assert required_entries(rod, bc, 2.0 * own_cap(omega)) > limit
    monkeypatch.setattr(slab_rod, "MAX_ROD_TABLE", limit)
    value = rod_density(1.2 * omega, 300.0, rod, bc)
    assert value == per_sample_rod_density(1.2 * omega, 300.0, rod, bc)
    assert slab_rod._kept[3] == own_cap(1.2 * omega)


def test_own_cap_over_the_limit_refuses_with_its_own_count(monkeypatch):
    from cavityrad import slab_rod

    rod, bc, omega = RodGeometry(2e-5, 1.5e-5), BoundaryCondition.PERIODIC, 5e14
    rod_density(omega, 300.0, rod, bc)
    monkeypatch.setattr(slab_rod, "MAX_ROD_TABLE", required_entries(rod, bc, own_cap(omega)))
    with pytest.raises(ResourceLimitError) as own:
        own_table_rod_density(1.5 * omega, 300.0, rod, bc)
    with pytest.raises(ResourceLimitError, match="transverse modes") as err:
        rod_density(1.5 * omega, 300.0, rod, bc)
    assert err.value.required == own.value.required
    assert err.value.required == required_entries(rod, bc, own_cap(1.5 * omega))
    assert slab_rod._kept is None


def test_singular_sample_after_a_growth_names_its_own_mode(monkeypatch):
    # at the cap edge of test_singular_sample_at_the_cap_edge_names_its_mode:
    # the grown table (1.0006 x the own cap) still has 83 x 83 labels
    from cavityrad import slab_rod

    L, bc = 2e-5, BoundaryCondition.PERIODIC
    rod = RodGeometry(L, L)
    omega = 2.0 * math.pi * C_LIGHT * math.sqrt(1597.0) / L  # on mode (34, 21)
    monkeypatch.setattr(slab_rod, "MAX_ROD_TABLE", 6889)
    rod_density(0.5003 * omega, 300.0, rod, bc)
    with pytest.raises(ThresholdSingularityError) as err:
        rod_density(omega, 300.0, rod, bc)
    assert slab_rod._kept[3] > own_cap(omega)  # grown past the call's own cap
    with pytest.raises(ThresholdSingularityError) as own:
        own_table_rod_density(omega, 300.0, rod, bc)
    assert err.value.mode == own.value.mode
    assert sum(n * n for n in err.value.mode) == 1597


def test_rod_density_nonnegative_random():
    rng = np.random.default_rng(23)
    rod = RodGeometry(2e-5, 1.5e-5)
    for _ in range(120):
        omega = float(rng.uniform(1e12, 8e14))
        for bc in BCS:
            try:
                assert rod_density(omega, 300.0, rod, bc) >= 0.0
            except ThresholdSingularityError:
                pass


def test_rod_window_average_near_planck():
    # centimeter rod at 1e14 rad/s: single-interval averages fluctuate by a
    # few tenths of a percent from interval to interval (measured 0.21 to
    # 0.65 percent across the three conditions), staying inside one percent
    rod = RodGeometry(1e-2, 1e-2)
    for bc in BCS:
        avg = rod_window_average(1e14, 300.0, rod, bc)
        assert abs(avg / planck_density(1e14, 300.0) - 1.0) < 0.01


def test_rod_window_search_doubles_past_the_first_window(monkeypatch):
    from cavityrad import quadrature_total_energy, slab_rod

    # periodic square rod: t2 = sqrt(2)*t1 lies beyond the first window 1.25*omega
    L, T, bc = 1e-5, 300.0, BoundaryCondition.PERIODIC
    rod = RodGeometry(L, L)
    t1 = 2.0 * math.pi * C_LIGHT / L
    t2 = math.sqrt(2.0) * t1
    windows = []
    search = slab_rod._table_and_thresholds
    monkeypatch.setattr(slab_rod, "_table_and_thresholds",
                        lambda g, b, w: windows.append(w) or search(g, b, w))
    avg = rod_window_average(1.1 * t1, T, rod, bc)
    assert len(windows) == 2 and windows[0] < t2 < windows[1]
    fn = lambda w: rod_density(w, T, rod, bc, threshold_guard=0.0)
    integral = (quadrature_total_energy(fn, t2, thresholds=[t1], rel_tol=1e-9)
                - quadrature_total_energy(fn, t1, rel_tol=1e-9))
    assert avg == pytest.approx(integral / (t2 - t1), rel=1e-4)


def test_rod_window_below_the_first_threshold_refused():
    L = 1e-5
    t1 = math.sqrt(2.0) * math.pi * C_LIGHT / L  # Dirichlet mode (1, 1)
    with pytest.raises(ValueError, match="omega lies below the first transverse threshold"):
        rod_window_average(0.5 * t1, 300.0, RodGeometry(L, L), BoundaryCondition.DIRICHLET)


def test_rod_thresholds_sorted_distinct():
    rod = RodGeometry(1e-5, 1e-5)
    th = rod_threshold_frequencies(rod, BoundaryCondition.ANTIPERIODIC, 5e14)
    assert np.all(np.diff(th) > 0.0)
    assert th[0] > 0.0


# every public entry point to a transverse table, at a 10 cm periodic rod and
# 1e16 rad/s: about 1.1e12 table entries
ROD_TABLE_CALLS = {
    "rod_density": lambda rod: rod_density(1e16, 300.0, rod, BoundaryCondition.PERIODIC),
    "rod_threshold_frequencies": lambda rod: rod_threshold_frequencies(
        rod, BoundaryCondition.PERIODIC, 1e16),
    "rod_window_average": lambda rod: rod_window_average(1e16, 300.0, rod,
                                                         BoundaryCondition.PERIODIC),
    "rod_transverse_modes": lambda rod: rod_transverse_modes(1e16, rod,
                                                             BoundaryCondition.PERIODIC),
}


@pytest.mark.parametrize("name", sorted(ROD_TABLE_CALLS))
def test_rod_table_over_cap_refused_before_allocation(name):
    import tracemalloc

    tracemalloc.start()
    try:
        for rod in (RodGeometry(1e-1, 1e-1), RodGeometry(1e300, 1e-5)):
            with pytest.raises(ResourceLimitError, match="transverse modes"):
                ROD_TABLE_CALLS[name](rod)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_rod_table_cap_is_on_the_table_size():
    from cavityrad.slab_rod import MAX_ROD_TABLE, _rod_axes

    # Dirichlet axes hold the labels 1..m; m = ceil(k L/pi) + 1
    k = 999.5 * math.pi
    (_, n1), (_, n2) = _rod_axes(RodGeometry(1.0, 1.0), BoundaryCondition.DIRICHLET, k)
    m1, m2 = int(n1[-1]), int(n2[-1])
    assert m1 == m2 == 1001 and m1 * m2 <= MAX_ROD_TABLE
    side = (MAX_ROD_TABLE / 1001.0 - 1.0) * math.pi / k  # one axis past the cap
    with pytest.raises(ResourceLimitError, match="transverse modes"):
        _rod_axes(RodGeometry(1.0, side * 1.01), BoundaryCondition.DIRICHLET, k)
    _rod_axes(RodGeometry(1.0, side * 0.99), BoundaryCondition.DIRICHLET, k)


def test_rod_sum_adds_no_peak_memory_to_the_table():
    import tracemalloc

    from cavityrad.slab_rod import THRESHOLD_GUARD, _transverse_k2

    rod, bc, omega = RodGeometry(1e-3, 1e-3), BoundaryCondition.PERIODIC, 1.00001e15

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the table rod_density builds: its cutoff is padded by the guard window
    table = peak(lambda: _transverse_k2(rod, bc, omega / C_LIGHT * (1.0 + 4.0 * THRESHOLD_GUARD)))
    assert table > 10**7
    assert peak(lambda: rod_density(omega, 300.0, rod, bc)) <= 1.05 * table


def held_bytes(*steps):
    """Bytes still allocated after each step, all steps traced in one tracemalloc run."""
    import tracemalloc

    held = []
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for step in steps:
            step()
            held.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    return held


def test_rod_density_keeps_one_table_of_the_last_geometry():
    from cavityrad import slab_rod
    from cavityrad.slab_rod import _transverse_k2

    rod, bc = RodGeometry(1e-3, 1e-3), BoundaryCondition.PERIODIC
    omegas = np.linspace(1e13, 1e15, 40).tolist()
    last_cap = own_cap(omegas[-1])
    own = _transverse_k2(rod, bc, last_cap).nbytes
    bound = _transverse_k2(rod, bc, 2.0 * last_cap).nbytes  # one table at twice the cap

    def sweep():
        for w in omegas:
            try:
                rod_density(w, 300.0, rod, bc)
            except ThresholdSingularityError:
                pass
        assert slab_rod._kept[:3] == (rod.L1, rod.L2, bc)
        assert last_cap <= slab_rod._kept[3] <= 2.0 * last_cap

    other = RodGeometry(1e-5, 1e-5)
    held, released = held_bytes(sweep, lambda: rod_density(1e15, 300.0, other, bc))
    assert own <= held <= bound + 10**4
    # a call on another geometry releases it
    assert slab_rod._kept[:3] == (other.L1, other.L2, bc)
    assert released < 10**6


def cli_rod_grid(lengths):
    from cavityrad.cli import _build_config, compute

    compute(_build_config([("geometry", "rod"), ("bc", "periodic"), ("lengths", lengths),
                           ("temperature", "300"), ("omega-max", "1e15"), ("samples", "40")]))


def test_cli_grid_shares_the_kept_table(monkeypatch):
    import weakref

    from cavityrad import slab_rod

    cli_rod_grid("1e-3,1e-3")
    assert slab_rod._kept[:3] == (1e-3, 1e-3, BoundaryCondition.PERIODIC)
    table = weakref.ref(slab_rod._kept[4])
    omega = 7.3e14  # below the grid's 1e15 rad/s and off every threshold
    expected = per_sample_rod_density(omega, 300.0, RodGeometry(1e-3, 1e-3),
                                      BoundaryCondition.PERIODIC)
    built = []
    transverse_k2 = slab_rod._transverse_k2
    monkeypatch.setattr(slab_rod, "_transverse_k2",
                        lambda *args: built.append(args) or transverse_k2(*args))
    assert rod_density(omega, 300.0, RodGeometry(1e-3, 1e-3),
                       BoundaryCondition.PERIODIC) == expected
    assert built == []
    # a grid on another geometry frees the old table
    cli_rod_grid("1e-5,1e-5")
    assert slab_rod._kept[:3] == (1e-5, 1e-5, BoundaryCondition.PERIODIC)
    assert table() is None


# the rod paths besides rod_density and the CLI grid build a table per call
# and keep none: sharing the slot raised the peak RSS of a library sweep
UNKEPT_ROD_TABLES = {
    "rod_window_average": lambda: [rod_window_average(w, 300.0, RodGeometry(1e-3, 1e-3),
                                                      BoundaryCondition.PERIODIC)
                                   for w in (3e14, 4e14, 5e14)],
    "rod_threshold_frequencies": lambda: [rod_threshold_frequencies(
        RodGeometry(1e-3, 1e-3), BoundaryCondition.PERIODIC, w) for w in (2e14, 6e14, 1e15)],
}


@pytest.mark.parametrize("name", sorted(UNKEPT_ROD_TABLES))
def test_other_rod_paths_keep_no_table(name):
    from cavityrad import slab_rod

    [held] = held_bytes(UNKEPT_ROD_TABLES[name])
    assert held < 10**6
    assert slab_rod._kept is None


@pytest.mark.parametrize("lengths", [(1e-5, 1e-5), (2e-5, 1.5e-5)])
@pytest.mark.parametrize("bc", BCS)
def test_rod_thresholds_equal_unique_over_the_full_rectangle(lengths, bc):
    from cavityrad.slab_rod import _k2_grid, _rod_axes

    def unique_thresholds(omega_max):
        s = _k2_grid(_rod_axes(rod, bc, omega_max / C_LIGHT))[0]
        w = C_LIGHT * np.sqrt(np.unique(s[s > 0.0]))
        return w[w <= omega_max]

    rod = RodGeometry(*lengths)
    # a cutoff that is itself a threshold puts the last table entry at the cut
    on_threshold = unique_thresholds(1e15)[::7].tolist()
    for omega_max in [3e14, 1e15, *on_threshold]:
        expected = unique_thresholds(omega_max)
        assert np.array_equal(rod_threshold_frequencies(rod, bc, omega_max), expected)


def test_singular_sample_at_the_cap_edge_names_its_mode(monkeypatch):
    # the sample's own table has 83 x 83 = 6889 entries; naming the mode must
    # not build a larger label grid and turn the refusal into a cap error
    import cavityrad.slab_rod as slab_rod

    L = 2e-5
    omega = 2.0 * math.pi * C_LIGHT * math.sqrt(1597.0) / L  # on mode (34, 21)
    monkeypatch.setattr(slab_rod, "MAX_ROD_TABLE", 6889)
    with pytest.raises(ThresholdSingularityError) as err:
        rod_density(omega, 300.0, RodGeometry(L, L), BoundaryCondition.PERIODIC)
    n1, n2 = err.value.mode
    assert n1 * n1 + n2 * n2 == 1597
    monkeypatch.setattr(slab_rod, "MAX_ROD_TABLE", 6888)
    with pytest.raises(ResourceLimitError, match="transverse modes"):
        rod_density(omega, 300.0, RodGeometry(L, L), BoundaryCondition.PERIODIC)


def test_rod_window_average_refuses_a_window_beyond_the_float_range():
    # omega itself is finite, but the first search window omega*1.25 is not
    with pytest.raises(ValueError, match="omega_max must be finite and > 0"):
        rod_window_average(1.7e308, 300.0, RodGeometry(1e-3, 5e-4), BoundaryCondition.PERIODIC)
