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


def per_sample_rod_sum(omega, rod, bc, guard=1e-9):
    """Reference: the mode sum with a transverse table sized to this omega
    alone, one 1-D np.sum; None inside a guard window."""
    from cavityrad.slab_rod import _transverse_k2

    k = omega / C_LIGHT
    s = _transverse_k2(rod, bc, k * (1.0 + 4.0 * guard))
    i0, i1 = np.searchsorted(s, [(k * (1.0 - guard)) ** 2, (k * (1.0 + guard)) ** 2])
    if i1 > i0:
        return None
    n = np.searchsorted(s, k * k)
    return float(np.sum(1.0 / np.sqrt(k * k - s[:n]))) if n else 0.0


def per_sample_rod_density(omega, T, rod, bc, guard=1e-9):
    """Reference: the rod density of per_sample_rod_sum, in Python floats;
    None inside a guard window."""
    total = per_sample_rod_sum(omega, rod, bc, guard)
    if not total:
        return total
    pref = 2.0 * omega * mean_oscillator_energy(omega, T) / (
        math.pi * C_LIGHT**2 * rod.L1 * rod.L2)
    return pref * total


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
    from cavityrad.slab_rod import THRESHOLD_GUARD, _rod_sums, _rod_values

    curves = list(rod_curves())
    assert len(curves) == 10
    refused = 0
    for name, rod, bc, T, grid in curves:
        totals, singular = _rod_sums(grid, rod, bc, THRESHOLD_GUARD)
        values = _rod_values(grid, T, rod, totals)
        for i, w in enumerate(grid.tolist()):
            expected = per_sample_rod_density(w, T, rod, bc)
            if expected is None:
                refused += 1
                assert i in singular and totals[i] == 0.0, (name, i)
                with pytest.raises(ThresholdSingularityError) as err:
                    rod_density(w, T, rod, bc)
                assert singular[i].mode == err.value.mode, (name, i)
                continue
            assert i not in singular and values[i] == expected, (name, i)
            assert rod_density(w, T, rod, bc) == expected, (name, i)
    assert refused >= 5


def test_rod_grid_blocks_equal_per_sample_sums():
    # one admitted count shared by more samples than a block holds, so its
    # block is chunked; unsorted and repeated omegas, omega = 0, a singular
    # sample among regular ones and omegas whose (omega/c)^2 overflows
    import tracemalloc
    import warnings

    from cavityrad.geometry import BLOCK
    from cavityrad.slab_rod import THRESHOLD_GUARD, _rod_sums

    rod, bc = HUGE_K_ROD, BoundaryCondition.PERIODIC
    step = 2.0 * math.pi * C_LIGHT / rod.L2  # the thresholds are n*step: k1 = 0 only
    wide = np.linspace(500.0 * step, 501.0 * step, 402)[1:-1]  # 1,001 modes each
    narrow = np.linspace(20.0 * step, 21.0 * step, 12)[1:-1]
    th = float(rod_threshold_frequencies(rod, bc, 500.5 * step)[-1])  # n = 500
    overflow = [5e162, 1e163]
    grid = np.concatenate([wide, narrow, wide[:30], [0.0, th], overflow])
    np.random.default_rng(22).shuffle(grid)
    assert len(rod_transverse_modes(wide[0], rod, bc)) == 1001
    assert 430 * 1001 > BLOCK  # the 430 wide samples exceed one block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        totals, singular = _rod_sums(grid, rod, bc, THRESHOLD_GUARD)  # builds the table
        tracemalloc.start()
        try:
            again = _rod_sums(grid, rod, bc, THRESHOLD_GUARD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert again[0].tolist() == totals.tolist() and again[1].keys() == singular.keys()
    # one block of BLOCK floats, numpy's two iterator buffers for the
    # broadcast subtraction, and arrays of the grid's size; one unchunked
    # block would take 3.4 MB
    assert peak <= 8 * BLOCK + 16 * np.getbufsize() + 32 * totals.nbytes
    for i, w in enumerate(grid.tolist()):
        if w in overflow:
            assert totals[i] == math.inf and i not in singular, w
            continue
        expected = per_sample_rod_sum(w, rod, bc)
        if expected is None:
            assert w == th and totals[i] == 0.0, w
            with pytest.raises(ThresholdSingularityError) as err:
                rod_density(w, 300.0, rod, bc)
            assert singular[i].mode == err.value.mode in ((0, -500), (0, 500)), w
            continue
        assert i not in singular and totals[i] == expected, w
    assert len(singular) == 1


def own_cap(omega, guard=1e-9):
    """The table cap a rod_density call at omega asks for."""
    return omega / C_LIGHT * (1.0 + 4.0 * max(guard, 1e-9))


def kept_rod():
    """The kept rod table as (key, cap, sorted k^2), or None."""
    from cavityrad import geometry

    return geometry._kept.get("rod")


def own_table_rod_density(omega, T, rod, bc):
    """rod_density through a table of the call's own cap, as with nothing kept;
    the kept table is put back afterwards."""
    from cavityrad import geometry

    kept = geometry._kept.pop("rod", None)
    try:
        return rod_density(omega, T, rod, bc)
    finally:
        geometry._kept.pop("rod", None)
        if kept is not None:
            geometry._kept["rod"] = kept


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
                        slab_rod._rod_sum.cache_clear()  # a hit would not read the kept table
                        kept = kept_rod()
                        hits += (kept is not None and kept[0] == (rod.L1, rod.L2, bc)
                                 and kept[1] >= own_cap(w))
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


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("lengths", [(1e-3, 1e-3), (7.5e-4, 5e-4)])
def test_rod_sum_memo_hit_equals_a_cleared_call(lengths, bc, monkeypatch):
    # a revisit at another temperature reads the kept sum and no table
    from cavityrad import slab_rod

    rod = RodGeometry(*lengths)
    omegas = np.linspace(1e13, 3e14, 12).tolist()
    tables = []
    kept_table = slab_rod._kept_table
    monkeypatch.setattr(slab_rod, "_kept_table",
                        lambda *args: tables.append(args) or kept_table(*args))
    for T in (300.0, 1000.0):
        for w in omegas:
            rod_density(w, 500.0, rod, bc)
        assert slab_rod._rod_sum.cache_info().currsize == len(omegas)
        tables.clear()
        hits = [rod_density(w, T, rod, bc) for w in omegas]
        assert tables == []
        assert slab_rod._rod_sum.cache_info().hits >= len(omegas)
        cleared = []
        for w in omegas:
            slab_rod._rod_sum.cache_clear()
            cleared.append(rod_density(w, T, rod, bc))
        assert len(tables) == len(omegas)
        assert [v.hex() for v in hits] == [v.hex() for v in cleared]


def test_rod_sum_memo_hit_checks_the_temperature_and_the_float_range():
    from cavityrad import slab_rod

    rod, bc, omega = RodGeometry(1e-3, 1e-3), BoundaryCondition.DIRICHLET, 2e14
    for T in (math.nan, -5.0, 0.0, True):
        slab_rod._rod_sum.cache_clear()
        with pytest.raises(ValueError) as want:
            rod_density(omega, T, rod, bc)  # a miss
        rod_density(omega, 300.0, rod, bc)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            rod_density(omega, T, rod, bc)  # a hit
    # the overflowing prefactor of test_density_beyond_the_float_range_refused
    tiny = RodGeometry(1e-100, 2e-4)
    rod_density(1e14, 300.0, tiny, BoundaryCondition.PERIODIC)
    with pytest.raises(ValueError, match="density exceeds the float range"):
        rod_density(1e14, 1e300, tiny, BoundaryCondition.PERIODIC)


def test_rod_sum_memo_keeps_no_singular_sample():
    # each call raises its own error, built anew
    from cavityrad import slab_rod

    rod = RodGeometry(1e-5, 1e-5)
    w = float(rod_threshold_frequencies(rod, BoundaryCondition.PERIODIC, 1e15)[0])
    errors = []
    for _ in range(2):
        with pytest.raises(ThresholdSingularityError) as err:
            rod_density(w, 300.0, rod, BoundaryCondition.PERIODIC)
        errors.append(err.value)
    assert errors[0] is not errors[1] and errors[0].mode == errors[1].mode
    info = slab_rod._rod_sum.cache_info()
    assert info.currsize == 0 and info.misses == 2 and info.hits == 0


def test_singular_sample_checks_the_temperature_and_the_float_range_first():
    rod, bc = RodGeometry(1e-5, 1e-5), BoundaryCondition.PERIODIC
    w = float(rod_threshold_frequencies(rod, bc, 1e15)[0])
    for T in (math.nan, -5.0, 0.0):
        with pytest.raises(ValueError) as want:
            mean_oscillator_energy(1.0, T)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            rod_density(w, T, rod, bc)
    # the overflowing prefactor of test_density_beyond_the_float_range_refused
    tiny = RodGeometry(1e-100, 2e-4)
    w = float(rod_threshold_frequencies(tiny, bc, 1e14)[0])
    with pytest.raises(ThresholdSingularityError):
        rod_density(w, 300.0, tiny, bc)
    with pytest.raises(ValueError, match="density exceeds the float range"):
        rod_density(w, 1e300, tiny, bc)


def test_rod_sum_memo_holds_at_most_1024_entries():
    from cavityrad import slab_rod

    rod, bc = RodGeometry(1e-5, 1e-5), BoundaryCondition.DIRICHLET
    omegas = np.linspace(1e13, 1e15, 1100).tolist()
    for w in omegas:
        rod_density(w, 300.0, rod, bc)
        assert slab_rod._rod_sum.cache_info().currsize <= 1024
    assert slab_rod._rod_sum.cache_info().currsize == 1024
    # the least recently used entries went first: the last 1,024 omegas hit,
    # the first 76 miss
    for w in omegas[-1024:]:
        rod_density(w, 300.0, rod, bc)
    info = slab_rod._rod_sum.cache_info()
    assert info.hits == 1024 and info.misses == 1100
    for w in omegas[:76]:
        rod_density(w, 300.0, rod, bc)
    info = slab_rod._rod_sum.cache_info()
    assert info.hits == 1024 and info.misses == 1176


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
    assert kept_rod()[1] == own_cap(1.2 * omega)


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
    assert kept_rod() is None


def test_refused_own_cap_is_built_once(monkeypatch):
    # a new key builds at its own cap; a refusal there is raised as it is,
    # not retried at the same cap
    from cavityrad import slab_rod

    caps = []
    build = slab_rod._transverse_k2
    monkeypatch.setattr(slab_rod, "_transverse_k2",
                        lambda geom, bc, k_cap: caps.append(k_cap) or build(geom, bc, k_cap))
    with pytest.raises(ResourceLimitError, match="transverse modes") as err:
        rod_density(1e18, 300.0, RodGeometry(1e-2, 1e-2), BoundaryCondition.PERIODIC)
    assert caps == [own_cap(1e18)]
    assert err.value.__context__ is None
    assert kept_rod() is None


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
    assert kept_rod()[1] > own_cap(omega)  # grown past the call's own cap
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


def test_rod_window_builds_one_table_covering_the_next_threshold(monkeypatch):
    from cavityrad import quadrature_total_energy, slab_rod

    # periodic square rod: t2 = sqrt(2)*t1 lies one axis step past t1 at most
    L, T, bc = 1e-5, 300.0, BoundaryCondition.PERIODIC
    rod = RodGeometry(L, L)
    t1 = 2.0 * math.pi * C_LIGHT / L
    t2 = math.sqrt(2.0) * t1
    caps = []
    transverse_k2 = slab_rod._transverse_k2
    monkeypatch.setattr(slab_rod, "_transverse_k2",
                        lambda g, b, k: caps.append(k) or transverse_k2(g, b, k))
    avg = rod_window_average(1.1 * t1, T, rod, bc)
    assert len(caps) == 1 and C_LIGHT * caps[0] > t2
    fn = lambda w: rod_density(w, T, rod, bc, threshold_guard=0.0)
    integral = (quadrature_total_energy(fn, t2, thresholds=[t1], rel_tol=1e-9)
                - quadrature_total_energy(fn, t1, rel_tol=1e-9))
    assert avg == pytest.approx(integral / (t2 - t1), rel=1e-4)


# commensurate, square, near-square and flat rods: windows on thresholds
WINDOW_RODS = [(1e-3, 5e-4), (1e-3, 1e-3), (7.5e-4, 5e-4), (1e-3, 1.0001e-3),
               (1e-5, 1e-5), (2e-5, 1.5e-5), (3e-4, 1e-5)]


@pytest.mark.parametrize("bc", BCS)
def test_rod_window_equals_one_from_a_table_at_five_omega(bc, monkeypatch):
    # the window's table stops one axis step above omega; any larger table
    # holds the same thresholds and prefix below it, so the value is the same
    from cavityrad import slab_rod

    transverse_k2 = slab_rod._transverse_k2
    for lengths in WINDOW_RODS:
        rod = RodGeometry(*lengths)
        th = rod_threshold_frequencies(rod, bc, 20.0 * math.pi * C_LIGHT / min(lengths))
        with pytest.raises(ValueError, match="below the first transverse threshold"):
            rod_window_average(0.5 * th[0], 300.0, rod, bc)
        for omega in th[[0, 1, 2, len(th) // 2, -2]].tolist():
            value = rod_window_average(omega, 300.0, rod, bc)
            with monkeypatch.context() as m:
                m.setattr(slab_rod, "_transverse_k2",
                          lambda g, b, k: transverse_k2(g, b, 5.0 * omega / C_LIGHT))
                assert rod_window_average(omega, 300.0, rod, bc) == value, (lengths, omega)


def loop_window_average(omega, T, rod, bc):
    """Reference: the window average with each piece's thermal factor taken
    one at a time in Python floats, the pieces added in order."""
    from cavityrad.slab_rod import _transverse_k2

    s = _transverse_k2(rod, bc, 5.0 * omega / C_LIGHT).tolist()
    w = [C_LIGHT * math.sqrt(v) for v in s if v > 0.0]
    a, b = max(v for v in w if v <= omega), min(v for v in w if v > omega)
    mid_all = 0.5 * (a + b)
    s_adm = np.array([v for v in s if v < (mid_all / C_LIGHT) ** 2])

    def antiderivative(x):
        return C_LIGHT * np.log(x + np.sqrt(np.maximum(x * x - C_LIGHT**2 * s_adm, 0.0)))

    edges = np.linspace(a, b, max(1, math.ceil((b - a) / (1e-3 * mid_all))) + 1).tolist()
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        factor = 2.0 * mid * mean_oscillator_energy(mid, T) / (
            math.pi * C_LIGHT**2 * rod.L1 * rod.L2)
        total += factor * float(np.sum(antiderivative(hi) - antiderivative(lo)))
    return total / (b - a)


@pytest.mark.parametrize("bc", BCS)
def test_rod_window_equals_a_piece_by_piece_loop(bc):
    # wide windows of small rods: up to ~400 pieces, each factor the scalar one
    for lengths in [(1e-5, 1e-5), (2e-5, 1.5e-5)]:
        rod = RodGeometry(*lengths)
        th = rod_threshold_frequencies(rod, bc, 20.0 * math.pi * C_LIGHT / min(lengths))
        for omega in (1.01 * th[[0, 1, 2, 5]]).tolist():
            for T in (30.0, 300.0, 3000.0):
                assert (rod_window_average(omega, T, rod, bc)
                        == loop_window_average(omega, T, rod, bc)), (lengths, omega, T)


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


@pytest.mark.parametrize("bc", BCS)
@pytest.mark.parametrize("lengths", [(1e-3, 1e-3), (3e-4, 2e-4)])  # square and 3:2
def test_rod_table_is_the_sorted_signed_scan_bit_for_bit(lengths, bc):
    from cavityrad.geometry import CUT_MARGIN
    from cavityrad.slab_rod import _rod_axes, _transverse_k2

    rod, k_cap = RodGeometry(*lengths), 1e15 / C_LIGHT
    # k1^2 + k2^2 over every signed label pair of the rod's rectangle, one cut
    (k1, _), (k2, _) = _rod_axes(rod, bc, k_cap)
    s = (k1**2)[:, None] + (k2**2)[None, :]
    expected = np.sort(s[s <= k_cap * k_cap * CUT_MARGIN])
    table = _transverse_k2(rod, bc, k_cap)
    assert table.size > 10**4 and table.dtype == expected.dtype
    assert table.tobytes() == expected.tobytes()


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
        assert kept_rod()[0] == (rod.L1, rod.L2, bc)
        assert last_cap <= kept_rod()[1] <= 2.0 * last_cap

    other = RodGeometry(1e-5, 1e-5)
    held, released = held_bytes(sweep, lambda: rod_density(1e15, 300.0, other, bc))
    assert own <= held <= bound + 10**4
    # a call on another geometry releases it
    assert kept_rod()[0] == (other.L1, other.L2, bc)
    assert released < 10**6


def cli_rod_grid(lengths):
    from cavityrad.cli import _build_config, compute

    compute(_build_config([("geometry", "rod"), ("bc", "periodic"), ("lengths", lengths),
                           ("temperature", "300"), ("omega-max", "1e15"), ("samples", "40")]))


def test_cli_grid_shares_the_kept_table(monkeypatch):
    import weakref

    from cavityrad import slab_rod

    cli_rod_grid("1e-3,1e-3")
    assert kept_rod()[0] == (1e-3, 1e-3, BoundaryCondition.PERIODIC)
    table = weakref.ref(kept_rod()[2])
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
    assert kept_rod()[0] == (1e-5, 1e-5, BoundaryCondition.PERIODIC)
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
    from cavityrad import geometry

    [held] = held_bytes(UNKEPT_ROD_TABLES[name])
    assert held < 10**6
    assert geometry._kept == {}


@pytest.mark.parametrize("lengths", [(1e-5, 1e-5), (2e-5, 1.5e-5)])
@pytest.mark.parametrize("bc", BCS)
def test_rod_thresholds_equal_unique_over_the_full_rectangle(lengths, bc):
    from cavityrad.slab_rod import _rod_axes

    def unique_thresholds(omega_max):
        (k1, _), (k2, _) = _rod_axes(rod, bc, omega_max / C_LIGHT)
        s = (k1**2)[:, None] + (k2**2)[None, :]
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
    # omega itself is finite, but its table needs more modes than a float holds
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="needs inf transverse modes"):
            rod_window_average(1.7e308, 300.0, RodGeometry(1e-3, 5e-4),
                               BoundaryCondition.PERIODIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


# a tiny film or rod at a huge temperature: the prefactor overflows
OVERFLOWING_DENSITIES = {
    "film_density": lambda: film_density(np.array([0.0, 5e9, 1e10]), 1e300,
                                         FilmGeometry(1e-300), BoundaryCondition.PERIODIC),
    "rod_density": lambda: rod_density(1e14, 1e300, RodGeometry(1e-100, 2e-4),
                                       BoundaryCondition.PERIODIC),
    "rod_window_average": lambda: rod_window_average(3e14, 1e300, RodGeometry(1e-100, 2e-4),
                                                     BoundaryCondition.PERIODIC),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_DENSITIES))
def test_density_beyond_the_float_range_refused(name):
    with pytest.raises(ValueError, match="density exceeds the float range"):
        OVERFLOWING_DENSITIES[name]()


def first_labels_by_k2(rod, bc, k_max):
    """{k1^2 + k2^2: (n1, n2)} over the label pairs with |k_i| <= k_max, each
    float k^2 mapped to its first pair in row-major label order."""
    from cavityrad.geometry import quantization

    period, offset, two_sided = quantization(bc)

    def axis(L):
        m = math.ceil(k_max * L / period) + 2
        labels = range(-m, m + 1) if two_sided else range(1, m + 1)
        return [(n, period * (n + offset) / L) for n in labels]

    first = {}
    for n1, k1 in axis(rod.L1):
        for n2, k2 in axis(rod.L2):
            first.setdefault(k1 * k1 + k2 * k2, (n1, n2))
    return first


@pytest.mark.parametrize("lengths", [(1e-5, 1e-5), (1e-5, 7.5e-6)])
@pytest.mark.parametrize("bc", BCS)
def test_singular_samples_name_the_first_mode_at_their_k_perp(lengths, bc):
    # every threshold's error names labels whose wavenumbers give exactly its
    # k_perp, and the first pair in row-major label order with their k^2
    from cavityrad.geometry import quantization

    period, offset, _ = quantization(bc)
    rod = RodGeometry(*lengths)
    omega_max = 40.0 * math.pi * C_LIGHT / max(lengths)
    first = first_labels_by_k2(rod, bc, 1.01 * omega_max / C_LIGHT)
    th = rod_threshold_frequencies(rod, bc, omega_max).tolist()
    assert len(th) > 100
    for w in th:
        with pytest.raises(ThresholdSingularityError) as err:
            rod_density(w, 300.0, rod, bc)
        n1, n2 = err.value.mode
        k1, k2 = period * (n1 + offset) / rod.L1, period * (n2 + offset) / rod.L2
        assert math.sqrt(k1 * k1 + k2 * k2) == err.value.k_perp, (w, err.value.mode)
        assert first[k1 * k1 + k2 * k2] == (n1, n2), w


def test_forgetting_kept_state_empties_every_lru_cache():
    import cavityrad
    from cavityrad import geometry, slab_rod
    from conftest import forget_kept_state, lru_caches

    rod_density(3e14, 300.0, RodGeometry(1e-5, 1e-5), BoundaryCondition.PERIODIC)
    cavityrad.cube_binned_density(1e-4, BoundaryCondition.PERIODIC, 300.0, 1e13, 1e15)
    caches = lru_caches()
    assert [cache for cache in caches if cache.cache_info().currsize > 0] == [slab_rod._rod_sum]
    assert sorted(geometry._kept) == ["cube", "rod"]
    forget_kept_state()
    assert [cache for cache in caches if cache.cache_info().currsize > 0] == []
    assert geometry._kept == {}


def test_rod_of_an_area_below_the_float_range_refused():
    # L1*L2 underflows to 0: the density is refused, with no division warning
    rod = RodGeometry(1e-200, 1e-200)
    for call in (lambda: rod_density(1e14, 300.0, rod, BoundaryCondition.PERIODIC),
                 lambda: rod_density(0.0, 300.0, rod, BoundaryCondition.PERIODIC)):
        with pytest.raises(ValueError, match="density exceeds the float range"):
            call()


# (omega/c)^2 overflows from ~4e162 rad/s; the periodic modes of this
# cross-section below 1e163 rad/s (k1 = 0, ~1.1e6 values of k2) fit the table cap
HUGE_K_ROD = RodGeometry(1e-160, 1e-148)


def test_rod_density_where_k_squared_overflows_is_zero_where_the_mean_energy_is():
    # an overflowed k^2 is inf and admits every finite table entry, with no warning
    assert mean_oscillator_energy(1e163, 300.0) == 0.0
    assert rod_density(1e163, 300.0, HUGE_K_ROD, BoundaryCondition.PERIODIC) == 0.0


def test_rod_density_where_k_squared_overflows_refused_past_the_float_range():
    assert mean_oscillator_energy(1e163, 1e300) > 0.0
    with pytest.raises(ValueError, match="density exceeds the float range"):
        rod_density(1e163, 1e300, HUGE_K_ROD, BoundaryCondition.PERIODIC)


def test_rod_density_where_k_squared_overflows_refused_at_a_positive_mean_energy():
    # every term 1/sqrt(inf - s) would be 0, where the density is ~3.7e130
    assert 0.0 < mean_oscillator_energy(1e163, 1.09e149) < 1e-170
    with pytest.raises(ValueError, match="density exceeds the float range"):
        rod_density(1e163, 1.09e149, HUGE_K_ROD, BoundaryCondition.PERIODIC)
    # no Dirichlet mode lies below omega/c (the first is at ~3e160 m^-1): an exact 0.0
    assert rod_density(1e163, 1.09e149, HUGE_K_ROD, BoundaryCondition.DIRICHLET) == 0.0


def test_rod_window_where_k_squared_overflows_refused():
    # the window's upper threshold squared leaves the float range
    with pytest.raises(ValueError, match="window exceeds the float range"):
        rod_window_average(1e163, 300.0, HUGE_K_ROD, BoundaryCondition.PERIODIC)
