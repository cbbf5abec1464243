"""Binned spectra and the Weyl density: conservation, Planck tracking at
desk scale, bin-width inertness, negativity at small size, descriptors."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from cavityrad import (
    C_LIGHT,
    BoundaryCondition,
    BoxGeometry,
    GeometryDescriptors,
    ModeList,
    ResourceLimitError,
    SphereGeometry,
    binned_density,
    cube_binned_density,
    descriptors_for,
    enumerate_box_modes,
    enumerate_sphere_modes,
    mean_oscillator_energy,
    planck_density,
    weyl_density,
)


def planck_bin_average(left, width, T):
    val, _ = quad(lambda w: planck_density(w, T), left, left + width, limit=200)
    return val / width


def step_average(spectrum, a, b):
    """Exact sliding-window average of a piecewise-constant binned spectrum."""
    edges = np.append(spectrum.omega_left, spectrum.omega_left[-1] + spectrum.delta_omega)
    cum = np.concatenate(([0.0], np.cumsum(spectrum.u) * spectrum.delta_omega))
    ia, ib = np.interp([a, b], edges, cum)
    return (ib - ia) / (b - a)


def test_empty_modelist_gives_zero_bins():
    empty = ModeList(np.empty(0), np.empty(0, dtype=np.int64), 1e14)
    spec = binned_density(empty, 300.0, 1e13, 1e-12)
    assert spec.n_bins == 10
    assert np.all(spec.u == 0.0)
    assert not spec.last_bin_partial


def bincount_u(modes, T, delta_omega, volume, n_bins):
    """Reference bins: one np.bincount of every mode's thermal energy."""
    idx = np.minimum((modes.omegas / delta_omega).astype(np.int64), n_bins - 1)
    energy = modes.multiplicities * mean_oscillator_energy(modes.omegas, T)
    return np.bincount(idx, weights=energy, minlength=n_bins) / (volume * delta_omega)


def test_bins_equal_one_bincount_bit_for_bit():
    box = BoxGeometry(2e-4, 1e-4, 1.5e-4)
    cases = [(enumerate_box_modes(box, bc, 1e15), box.volume) for bc in BoundaryCondition]
    sphere = SphereGeometry(5e-5)
    cases.append((enumerate_sphere_modes(sphere, 6e14), sphere.volume))
    for modes, volume in cases:
        for T, dw in ((300.0, 1e13), (3000.0, 3.7e12)):
            spec = binned_density(modes, T, dw, volume)
            assert np.array_equal(spec.u, bincount_u(modes, T, dw, volume, spec.n_bins))


@pytest.mark.parametrize("T", [math.nan, -5.0, 0.0])
def test_cube_with_no_norm_below_the_cutoff_checks_the_temperature(T):
    empty = ModeList(np.empty(0), np.empty(0, dtype=np.int64), 1e13)
    with pytest.raises(ValueError) as want:
        binned_density(empty, T, 1e13, 1e-18)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        cube_binned_density(1e-6, BoundaryCondition.PERIODIC, T, 1e13, 1e13)


def test_single_mode_bin_value():
    w0, mult, V, dw = 3.7e13, 6, 2e-15, 1e13
    modes = ModeList(np.array([w0]), np.array([mult], dtype=np.int64), 1e14)
    spec = binned_density(modes, 300.0, dw, V)
    expect = mult * mean_oscillator_energy(w0, 300.0) / (V * dw)
    i = int(w0 // dw)
    assert spec.u[i] == pytest.approx(expect, rel=1e-14)
    assert np.count_nonzero(spec.u) == 1


def test_partial_last_bin_flag():
    empty = ModeList(np.empty(0), np.empty(0, dtype=np.int64), 1.05e14)
    spec = binned_density(empty, 300.0, 1e13, 1e-12)
    assert spec.n_bins == 11
    assert spec.last_bin_partial


def test_bin_count_over_cap_refused_before_allocation():
    from cavityrad.binned import MAX_BINS

    empty = ModeList(np.empty(0), np.empty(0, dtype=np.int64), 1e15)
    assert binned_density(empty, 300.0, 1e15 / MAX_BINS, 1e-12).n_bins == MAX_BINS
    for dw in (1e15 / (MAX_BINS + 1), 1e-3, 1e-320):
        with pytest.raises(ResourceLimitError, match="frequency bins"):
            binned_density(empty, 300.0, dw, 1e-12)


def test_top_edge_mode_lands_in_last_bin_and_conserves():
    dw, V = 1e13, 1e-13
    omega_max = 10 * dw
    modes = ModeList(np.array([omega_max]), np.array([4], dtype=np.int64), omega_max)
    spec = binned_density(modes, 300.0, dw, V)
    assert spec.n_bins == 10
    assert spec.u[-1] > 0.0
    assert spec.total_energy() == pytest.approx(modes.thermal_energy(300.0), rel=1e-12)


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_energy_conservation_box(bc):
    L = 5e-5
    modes = enumerate_box_modes(BoxGeometry(L, L, L), bc, 6e14)
    spec = binned_density(modes, 300.0, 1e13, L**3)
    assert spec.total_energy() == pytest.approx(modes.thermal_energy(300.0), rel=1e-12)


def test_energy_conservation_sphere():
    geom = SphereGeometry(5e-5)
    modes = enumerate_sphere_modes(geom, 6e14)
    spec = binned_density(modes, 300.0, 1e13, geom.volume)
    assert spec.total_energy() == pytest.approx(modes.thermal_energy(300.0), rel=1e-12)


def test_cube_binned_tracks_planck_at_0p2mm():
    # Direct computation puts the worst bin on [0.5, 2]e14 at 11.8 percent
    # (number-theoretic shell fluctuation), so the frozen envelope is 12;
    # near the thermal peak the deviation stays below 10 percent.
    L, T, dw = 2e-4, 300.0, 1e13
    modes = enumerate_box_modes(BoxGeometry(L, L, L), BoundaryCondition.PERIODIC, 1e15)
    spec = binned_density(modes, T, dw, L**3)
    centers = spec.omega_centers
    sel = (centers >= 0.5e14) & (centers <= 2.0e14)
    ref = np.array([planck_bin_average(left, dw, T)
                    for left in spec.omega_left[sel]])
    dev = np.abs(spec.u[sel] / ref - 1.0)
    assert dev.max() < 0.12
    # the three bins bracketing the 300 K peak at 1.108e14 rad/s
    peak = (centers >= 1.0e14) & (centers <= 1.3e14)
    ref_peak = np.array([planck_bin_average(left, dw, T)
                         for left in spec.omega_left[peak]])
    assert np.max(np.abs(spec.u[peak] / ref_peak - 1.0)) < 0.10


def test_bin_width_robustness_at_0p2mm():
    # halving the bin width leaves sliding-window averages over the thermal
    # peak essentially unchanged (conservation makes aligned spans exact)
    L, T = 2e-4, 300.0
    modes = enumerate_box_modes(BoxGeometry(L, L, L), BoundaryCondition.PERIODIC, 1e15)
    coarse = binned_density(modes, T, 1e13, L**3)
    fine = binned_density(modes, T, 5e12, L**3)
    width = 3e13
    for center in np.linspace(0.8e14, 1.4e14, 121):
        a, b = center - width / 2, center + width / 2
        assert step_average(fine, a, b) == pytest.approx(
            step_average(coarse, a, b), rel=0.02
        )


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_fast_path_matches_enumeration(bc):
    L, T, dw, omega_max = 1.3e-5, 300.0, 2e13, 7e14
    via_enum = binned_density(
        enumerate_box_modes(BoxGeometry(L, L, L), bc, omega_max), T, dw, L**3
    )
    fast = cube_binned_density(L, bc, T, dw, omega_max)
    assert fast.n_bins == via_enum.n_bins
    np.testing.assert_allclose(fast.u, via_enum.u, rtol=1e-12, atol=1e-30)


def brute_force_triple_counts(values, m_max):
    """r3[m]: ordered triples drawn from the 1-D component squares `values`
    (with repetition, one entry per lattice index) summing to m <= m_max."""
    counts = np.zeros(m_max + 1, dtype=np.int64)
    for a in values:
        for b in values:
            for c in values:
                if a + b + c <= m_max:
                    counts[a + b + c] += 1
    return counts


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_counts_match_brute_force_triples(bc, monkeypatch):
    from cavityrad import binned

    m_max = 300  # FFT length 625 = 5^4, not a power of two
    assert binned._fast_len(2 * m_max + 1) == 625
    side = 1.0
    unit = (2.0 if bc is BoundaryCondition.PERIODIC else 1.0) * math.pi * C_LIGHT / side
    seen = []
    exact = binned._exact_counts_by_convolution

    def spy(r1, m):
        seen.append((m, exact(r1, m)))
        return seen[-1][1]

    monkeypatch.setattr(binned, "_exact_counts_by_convolution", spy)
    cube_binned_density(side, bc, 300.0, unit, unit * math.sqrt(m_max + 0.5))
    (m_seen, r3), = seen
    assert m_seen == m_max
    n = np.arange(-20, 21)
    values = {BoundaryCondition.PERIODIC: n**2,
              BoundaryCondition.ANTIPERIODIC: (2 * n + 1) ** 2,
              BoundaryCondition.DIRICHLET: n[n >= 1] ** 2}[bc]
    np.testing.assert_array_equal(r3, brute_force_triple_counts(values.tolist(), m_max))


def test_odd_label_counts_live_on_one_residue_class():
    from cavityrad.binned import _exact_counts_by_convolution

    m_max = 20_011
    n = np.arange(-72, 72)
    j = 2 * n + 1                                       # the antiperiodic labels
    r3 = _exact_counts_by_convolution(j, m_max)
    # the full-length convolution of the one- and two-axis histograms, exact in ints
    r1 = np.bincount(j**2, minlength=m_max + 1)[: m_max + 1]
    r2 = np.bincount((j[:, None] ** 2 + j[None, :] ** 2).ravel(), minlength=m_max + 1)
    r2 = r2[: m_max + 1]
    full = np.zeros(m_max + 1, dtype=np.int64)
    for i in np.flatnonzero(r1):
        full[i:] += r1[i] * r2[: m_max + 1 - i]
    assert r3.dtype == np.int64 and r3.shape == (m_max + 1,)
    off_class = np.arange(m_max + 1) % 8 != 3
    assert not np.any(r3[off_class]) and np.count_nonzero(r3) > 2000
    np.testing.assert_array_equal(r3, full)


@pytest.mark.parametrize("bc", [BoundaryCondition.PERIODIC, BoundaryCondition.DIRICHLET])
def test_mixed_parity_counts_equal_the_full_convolution(bc):
    from cavityrad.binned import _exact_counts_by_convolution

    m_max = 20_011
    n = np.arange(-150, 151)
    j = n if bc is BoundaryCondition.PERIODIC else n[n >= 1]  # odd and even labels, 0 for P
    r3 = _exact_counts_by_convolution(j, m_max)
    r1 = np.bincount(j**2, minlength=m_max + 1)[: m_max + 1]
    r2 = np.bincount((j[:, None] ** 2 + j[None, :] ** 2).ravel(), minlength=m_max + 1)
    r2 = r2[: m_max + 1]
    full = np.zeros(m_max + 1, dtype=np.int64)
    for i in np.flatnonzero(r1):
        full[i:] += r1[i] * r2[: m_max + 1 - i]
    assert r3.dtype == np.int64 and r3.shape == (m_max + 1,)
    assert all(np.any(r3[c::8]) for c in range(8) if c != 7)  # every class but 7 mod 8
    np.testing.assert_array_equal(r3, full)


def test_pair_counts_fold_signs_and_repeated_labels():
    from cavityrad.binned import _pair_counts

    cap = 5_000
    for j in (np.arange(-60, 61), np.array([0, 0, 3, -3, 3, 7, -11, 50]), np.arange(1, 80)):
        sums = (j[:, None] ** 2 + j[None, :] ** 2).ravel()
        for shift in (0, 3):
            direct = np.bincount(sums[sums <= cap] >> shift, minlength=(cap >> shift) + 1)
            counts = _pair_counts(j, cap, shift)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, direct)


def blocked_kernel_outputs(case):
    """The arrays one blocked kernel gives: a cube spectrum (pair counts and
    norm binning), box-mode merges (weighted under P and AP, plain under D,
    and chains of near-equal values) or the figure-2 rod mode sums."""
    from test_slab_rod import rod_curves

    from cavityrad import modes
    from cavityrad.slab_rod import THRESHOLD_GUARD, _rod_sums

    if case.startswith("cube-"):
        return [cube_binned_density(2e-4, BoundaryCondition(case[5:]), 300.0, 1e13, 1e15).u]
    if case == "box merge":
        rng = np.random.default_rng(23)
        chains = (rng.choice(np.linspace(1e13, 1e15, 300), 5000)
                  * (1.0 + rng.choice([0.0, 4e-13, 2e-12], 5000)))
        weights = rng.integers(1, 5, chains.size)
        out = [*modes._merge_weighted(chains), *modes._merge_weighted(chains, weights)]
        for bc in BoundaryCondition:
            box = enumerate_box_modes(BoxGeometry(5e-5, 4e-5, 3e-5), bc, 1e15)
            out += [box.omegas, box.multiplicities]
        return out
    out = []
    for _, rod, bc, _, grid in rod_curves():
        totals, singular = _rod_sums(grid, rod, bc, THRESHOLD_GUARD)
        out += [totals, np.array(sorted(singular))]
    return out


@pytest.mark.parametrize("case", ["cube-periodic", "cube-antiperiodic", "cube-dirichlet",
                                  "box merge", "rod sums"])
def test_blocked_kernels_do_not_depend_on_the_block(case, monkeypatch):
    # at a block of 7 the pair counts, norm bins and merge gaps are split into
    # many blocks and most rod blocks are one row; every output stays bit for bit
    from cavityrad import binned, geometry, modes, slab_rod

    def outputs(block):
        for module in (binned, modes, slab_rod):
            monkeypatch.setattr(module, "BLOCK", block)
        geometry._kept.clear()  # so the pair counts are rebuilt under this block
        return blocked_kernel_outputs(case)

    default = outputs(geometry.BLOCK)
    small = outputs(7)
    assert len(small) == len(default)
    for got, want in zip(small, default):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_spectrum_peak_memory_is_about_two_count_arrays(bc):
    import tracemalloc

    m_max = 1_000_003
    unit = (2.0 if bc is BoundaryCondition.PERIODIC else 1.0) * math.pi * C_LIGHT
    tracemalloc.start()
    try:
        cube_binned_density(1.0, bc, 300.0, 100 * unit, unit * math.sqrt(m_max + 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * (m_max + 1)  # r3 itself plus FFT and binning scratch


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_ffts_are_about_a_quarter_of_m_max_long(bc, monkeypatch):
    from cavityrad import binned

    m_max = 20_011
    unit = (2.0 if bc is BoundaryCondition.PERIODIC else 1.0) * math.pi * C_LIGHT
    lengths = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda a, n=None: lengths.append(n) or rfft(a, n))
    cube_binned_density(1.0, bc, 300.0, unit, unit * math.sqrt(m_max + 0.5))
    # the longest class computed: m = 3 (mod 8) for odd labels, else m = 1
    first = 3 if bc is BoundaryCondition.ANTIPERIODIC else 1
    expected = binned._fast_len(2 * ((m_max - first) // 8 + 1) - 1)
    assert m_max / 4 <= expected < m_max / 3
    if bc is BoundaryCondition.ANTIPERIODIC:
        assert lengths == [expected, expected]
    else:
        # the halved labels are the labels themselves, so r3[4t] is copied
        # from r3[t] and no shorter FFT runs; classes 2 and 6, and 1 and 5,
        # share one transform each: odd pairs, even squares, odd squares, even pairs
        assert lengths == [expected] * 4


def test_convolution_exactness_failure_raises_and_exits_4(monkeypatch, capsys):
    from cavityrad import ConvolutionExactnessError, cli

    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.5)
    with pytest.raises(ConvolutionExactnessError, match="integer exactness"):
        cube_binned_density(1e-5, BoundaryCondition.PERIODIC, 300.0, 1e13, 1e15)

    code = cli.main(["spectrum", "--geometry", "box", "--bc", "periodic",
                     "--lengths", "1e-5,1e-5,1e-5", "--temperature", "300",
                     "--omega-max", "1e15"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_over_norm_cap_refused_before_allocation(bc):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="integer norms"):
            cube_binned_density(1.0, bc, 300.0, 1e12, 1e16)
        with pytest.raises(ResourceLimitError, match="integer norms"):
            cube_binned_density(1.0, bc, 300.0, 1e297, 1e300)  # m_max beyond any float
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_cube_too_large_for_a_float_volume_refused():
    # the default volume side**3 overflows, and the side implies infinitely
    # many integer norms below any useful cutoff
    with pytest.raises(ResourceLimitError, match="integer norms"):
        cube_binned_density(1e103, BoundaryCondition.PERIODIC, 300.0, 1e13, 1e15)


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_norm_cap_is_per_boundary_condition(bc, monkeypatch):
    from cavityrad import binned

    # a 1 cm cube to 3.1e14 (periodic) or 1.55e14 rad/s needs ~2.7e6 norms on
    # its own unit; the Dirichlet unit would need 1.1e7 for the periodic one
    omega_max = 3.1e14 if bc is BoundaryCondition.PERIODIC else 1.55e14
    seen = []
    monkeypatch.setattr(binned, "_exact_counts_by_convolution",
                        lambda r1, m: seen.append(m) or np.zeros(m + 1, dtype=np.int64))
    cube_binned_density(1e-2, bc, 300.0, 1e13, omega_max)
    assert 2.6e6 < seen[0] < 2.8e6 < binned.MAX_CUBE_NORMS
    cap = binned.MAX_CUBE_NORMS
    assert binned._norm_bound(1.0, (cap - 0.5) ** -0.5) == cap - 1
    with pytest.raises(ResourceLimitError, match="integer norms"):
        binned._norm_bound(1.0, (cap + 0.5) ** -0.5)


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_counts_are_kept_for_another_temperature(bc, monkeypatch):
    from cavityrad import binned, geometry

    side, dw, omega_max, temps = 1e-3, 1e12, 5e14, (300.0, 1000.0)
    exact = binned._exact_counts_by_convolution
    seen = []  # (m_max, r3) of every convolution
    monkeypatch.setattr(binned, "_exact_counts_by_convolution",
                        lambda j, m: seen.append((m, exact(j, m))) or seen[-1][1])
    kept = [cube_binned_density(side, bc, T, dw, omega_max).u for T in temps]
    assert len(seen) == 1  # the second temperature reads the kept counts
    cube_binned_density(2.0 * side, bc, 300.0, dw, 0.5 * omega_max)  # the same norm bound
    assert len(seen) == 1  # the counts do not depend on the side
    for T, u in zip(temps, kept):
        geometry._kept.clear()
        assert u.tobytes() == cube_binned_density(side, bc, T, dw, omega_max).u.tobytes()
    m_max, r3 = seen[-1]
    key, bound, counts = geometry._kept["cube"]  # the table the last call filled
    assert key == (bc, m_max) and bound == m_max and len(seen) == 3
    assert not counts.flags.writeable and np.array_equal(counts, r3)
    assert counts.dtype.kind == "u" and counts.dtype == np.min_scalar_type(r3.max())
    assert r3.max() > np.iinfo(np.uint8).max  # so the dtype is not trivially uint8


def test_narrow_cube_counts_bin_like_int64_counts(monkeypatch):
    # the 1 cm periodic cube's counts reach 42,336, kept as uint16, where
    # 2 x count would wrap past 65,535 if it were doubled in uint16
    from cavityrad import binned, geometry

    args = (1e-2, BoundaryCondition.PERIODIC, 300.0, 1e12, 3.1e14)
    exact = binned._exact_counts_by_convolution
    seen = []
    monkeypatch.setattr(binned, "_exact_counts_by_convolution",
                        lambda j, m: seen.append(exact(j, m)) or seen[-1])
    u = cube_binned_density(*args).u
    [r3] = seen
    assert binned._cube_counts(args[1], r3.size - 1).dtype == np.uint16
    assert r3.max() > np.iinfo(np.uint16).max // 2
    monkeypatch.setattr(binned, "_cube_counts", lambda bc, m_max: r3)
    geometry._kept.clear()  # so the next call builds through the patched _cube_counts
    assert u.tobytes() == cube_binned_density(*args).u.tobytes()


def test_cube_build_at_a_new_key_holds_no_old_counts():
    # a cube at a new (bc, norm bound) drops the kept counts before it builds
    # its own, so its peak is the one it has with nothing kept
    import tracemalloc

    from conftest import forget_kept_state

    def peak_of_second(first):
        forget_kept_state()
        tracemalloc.start()
        try:
            if first:
                cube_binned_density(1e-2, BoundaryCondition.PERIODIC, 300.0, 1e12, 3.1e14)
            tracemalloc.reset_peak()
            cube_binned_density(1e-2, BoundaryCondition.DIRICHLET, 300.0, 1e12, 1.55e14)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak_of_second(False)
    assert alone > 2 * 10**7
    assert peak_of_second(True) <= alone + 0.5 * 2**20


def test_cube_bin_cap_checked_before_counts(monkeypatch):
    from cavityrad import binned

    monkeypatch.setattr(binned, "_exact_counts_by_convolution", None)
    with pytest.raises(ResourceLimitError, match="frequency bins"):
        cube_binned_density(1e-5, BoundaryCondition.PERIODIC, 300.0, 1e-3, 1e15)
    with pytest.raises(ValueError, match="delta_omega and volume"):
        cube_binned_density(1e-5, BoundaryCondition.PERIODIC, 300.0, 0.0, 1e15)


def test_bin_layout_refusal_names_both_values():
    from cavityrad.binned import _bin_layout

    with pytest.raises(ValueError, match=r"delta_omega and volume must be > 0, got "
                                         r"delta_omega=10000000000000\.0, volume=0\.0"):
        _bin_layout(1e15, 1e13, 0.0)


@pytest.mark.parametrize("dw, volume", [(1e-252, 5e-301), (1e10, 1e300)])
def test_bin_layout_refuses_an_underflowing_or_overflowing_divisor(dw, volume):
    from cavityrad.binned import _bin_layout

    message = ("volume * delta_omega must be a positive finite product, got "
               "delta_omega=%r, volume=%r" % (dw, volume))
    with pytest.raises(ValueError, match=re.escape(message)):
        _bin_layout(1e-250 if dw < 1 else 1e15, dw, volume)


def test_fast_len_matches_scipy():
    next_fast_len = pytest.importorskip("scipy.fft").next_fast_len
    from cavityrad.binned import _fast_len

    for n in [*range(1, 3000), 5_467_499, 10**7 + 1]:
        assert _fast_len(n) == next_fast_len(n, real=True), n


def test_weyl_equals_planck_for_degenerate_descriptors():
    desc = GeometryDescriptors(V=1.0, A=0.0, M=0.0)
    w = np.linspace(0.0, 1e15, 2001)
    lhs = weyl_density(w, 300.0, desc)
    rhs = planck_density(w, 300.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-15 * np.max(rhs)


def test_planck_and_weyl_zero_where_the_mean_energy_is_zero():
    # omega**2 overflows at 5e299 rad/s, where the mean energy is 0; every
    # other value is the formula's, bit for bit
    desc = descriptors_for(SphereGeometry(1e-5))
    w = np.array([0.0, 1e12, 3e14, 5e16, 1e154, 5e299, 1.7e308])
    energy = mean_oscillator_energy(w, 300.0)
    assert np.array_equal(energy == 0.0, w >= 5e16)
    hot = energy > 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        planck = w**2 / (math.pi**2 * C_LIGHT**3) * energy
        weyl = (w**2 / (math.pi**2 * C_LIGHT**3)
                - (desc.A / desc.V) * w / (4.0 * math.pi * C_LIGHT**2)
                + (desc.M / desc.V) / (3.0 * math.pi**2 * C_LIGHT)) * energy
    for got, formula in [(planck_density(w, 300.0), planck),
                         (weyl_density(w, 300.0, desc), weyl)]:
        assert np.array_equal(got[hot], formula[hot])
        assert np.array_equal(got[~hot], np.zeros(4)) and not np.signbit(got).any()
    assert planck_density(5e299, 300.0) == 0.0 == weyl_density(5e299, 300.0, desc)


@pytest.mark.parametrize("name", ["planck_density", "weyl_density"])
def test_planck_and_weyl_beyond_the_float_range_refused(name):
    # at 5e299 rad/s and 1e300 K the mean energy is ~k_B T > 0 and omega**2 overflows
    desc = descriptors_for(SphereGeometry(1e-5))
    density = {"planck_density": planck_density,
               "weyl_density": lambda w, T: weyl_density(w, T, desc)}[name]
    assert mean_oscillator_energy(5e299, 1e300) > 0.0
    for w in (5e299, np.array([1e14, 5e299])):
        with pytest.raises(ValueError, match="density exceeds the float range"):
            density(w, 1e300)
    assert math.isfinite(density(1e14, 1e300))


def test_weyl_negative_for_small_sphere():
    desc = descriptors_for(SphereGeometry(1e-5))
    w = np.linspace(1e12, 1e15, 4000)
    vals = weyl_density(w, 300.0, desc)
    assert vals.min() < 0.0


def test_weyl_closer_than_planck_for_dirichlet_cube_0p2mm():
    L, T, dw = 2e-4, 300.0, 1e13
    modes = enumerate_box_modes(BoxGeometry(L, L, L), BoundaryCondition.DIRICHLET, 1e15)
    spec = binned_density(modes, T, dw, L**3)
    desc = descriptors_for(BoxGeometry(L, L, L))
    centers = spec.omega_centers
    sel = (centers >= 0.5e14) & (centers <= 2.0e14)
    w_err = np.abs(weyl_density(centers[sel], T, desc) - spec.u[sel])
    p_err = np.abs(planck_density(centers[sel], T) - spec.u[sel])
    assert np.mean(w_err <= p_err) >= 0.8


def test_weyl_converges_to_planck_with_size():
    omega = 1e14
    for L in (1e-3, 3e-3, 1e-2):
        desc = descriptors_for(BoxGeometry(L, L, L))
        rel = abs(weyl_density(omega, 300.0, desc) / planck_density(omega, 300.0) - 1.0)
        bound = (desc.A / desc.V) * math.pi * C_LIGHT / (2.0 * omega)
        assert rel <= bound


def test_descriptors_examples():
    d = descriptors_for(SphereGeometry(2.0))  # unit radius
    assert (d.V, d.A, d.M) == pytest.approx(
        (4.0 * math.pi / 3.0, 4.0 * math.pi, 4.0 * math.pi), rel=1e-15
    )
    d = descriptors_for(BoxGeometry(1.0, 1.0, 1.0))
    assert d.M == pytest.approx(3.0 * math.pi, rel=1e-15)
    d = descriptors_for(BoxGeometry(1.0, 2.0, 3.0))
    assert (d.V, d.A, d.M) == pytest.approx((6.0, 22.0, 6.0 * math.pi), rel=1e-15)


def test_descriptors_permutation_invariant():
    base = descriptors_for(BoxGeometry(1.0, 2.0, 3.0))
    for lengths in ((2.0, 1.0, 3.0), (3.0, 2.0, 1.0)):
        d = descriptors_for(BoxGeometry(*lengths))
        assert (d.V, d.A, d.M) == (base.V, base.A, base.M)


BAD_DESCRIPTORS = {
    "V = 0": lambda: GeometryDescriptors(V=0.0, A=1.0, M=1.0),
    "V = -1": lambda: GeometryDescriptors(V=-1.0, A=0.0, M=0.0),
    "V = inf": lambda: GeometryDescriptors(V=math.inf, A=0.0, M=0.0),
    "V = nan": lambda: GeometryDescriptors(V=math.nan, A=0.0, M=0.0),
    "A = inf": lambda: GeometryDescriptors(V=1.0, A=math.inf, M=0.0),
    "M = nan": lambda: GeometryDescriptors(V=1.0, A=0.0, M=math.nan),
    "weyl_density with V = 0": lambda: weyl_density(1e14, 300.0,
                                                    GeometryDescriptors(0.0, 1.0, 1.0)),
    "box volume underflows": lambda: descriptors_for(BoxGeometry(1e-200, 1e-200, 1e-200)),
    "box volume overflows": lambda: descriptors_for(BoxGeometry(1e200, 1e200, 1e200)),
    "sphere volume overflows": lambda: descriptors_for(SphereGeometry(1e200)),
}


@pytest.mark.parametrize("name", sorted(BAD_DESCRIPTORS))
def test_descriptors_need_a_positive_finite_volume_and_finite_a_and_m(name):
    with pytest.raises(ValueError, match="positive finite volume|A and M must be finite"):
        BAD_DESCRIPTORS[name]()


def test_descriptors_with_a_and_m_zero_stay_valid():
    desc = GeometryDescriptors(V=1e-300, A=0.0, M=0.0)
    assert weyl_density(1e14, 300.0, desc) == planck_density(1e14, 300.0)


def test_sphere_volume_past_the_float_range_is_inf_and_refused_downstream():
    # radius**3 overflows, as the box's L1*L2*L3 does; both volumes read inf
    assert SphereGeometry(1e200).volume == math.inf == BoxGeometry(1e200, 1e200, 1e200).volume
    modes = ModeList(np.array([1e14]), np.array([2]), 1e15)
    with pytest.raises(ValueError, match="must be a positive finite product"):
        binned_density(modes, 300.0, 1e13, SphereGeometry(1e200).volume)
    for diameter in (1e200, 1e300):  # r**3 overflows; at 1e300 r**2 too
        with pytest.raises(ValueError, match="^V must be a positive finite volume$"):
            descriptors_for(SphereGeometry(diameter))


def test_binned_density_beyond_the_float_range_refused():
    # at 1e300 K one mode's energy, k_B*T per polarization, over a bin
    # divisor volume * delta_omega of ~1e-31 m^3 rad/s leaves the float range
    sphere = SphereGeometry(1e-20)  # one zero below 2e29 rad/s, at c*pi/R
    modes = enumerate_sphere_modes(sphere, 2e29)
    assert len(modes) == 1 and 0.0 < sphere.volume * 2e29 < 1e-30
    with pytest.raises(ValueError, match="density exceeds the float range"):
        binned_density(modes, 1e300, 2e29, sphere.volume)
    with pytest.raises(ValueError, match="density exceeds the float range"):
        cube_binned_density(1e-20, BoundaryCondition.PERIODIC, 1e300, 2e29, 2e29)
    assert binned_density(modes, 1e290, 2e29, sphere.volume).u[0] < math.inf
