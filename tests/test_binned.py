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


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_cube_bins_do_not_depend_on_the_norm_block(bc, monkeypatch):
    from cavityrad import binned

    def spectrum(block):
        monkeypatch.setattr(binned, "NORM_BLOCK", block)
        return cube_binned_density(2e-4, bc, 300.0, 1e13, 1e15).u

    one_block = spectrum(10**9)
    assert np.array_equal(spectrum(7), one_block)  # bit-identical, not just close


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
