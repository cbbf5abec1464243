"""Planck-side oracles: trivial limits, extended-precision spot values,
closed-form totals, and the scaling/monotonicity invariants."""

import importlib
import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityrad import (
    C_LIGHT,
    HBAR,
    K_B,
    SphereGeometry,
    descriptors_for,
    mean_oscillator_energy,
    planck_density,
    planck_energy_fraction_below,
    planck_peak_frequency,
    planck_total_energy_density,
    quadrature_total_energy,
    radiation_constant,
    weyl_density,
)

# frozen from the extended-precision oracle below (60-digit Decimal)
MEAN_OSC_1E14_300K = 8.96976106933469277e-22
# frozen from the golden-section oracle below
PEAK_300K = 1.10815139895237016e14
# frozen from 40-digit quadrature of x^3/(e^x-1) up to x = hbar*omega/(k_B T)
FRACTION_3UM_300K = 0.999912972891688456


def decimal_mean_oscillator_energy(omega, T, digits=60):
    """Independent extended-precision evaluation of hbar*w/(e^{hw/kT}-1)."""
    getcontext().prec = digits
    hbar = Decimal("1.054571817e-34")
    kb = Decimal("1.380649e-23")
    x = hbar * Decimal(repr(omega)) / (kb * Decimal(repr(T)))
    return float(hbar * Decimal(repr(omega)) / (x.exp() - 1))


def golden_section_peak(T):
    """Independent maximizer of planck_density over omega."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e12, 1e15
    for _ in range(200):
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        if planck_density(c, T) < planck_density(d, T):
            a = c
        else:
            b = d
    return 0.5 * (a + b)


def test_mean_oscillator_energy_trivial_limits():
    assert mean_oscillator_energy(0.0, 300.0) == pytest.approx(K_B * 300.0, rel=0, abs=0)
    assert mean_oscillator_energy(0.0, 300.0) == pytest.approx(4.141947e-21, rel=1e-6)
    # x = 1 substitution: hbar*omega = k_B T
    for T in (1.0, 300.0, 5000.0):
        omega = K_B * T / HBAR
        assert mean_oscillator_energy(omega, T) == pytest.approx(
            K_B * T / (math.e - 1.0), rel=1e-12
        )


def test_mean_oscillator_energy_extended_precision_value():
    oracle = decimal_mean_oscillator_energy(1e14, 300.0)
    assert oracle == pytest.approx(MEAN_OSC_1E14_300K, rel=1e-15)
    assert mean_oscillator_energy(1e14, 300.0) == pytest.approx(MEAN_OSC_1E14_300K, rel=1e-13)


def test_mean_oscillator_energy_no_overflow_deep_wien():
    # far Wien tail: naive 1/(e^x - 1) would overflow at x ~ 1e4
    assert mean_oscillator_energy(1e18, 3.0) == 0.0
    assert mean_oscillator_energy(5e15, 300.0) > 0.0


def test_mean_oscillator_energy_at_extreme_temperatures():
    # a subnormal x = hbar*omega/(k_B T) gives the limit k_B*T, not inf; where
    # k_B*T underflows to 0 every energy is 0; neither warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mean_oscillator_energy(1.0, 1e300) == K_B * 1e300
        assert math.isfinite(planck_density(4.0, 1e300))
        assert np.array_equal(mean_oscillator_energy([0.0, 1.0, 1e15], 5e-324), [0.0] * 3)


def test_planck_density_zero_at_origin():
    assert planck_density(0.0, 300.0) == 0.0


def test_planck_peak_matches_golden_section_oracle():
    # an independent maximizer localizes a smooth peak to ~sqrt(eps) relative
    oracle = golden_section_peak(300.0)
    assert oracle == pytest.approx(PEAK_300K, rel=1e-6)
    assert planck_peak_frequency(300.0) == pytest.approx(PEAK_300K, rel=1e-12)
    assert planck_peak_frequency(300.0) == pytest.approx(1.108e14, rel=1e-3)


@pytest.mark.parametrize("T", [3.0, 300.0, 3000.0])
def test_total_energy_closed_form_vs_quadrature(T):
    total = quadrature_total_energy(lambda w: planck_density(w, T), 50.0 * K_B * T / HBAR)
    assert total == pytest.approx(radiation_constant * T**4, rel=1e-9)
    assert total == pytest.approx(planck_total_energy_density(T), rel=1e-9)


def test_total_energy_at_300K_value():
    assert planck_total_energy_density(300.0) == pytest.approx(6.13e-6, rel=2e-3)


def test_fraction_trivial_and_99_percent_claim():
    assert planck_energy_fraction_below(0.0, 300.0) == 0.0
    assert planck_energy_fraction_below(1e18, 300.0) == pytest.approx(1.0, abs=1e-12)
    omega_3um = 2.0 * math.pi * C_LIGHT / 3e-6
    frac = planck_energy_fraction_below(omega_3um, 300.0)
    assert frac > 0.99
    assert frac == pytest.approx(FRACTION_3UM_300K, abs=1e-10)


def test_fraction_monotone_in_omega_max():
    grid = np.linspace(0.0, 2e15, 60)
    vals = [planck_energy_fraction_below(float(w), 300.0) for w in grid]
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


@given(
    omega=st.floats(min_value=1e10, max_value=1e16),
    t1=st.floats(min_value=0.5, max_value=4000.0),
    t2=st.floats(min_value=0.5, max_value=4000.0),
)
@example(omega=1e10, t1=4000.0, t2=3999.9999999999995)  # both round to one density
@settings(max_examples=200, deadline=None)
def test_density_monotone_in_temperature(omega, t1, t2):
    if t1 == t2:
        return
    lo, hi = min(t1, t2), max(t1, t2)
    u_lo, u_hi = planck_density(omega, lo), planck_density(omega, hi)
    # temperatures an ulp or so apart may round to the same density, and the
    # deep Wien tail underflows to zero (or a subnormal) for both
    assert u_hi >= u_lo >= 0.0
    if hi / lo - 1.0 > 1e-12 and u_lo >= np.finfo(float).tiny:
        assert u_hi > u_lo


@pytest.mark.parametrize("s", [2.0, 10.0])
def test_scaling_law(s):
    rng = np.random.default_rng(7)
    for _ in range(50):
        omega = float(rng.uniform(1e11, 1e15))
        T = float(rng.uniform(1.0, 3000.0))
        lhs = planck_density(s * omega, s * T) / s**3
        rhs = planck_density(omega, T)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: planck_density(1e14, 0.0),
        lambda: planck_density(1e14, -5.0),
        lambda: planck_density(-1.0, 300.0),
        lambda: planck_density(float("nan"), 300.0),
        lambda: mean_oscillator_energy(float("inf"), 300.0),
        lambda: mean_oscillator_energy(1e14, float("nan")),
    ],
)
def test_domain_errors(call):
    with pytest.raises(ValueError):
        call()


def test_bernoulli_table_matches_exact_recurrence():
    # a_n = B_n/n! from sum_{k<=n} a_k/(n+1-k)! = 0, in exact rationals
    from fractions import Fraction

    from cavityrad.planck import _BERNOULLI_EVEN

    a = [Fraction(1)]
    for n in range(1, 2 * len(_BERNOULLI_EVEN) + 1):
        a.append(-sum(a[k] / math.factorial(n + 1 - k) for k in range(n)))
    for j, (p, q) in enumerate(_BERNOULLI_EVEN, 1):
        assert Fraction(p, q) == a[2 * j] * math.factorial(2 * j), j


def test_fraction_against_quad_oracle():
    quad = pytest.importorskip("scipy.integrate").quad
    from cavityrad.planck import _SERIES_X_MAX

    def x3_over_expm1(t):
        return t**3 * math.exp(-t) / -math.expm1(-t) if t > 0.0 else 0.0

    T = 300.0
    near_switch = [_SERIES_X_MAX * (1.0 + d) for d in (-1e-9, -1e-15, 0.0, 1e-15, 1e-9)]
    for x in [*np.geomspace(1e-6, 45.0, 60), *near_switch]:
        omega_max = float(x) * K_B * T / HBAR
        x = HBAR * omega_max / (K_B * T)  # the x the function itself sees
        oracle, _ = quad(x3_over_expm1, 0.0, x, epsabs=0.0, epsrel=1e-13, limit=200)
        frac = planck_energy_fraction_below(omega_max, T)
        assert frac == pytest.approx(oracle / (math.pi**4 / 15.0), rel=1e-13), x


def test_fraction_branches_agree_at_switch():
    from cavityrad.planck import _SERIES_X_MAX, _TOTAL_X3, _series_integral, _tail_integral

    series = _series_integral(_SERIES_X_MAX)
    tail = _TOTAL_X3 - _tail_integral(_SERIES_X_MAX)
    assert series == pytest.approx(tail, rel=1e-14)


def test_fraction_at_the_extremes():
    # 1.0 where x = hbar*omega/(k_B T) is infinite (k_B*T underflows to 0) or
    # e^{-x} underflows; 0.0 at omega_max = 0 for every T > 0
    for omega_max, T in [(1e300, 300.0), (1e14, 1e-310), (1e14, 5e-324), (1.7e308, 1e-300),
                         (1e18, 300.0)]:
        assert planck_energy_fraction_below(omega_max, T) == 1.0, (omega_max, T)
    for T in (5e-324, 1e-310, 300.0, 1e300):
        assert planck_energy_fraction_below(0.0, T) == 0.0, T


def test_total_energy_and_peak_past_t4_and_the_float_range():
    # T**4 overflows above ~1.16e77 K, a*T^4 only above ~2.2e80 K; the peak
    # frequency leaves the float range above ~4.8e288 K
    getcontext().prec = 40
    for T in (1.2e77, 1e78, 1e80):
        exact = Decimal(radiation_constant) * Decimal(T) ** 4
        assert planck_total_energy_density(T) == pytest.approx(float(exact), rel=1e-15)
    assert planck_total_energy_density(1e77) == radiation_constant * 1e77**4
    peak = Decimal(2.8214393721220787) * Decimal(K_B) * Decimal(1e288) / Decimal(HBAR)
    assert planck_peak_frequency(1e288) == pytest.approx(float(peak), rel=1e-15)
    with pytest.raises(ValueError, match="density exceeds the float range"):
        planck_total_energy_density(1e81)
    with pytest.raises(ValueError, match="peak frequency exceeds the float range"):
        planck_peak_frequency(1e300)


def former_planck_density(omega, T):
    """planck_density as it was, a formula of its own; it is now weyl_density
    with A = M = 0."""
    from cavityrad.planck import _validate
    from cavityrad.validate import finite_density

    omega, T = _validate(omega, T)
    energy = mean_oscillator_energy(omega, T)
    omega = np.where(energy > 0.0, omega, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = finite_density(omega**2 / (math.pi**2 * C_LIGHT**3) * energy)
    return float(out) if out.ndim == 0 else out


def outcome(density, omega, T):
    """(type, dtype, bytes) of a result, or (type, message) of a refusal."""
    try:
        out = density(omega, T)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(out), getattr(out, "dtype", None), np.asarray(out).tobytes()


def planck_identity_cases():
    omegas = np.concatenate(([0.0], np.geomspace(5e-324, 1.7e308, 2003)))
    for T in np.geomspace(5e-324, 1.7e308, 7).tolist():
        # the omegas the formula keeps in the float range, and then all of them
        with np.errstate(over="ignore", invalid="ignore"):
            kept = omegas[np.isfinite(omegas**2 * mean_oscillator_energy(omegas, T))]
        yield from [(kept, T), (omegas, T), (kept[kept < 3e38].astype(np.float32), T),
                    (np.arange(0, 10**6, 997), T), (kept[::40].tolist(), T),
                    (float(kept[kept.size // 2]), T), (10**14, T)]
    for omega, T in [(math.nan, 300.0), (-1.0, 300.0), (math.inf, 300.0), ([1.0, math.nan], 300.0),
                     (1e14, 0.0), (1e14, -1.0), (1e14, math.nan), (1e14, math.inf),
                     (1e14, "300")]:
        yield omega, T


def test_planck_density_is_the_former_formula_bit_for_bit():
    cases = list(planck_identity_cases())
    assert len(cases) == 58
    for omega, T in cases:
        assert outcome(planck_density, omega, T) == outcome(former_planck_density, omega, T), \
            (omega, T)


def test_weyl_density_of_float32_omegas_is_computed_in_float64():
    desc = descriptors_for(SphereGeometry(1e-5))
    w = np.linspace(0.0, 1e15, 2001, dtype=np.float32)
    got = weyl_density(w, 300.0, desc)
    assert got.dtype == np.float64
    assert np.array_equal(got, weyl_density(w.astype(np.float64), 300.0, desc))


# the modules whose public callables a per-layer profile wraps, by __all__
LAYER_MODULES = ["cli", "figures", "bessel", "modes", "binned", "slab_rod", "planck", "io"]


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_layer_all_names_exist_and_are_defined_in_their_module(name):
    # a re-exported callable would be timed under another module's name
    module = importlib.import_module("cavityrad." + name)
    for attr in module.__all__:
        value = getattr(module, attr)
        if callable(value):
            assert value.__module__ == module.__name__, attr
