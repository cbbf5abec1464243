"""The lattice kernel: disc_sums, plain and weighted, against a brute-force
filter, and the bounding-box refusal of lattice_axes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityrad import BoundaryCondition, ResourceLimitError
from cavityrad.geometry import disc_sums, lattice_axes

FLOATS = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                   st.sampled_from([0.0, -0.0, 1e200, -1e200]))
FLOAT_CAPS = st.one_of(st.floats(min_value=0.0, max_value=2e6),
                       st.sampled_from([0.0, 1.0, math.inf]))


def brute_force_sums(axes, cap):
    """Row-major sums k_1^2 + (k_2^2 + (... + k_d^2)) <= cap, one point at a time."""
    kept = []
    for point in itertools.product(*axes):
        total = point[-1] * point[-1]
        for k in reversed(point[:-1]):
            total = k * k + total
        if total <= cap:
            kept.append(total)
    return kept


@given(axes=st.lists(st.lists(FLOATS, max_size=6), min_size=1, max_size=3), cap=FLOAT_CAPS)
@settings(max_examples=300, deadline=1000)
def test_disc_sums_equal_brute_force_on_float_axes(axes, cap):
    got = disc_sums([np.array(a, dtype=float) for a in axes], cap)
    expected = np.array(brute_force_sums(axes, cap), dtype=float)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@given(axes=st.lists(st.lists(st.integers(-40, 40), max_size=8), min_size=1, max_size=3),
       cap=st.integers(0, 4000))
@settings(max_examples=200, deadline=1000)
def test_disc_sums_equal_brute_force_on_integer_axes(axes, cap):
    got = disc_sums([np.array(a, dtype=np.int64) for a in axes], cap)
    expected = np.array(brute_force_sums(axes, cap), dtype=np.int64)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def brute_force_weighted_sums(axes, weights, cap):
    """brute_force_sums with the product of the point's per-axis weights."""
    kept = []
    for point, ws in zip(itertools.product(*axes), itertools.product(*weights)):
        total = point[-1] * point[-1]
        for k in reversed(point[:-1]):
            total = k * k + total
        if total <= cap:
            kept.append((total, math.prod(ws)))
    return [s for s, _ in kept], [w for _, w in kept]


WEIGHTED_AXES = st.lists(st.lists(st.tuples(FLOATS, st.integers(1, 8)), max_size=6),
                         min_size=1, max_size=3)


@given(axes=WEIGHTED_AXES, cap=FLOAT_CAPS)
@settings(max_examples=300, deadline=1000)
def test_weighted_disc_sums_equal_brute_force_on_float_axes(axes, cap):
    ks = [[k for k, _ in axis] for axis in axes]
    ws = [[w for _, w in axis] for axis in axes]
    got, got_w = disc_sums([np.array(k, dtype=float) for k in ks], cap,
                           [np.array(w, dtype=np.int64) for w in ws])
    expected, expected_w = brute_force_weighted_sums(ks, ws, cap)
    assert got.dtype == np.float64 and got_w.dtype == np.int64
    assert np.array_equal(got, np.array(expected, dtype=float))
    assert np.array_equal(got_w, np.array(expected_w, dtype=np.int64))
    # the sums do not depend on the weights
    assert np.array_equal(got, disc_sums([np.array(k, dtype=float) for k in ks], cap))


@given(axes=st.lists(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 8)), max_size=8),
                     min_size=1, max_size=3),
       cap=st.integers(0, 4000))
@settings(max_examples=200, deadline=1000)
def test_weighted_disc_sums_equal_brute_force_on_integer_axes(axes, cap):
    ks = [[k for k, _ in axis] for axis in axes]
    ws = [[w for _, w in axis] for axis in axes]
    got, got_w = disc_sums([np.array(k, dtype=np.int64) for k in ks], cap,
                           [np.array(w, dtype=np.int64) for w in ws])
    expected, expected_w = brute_force_weighted_sums(ks, ws, cap)
    assert np.array_equal(got, np.array(expected, dtype=np.int64))
    assert np.array_equal(got_w, np.array(expected_w, dtype=np.int64))


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_lattice_axes_refuses_before_allocation(bc):
    import tracemalloc

    # about 10^4 labels per axis of a unit box: 10^12 bounding-box points
    k_cap = 5000.0 * 2.0 * math.pi
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="lattice points") as err:
            lattice_axes((1.0, 1.0, 1.0), bc, k_cap, 10**8, "lattice points")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.required >= 1e12
    assert peak < 10**6
