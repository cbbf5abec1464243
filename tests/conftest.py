"""Every test starts and ends with nothing kept between library calls."""

import pytest


def forget_kept_state():
    """Drop the kept rod table, the rod-sum memo and the cube-count slot."""
    from cavityrad import binned, slab_rod

    slab_rod._kept = None
    slab_rod._rod_sum.cache_clear()
    binned._cube_counts.cache_clear()


@pytest.fixture(autouse=True)
def no_kept_state():
    forget_kept_state()
    yield
    forget_kept_state()
