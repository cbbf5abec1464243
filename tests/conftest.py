"""Every test starts and ends with nothing kept between library calls."""

import importlib
import pkgutil

import pytest


def lru_caches():
    """Every functools.lru_cache found in the cavityrad modules."""
    import cavityrad

    return [obj for info in pkgutil.iter_modules(cavityrad.__path__) if info.name != "__main__"
            for obj in vars(importlib.import_module("cavityrad." + info.name)).values()
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")]


def forget_kept_state():
    """Drop every table geometry._kept_table keeps and clear every lru_cache."""
    from cavityrad import geometry

    geometry._kept.clear()
    for cache in lru_caches():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def no_kept_state():
    forget_kept_state()
    yield
    forget_kept_state()
