"""Blackbody radiation in finite cavities.

Spectral energy densities for films, rods, boxes and spheres under periodic,
antiperiodic and Dirichlet boundary conditions, with the Planck formula and
the three-term Weyl asymptotic expansion as references.
"""

import importlib
import os
import sys

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {name: module for module, names in {
    "constants": "HBAR C_LIGHT K_B",
    "geometry": "BoundaryCondition FilmGeometry RodGeometry BoxGeometry SphereGeometry "
                "GeometryDescriptors descriptors_for",
    "planck": "mean_oscillator_energy planck_density weyl_density planck_total_energy_density "
              "planck_energy_fraction_below planck_peak_frequency radiation_constant",
    "slab_rod": "film_mode_count film_density rod_transverse_modes rod_density "
                "rod_threshold_frequencies rod_window_average",
    "bessel": "spherical_jl spherical_bessel_zeros build_bessel_zero_table BesselZeroTable",
    "modes": "ModeList enumerate_box_modes enumerate_sphere_modes",
    "binned": "BinnedSpectrum binned_density cube_binned_density",
    "oracle": "OracleReport naive_box_count quadrature_total_energy",
    "errors": "ThresholdSingularityError ResourceLimitError QuadratureError BesselZeroError "
              "NumericalCheckError ConvolutionExactnessError",
}.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def _load_numpy():
    """numpy; if it is not loaded yet and OPENBLAS_NUM_THREADS is unset, it is
    loaded with one OpenBLAS thread and the environment is left as it was.

    cavityrad makes no BLAS call, but numpy's OpenBLAS starts a worker thread
    at load that busy-waits for ~0.1 s of CPU. OpenBLAS reads the variable
    once, at load."""
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy
    return numpy


def __getattr__(name):
    """A public name, imported from its module on first use (PEP 562), numpy first."""
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    _load_numpy()
    value = globals()[name] = getattr(importlib.import_module("." + _MODULE_OF[name],
                                                              __name__), name)
    return value


# While `python -m cavityrad` locates the package, sys.argv[0] is "-m": the
# CLI then loads numpy and the compute modules only once it accepts a request.
# Every other import resolves every name now.
if sys.argv[:1] != ["-m"]:
    for _name in __all__:
        __getattr__(_name)
    del _name
