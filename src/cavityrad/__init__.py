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


def __getattr__(name):
    """A public name (PEP 562). The first one asked for binds every name of
    _MODULE_OF, in its order, so the modules always load in that one order."""
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    for public, module in _MODULE_OF.items():
        globals()[public] = getattr(importlib.import_module("." + module, __name__), public)
    return globals()[name]


def __dir__():
    """The module's names and every public name, bound or not yet."""
    return sorted(set(globals()) | set(__all__))


class _OneOpenBLASThread:
    """Import hook (PEP 451) for numpy, when it is first imported after cavityrad.

    Whoever imports numpy next, a cavityrad module or the caller, gets it
    loaded by numpy's own loader with OPENBLAS_NUM_THREADS=1 if that is
    unset, and the environment is left as it was. cavityrad makes no BLAS
    call, but OpenBLAS starts a worker per extra core at load that
    busy-waits for ~0.1 s of CPU each. OpenBLAS reads the variable once,
    at load.
    """

    def find_spec(self, name, path=None, target=None):
        if name != "numpy":
            return None
        sys.meta_path.remove(self)  # one shot; the finders after this one find numpy
        spec = next(filter(None, (f.find_spec(name, path, target) for f in sys.meta_path)), None)
        if spec and "OPENBLAS_NUM_THREADS" not in os.environ:
            self.loader, spec.loader = spec.loader, self  # numpy's loader runs in exec_module
        return spec

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        module.__loader__ = module.__spec__.loader = self.loader
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            self.loader.exec_module(module)
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]


if "numpy" not in sys.modules:
    sys.meta_path.insert(0, _OneOpenBLASThread())
