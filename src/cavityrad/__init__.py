"""Blackbody radiation in finite cavities.

Spectral energy densities for films, rods, boxes and spheres under periodic,
antiperiodic and Dirichlet boundary conditions, with the Planck formula and
the three-term Weyl asymptotic expansion as references.
"""

import os
import sys

# cavityrad makes no BLAS call, but numpy's OpenBLAS starts a worker thread at
# load that busy-waits for ~0.1 s of CPU. Load numpy with one OpenBLAS thread,
# unless the caller set OPENBLAS_NUM_THREADS or imported numpy already, and
# leave the environment as it was (OpenBLAS reads the variable once, at load).
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .bessel import (BesselZeroTable, build_bessel_zero_table,
                     spherical_bessel_zeros, spherical_jl)
from .binned import BinnedSpectrum, binned_density, cube_binned_density
from .constants import C_LIGHT, HBAR, K_B
from .errors import (BesselZeroError, ConvolutionExactnessError, NumericalCheckError,
                     QuadratureError, ResourceLimitError, ThresholdSingularityError)
from .geometry import (BoundaryCondition, BoxGeometry, FilmGeometry,
                       GeometryDescriptors, RodGeometry, SphereGeometry,
                       descriptors_for)
from .modes import ModeList, enumerate_box_modes, enumerate_sphere_modes
from .oracle import OracleReport, naive_box_count, quadrature_total_energy
from .planck import (mean_oscillator_energy, planck_density,
                     planck_energy_fraction_below, planck_peak_frequency,
                     planck_total_energy_density, radiation_constant, weyl_density)
from .slab_rod import (film_density, film_mode_count, rod_density,
                       rod_threshold_frequencies, rod_transverse_modes,
                       rod_window_average)

__version__ = "0.1.0"

__all__ = [
    "HBAR", "C_LIGHT", "K_B",
    "BoundaryCondition", "FilmGeometry", "RodGeometry", "BoxGeometry",
    "SphereGeometry", "GeometryDescriptors", "descriptors_for",
    "mean_oscillator_energy", "planck_density", "weyl_density", "planck_total_energy_density",
    "planck_energy_fraction_below", "planck_peak_frequency", "radiation_constant",
    "film_mode_count", "film_density", "rod_transverse_modes", "rod_density",
    "rod_threshold_frequencies", "rod_window_average",
    "spherical_jl", "spherical_bessel_zeros", "build_bessel_zero_table",
    "BesselZeroTable",
    "ModeList", "enumerate_box_modes", "enumerate_sphere_modes",
    "BinnedSpectrum", "binned_density", "cube_binned_density",
    "OracleReport", "naive_box_count", "quadrature_total_energy",
    "ThresholdSingularityError", "ResourceLimitError", "QuadratureError",
    "BesselZeroError", "NumericalCheckError", "ConvolutionExactnessError",
]
