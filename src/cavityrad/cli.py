"""cavityrad command line front end.

    cavityrad spectrum --geometry film --bc dirichlet --length 1e-5 \
        --temperature 300 --omega-max 1e15 --samples 2000 --compare planck
    cavityrad modes --geometry box --bc periodic --lengths 2e-4,2e-4,2e-4 \
        --omega-max 1e15 --output modes.csv
    cavityrad figures 3 --output-dir out/

Exit codes: 0 success, 2 usage error, 3 resource cap exceeded, 4 a numerical
self-check failed (a Bessel-zero table that does not interlace, or FFT cube
counts that are no longer exact integers). Threshold-
singular rod sample points are emitted with an empty value field plus a
warning on stderr and do not change the exit status. The environment
variable CAVITYRAD_THREADS (integer >= 1) caps internal parallelism; the
numerical kernels are sequential, so any legal value is honoured.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .binned import _bin_count, binned_density, cube_binned_density, weyl_density
from .errors import NumericalCheckError, ResourceLimitError
from .geometry import (BoundaryCondition, BoxGeometry, FilmGeometry,
                       RodGeometry, SphereGeometry, descriptors_for)
from .io import modes_csv_lines, spectrum_csv_lines, write_csv
from .modes import enumerate_box_modes, enumerate_sphere_modes
from .planck import planck_density
from .slab_rod import _rod_density_grid, film_density

__all__ = ["main", "run_spectrum", "run_modes", "run_figures"]


#: cap on the film/rod grid size; more raises ResourceLimitError
MAX_SAMPLES = 10**7


class UsageError(Exception):
    pass


def _floats(text):
    return tuple(float(p) for p in text.split(","))


# run keys -> converter; flags, --config lines and preset sections share them
_KEYSPEC = {
    "geometry": str,
    "bc": str,
    "length": _floats,
    "lengths": _floats,
    "diameter": _floats,
    "temperature": float,
    "omega-min": float,
    "omega-max": float,
    "samples": int,
    "delta-omega": float,
    "compare": str,
    "format": str,
    "output": str,
}

# geometry -> (class, run key of its lengths, number of lengths)
_GEOMETRIES = {
    "film": (FilmGeometry, "length", 1),
    "rod": (RodGeometry, "lengths", 2),
    "box": (BoxGeometry, "lengths", 3),
    "sphere": (SphereGeometry, "diameter", 1),
}

# values of the run keys that no flag, --config line or preset section sets
_DEFAULTS = {"omega-min": 0.0, "samples": 1000, "delta-omega": 1e13, "format": "csv",
             "output": "-"}


@dataclass
class RunConfig:
    geometry: str
    bc: BoundaryCondition
    lengths: tuple
    geom: object  # built from lengths, which it checks
    temperature: float
    omega_min: float
    omega_max: float
    samples: int
    delta_omega: float
    compare: tuple
    fmt: str
    output: str
    warnings: list = field(default_factory=list)

    def echo(self):
        cfg = {
            "geometry": self.geometry,
            "bc": self.bc.value,
            "temperature_K": self.temperature,
        }
        if self.geometry == "sphere":
            cfg["diameter_m"] = self.lengths[0]
        else:
            cfg["lengths_m"] = list(self.lengths)
        if self.geometry in ("film", "rod"):
            cfg["omega_min_rad_s"] = self.omega_min
            cfg["omega_max_rad_s"] = self.omega_max
            cfg["samples"] = self.samples
        else:
            cfg["omega_max_rad_s"] = self.omega_max
            cfg["delta_omega_rad_s"] = self.delta_omega
        cfg["compare"] = list(self.compare)
        return cfg


def _run_keys(pairs):
    """Checked and converted run keys from (key, text) pairs; a later pair wins."""
    values = {}
    for key, text in pairs:
        if key not in _KEYSPEC:
            raise UsageError("unknown config key %r" % key)
        try:
            values[key] = _KEYSPEC[key](text)
        except ValueError:
            raise UsageError("bad --%s value %r" % (key, text)) from None
    return values


def _build_config(values):
    """RunConfig of a mapping of run keys; unset keys take their defaults."""
    v = {**_DEFAULTS, **values}
    geometry = v.get("geometry")
    if geometry is None:
        raise UsageError("--geometry is required")
    if geometry not in _GEOMETRIES:
        raise UsageError("--geometry must be film, rod, box or sphere")
    if geometry == "sphere":
        if v.get("bc") not in (None, "dirichlet"):
            raise UsageError("a sphere admits only the dirichlet boundary condition")
        bc = BoundaryCondition.DIRICHLET
    else:
        if v.get("bc") is None:
            raise UsageError("--bc is required for %s" % geometry)
        try:
            bc = BoundaryCondition(v["bc"])
        except ValueError:
            raise UsageError("--bc must be periodic, antiperiodic or dirichlet") from None
    cls, key, count = _GEOMETRIES[geometry]
    lengths = v.get(key)
    if lengths is None:
        raise UsageError("%s needs --%s" % (geometry, key))
    if len(lengths) != count:
        raise UsageError("--%s needs %d comma-separated value(s) here" % (key, count))
    geom = cls(*lengths)
    temperature, omega_max = v.get("temperature"), v.get("omega-max")
    if temperature is None or not (temperature > 0 and math.isfinite(temperature)):
        raise UsageError("--temperature must be a positive number of kelvin")
    if omega_max is None or not (omega_max > 0 and math.isfinite(omega_max)):
        raise UsageError("--omega-max must be > 0")
    if not (0.0 <= v["omega-min"] < omega_max):
        raise UsageError("need 0 <= --omega-min < --omega-max")
    if v["samples"] < 2:
        raise UsageError("--samples must be >= 2")
    if not (v["delta-omega"] > 0 and math.isfinite(v["delta-omega"])):
        raise UsageError("--delta-omega must be > 0")
    compare = tuple(p for p in v.get("compare", "").split(",") if p)
    for c in compare:
        if c not in ("planck", "weyl"):
            raise UsageError("--compare entries must be planck or weyl")
    if "weyl" in compare and geometry in ("film", "rod"):
        raise UsageError("weyl comparison needs a closed cavity (box or sphere)")
    if v["format"] not in ("csv", "json"):
        raise UsageError("--format must be csv or json")
    return RunConfig(
        geometry=geometry, bc=bc, lengths=lengths, geom=geom, temperature=temperature,
        omega_min=v["omega-min"], omega_max=omega_max, samples=v["samples"],
        delta_omega=v["delta-omega"], compare=compare, fmt=v["format"],
        output=v["output"] or "-",
    )


def _mode_list(cfg, geom):
    if cfg.geometry == "sphere":
        return enumerate_sphere_modes(geom, cfg.omega_max)
    return enumerate_box_modes(geom, cfg.bc, cfg.omega_max)


def compute(cfg):
    """The series of a spectrum run and the grid its comparison columns use.

    Each series is (name, omega, values): the spectrum first, sampled on the
    film or rod grid or binned for a box or sphere, then one column per
    --compare entry, evaluated on the grid that is returned: the samples, or
    the bin centers of a binned run.
    """
    geom = cfg.geom
    if cfg.geometry in ("film", "rod"):
        if cfg.samples > MAX_SAMPLES:
            raise ResourceLimitError(cfg.samples, MAX_SAMPLES, "grid samples")
        omega = grid = np.linspace(cfg.omega_min, cfg.omega_max, cfg.samples)
        if cfg.geometry == "film":
            values = [float(v) for v in film_density(grid, cfg.temperature, geom, cfg.bc)]
        else:
            densities, singular = _rod_density_grid(grid, cfg.temperature, geom, cfg.bc)
            values = [None if i in singular else float(v) for i, v in enumerate(densities)]
            for i, exc in singular.items():
                cfg.warnings.append(
                    "singular sample skipped at omega=%r: transverse mode "
                    "(n1=%d, n2=%d)" % (float(grid[i]), exc.mode[0], exc.mode[1])
                )
    else:
        _bin_count(cfg.omega_max, cfg.delta_omega)  # refuses too many bins before any work
        if cfg.geometry == "box" and geom.L1 == geom.L2 == geom.L3:
            # a cube's frequencies are sqrt(integer norms): no lattice scan needed
            spec = cube_binned_density(geom.L1, cfg.bc, cfg.temperature, cfg.delta_omega,
                                       cfg.omega_max)
        else:
            spec = binned_density(_mode_list(cfg, geom), cfg.temperature, cfg.delta_omega,
                                  geom.volume)
        omega, values, grid = spec.omega_left, [float(v) for v in spec.u], spec.omega_centers
    series = [("spectrum", omega, values)]
    if "planck" in cfg.compare:
        series.append(("planck", grid,
                       [float(v) for v in planck_density(grid, cfg.temperature)]))
    if "weyl" in cfg.compare:
        desc = descriptors_for(geom)
        series.append(("weyl", grid,
                       [float(v) for v in weyl_density(grid, cfg.temperature, desc)]))
    return series, grid


def _csv_lines(cfg, series):
    """CSV lines of a spectrum run: omega, the spectrum, then each comparison."""
    header = ["omega_left_rad_s" if cfg.geometry in ("box", "sphere") else "omega_rad_s",
              "u_J_s_m3"]
    # reference columns for binned runs are evaluated at bin centers
    header += ["%s_J_s_m3" % name for name, _, _ in series[1:]]
    columns = [[float(w) for w in series[0][1]]] + [values for _, _, values in series]
    return spectrum_csv_lines(header, columns)


def _emit(cfg, command, series):
    if cfg.fmt == "csv":
        _write_lines(cfg.output, _csv_lines(cfg, series))
    else:
        payload = {
            "config": dict(command=command, **cfg.echo()),
            "series": [
                {"name": name, "omega": [float(w) for w in omega], "values": values}
                for name, omega, values in series
            ],
            "warnings": list(cfg.warnings),
        }
        import json
        _write_lines(cfg.output, [json.dumps(payload, indent=2)])
    for w in cfg.warnings:
        print("warning: %s" % w, file=sys.stderr)


def _write_lines(output, lines):
    if output == "-":
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        write_csv(output, lines)


def _args_config(ns):
    """RunConfig of a spectrum or modes command line; flags win over --config lines."""
    pairs = _config_lines(ns.config) if getattr(ns, "config", None) else []
    pairs += [(key, getattr(ns, key.replace("-", "_"), None)) for key in _KEYSPEC]
    return _build_config(_run_keys((key, text) for key, text in pairs if text is not None))


def run_spectrum(ns):
    cfg = _args_config(ns)
    _emit(cfg, "spectrum", compute(cfg)[0])
    return 0


def run_modes(ns):
    cfg = _args_config(ns)
    if cfg.geometry not in ("box", "sphere"):
        raise UsageError("modes are enumerated for box and sphere geometries only")
    modes = _mode_list(cfg, cfg.geom)
    _write_lines(cfg.output, modes_csv_lines(modes))
    print(
        "modes: %d distinct frequencies, N(<=omega_max)=%d"
        % (len(modes), modes.total_mode_count),
        file=sys.stderr,
    )
    return 0


def run_figures(ns):
    from .figures import generate_figure

    if ns.figure not in (1, 2, 3, 4):
        raise UsageError("figure id must be 1, 2, 3 or 4")
    written = generate_figure(ns.figure, ns.output_dir)
    for path in written:
        print(path, file=sys.stderr)
    return 0


def _add_run_flags(p, include_sampling=True):
    # every value stays text here; _run_keys converts flags and --config lines alike
    p.add_argument("--geometry")
    p.add_argument("--bc")
    p.add_argument("--length", help="film plate separation, m")
    p.add_argument("--lengths", help="comma separated lengths, m")
    p.add_argument("--diameter", help="sphere diameter, m")
    p.add_argument("--temperature", help="temperature, K")
    p.add_argument("--omega-max", help="cutoff, rad/s")
    p.add_argument("--output", help="output path; '-' is stdout (default)")
    if include_sampling:
        p.add_argument("--omega-min", help="grid start, rad/s (default 0)")
        p.add_argument("--samples", help="grid size for film/rod (default 1000)")
        p.add_argument("--delta-omega", help="bin width for box/sphere, rad/s (default 1e13)")
        p.add_argument("--compare", help="comma subset of planck,weyl")
        p.add_argument("--format", help="csv (default) or json")
        p.add_argument("--config",
                       help="key=value file with the same keys as the flags; flags win")


def _config_lines(path):
    """(key, text) pairs of a key=value file; '#' starts a comment."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError("config line without '=': %r" % raw.strip())
            key, _, val = line.partition("=")
            pairs.append((key.strip(), val.strip()))
    return pairs


def _thread_cap():
    raw = os.environ.get("CAVITYRAD_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError("CAVITYRAD_THREADS must be an integer") from None
    if cap < 1:
        raise UsageError("CAVITYRAD_THREADS must be >= 1")
    return cap


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavityrad",
        description="Blackbody spectra in finite cavities: film, rod, box, sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("spectrum", help="sample or bin a spectral energy density")
    _add_run_flags(ps)
    ps.set_defaults(fn=run_spectrum)
    pm = sub.add_parser("modes", help="dump the discrete mode list of a closed cavity")
    _add_run_flags(pm, include_sampling=False)
    pm.set_defaults(fn=run_modes)
    pf = sub.add_parser("figures", help="regenerate the preset figure data sets")
    pf.add_argument("figure", type=int)
    pf.add_argument("--output-dir", default=".")
    pf.set_defaults(fn=run_figures)
    return parser


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        _thread_cap()
        return ns.fn(ns)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except NumericalCheckError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
