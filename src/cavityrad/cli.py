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
from .io import modes_csv_lines, spectrum_csv_lines, write_csv, write_json
from .modes import enumerate_box_modes, enumerate_sphere_modes
from .planck import planck_density
from .slab_rod import _rod_density_grid, film_density

__all__ = ["main", "run_spectrum", "run_modes", "run_figures"]


#: cap on the film/rod grid size; more raises ResourceLimitError
MAX_SAMPLES = 10**7


class UsageError(Exception):
    pass


# long option name -> (dest, converter); shared by flags and config files
_KEYSPEC = {
    "geometry": str,
    "bc": str,
    "length": float,
    "lengths": str,
    "diameter": float,
    "temperature": float,
    "omega-min": float,
    "omega-max": float,
    "samples": int,
    "delta-omega": float,
    "compare": str,
    "format": str,
    "output": str,
}


@dataclass
class RunConfig:
    geometry: str
    bc: BoundaryCondition | None
    lengths: tuple
    temperature: float
    omega_min: float
    omega_max: float
    samples: int
    delta_omega: float
    compare: tuple
    fmt: str
    output: str
    warnings: list = field(default_factory=list)

    def geom(self):
        if self.geometry == "film":
            return FilmGeometry(*self.lengths)
        if self.geometry == "rod":
            return RodGeometry(*self.lengths)
        if self.geometry == "box":
            return BoxGeometry(*self.lengths)
        return SphereGeometry(*self.lengths)

    def echo(self):
        cfg = {
            "geometry": self.geometry,
            "bc": self.bc.value if self.bc else "dirichlet",
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


def _parse_lengths(text, expected):
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError("--lengths must be comma-separated numbers") from None
    if len(parts) != expected:
        raise UsageError("--lengths needs exactly %d values here" % expected)
    return parts


def _build_config(ns):
    geometry = ns.geometry
    if geometry not in ("film", "rod", "box", "sphere"):
        raise UsageError("--geometry must be film, rod, box or sphere")
    if geometry == "sphere":
        if ns.bc not in (None, "dirichlet"):
            raise UsageError("a sphere admits only the dirichlet boundary condition")
        bc = BoundaryCondition.DIRICHLET
    else:
        if ns.bc is None:
            raise UsageError("--bc is required for %s" % geometry)
        try:
            bc = BoundaryCondition(ns.bc)
        except ValueError:
            raise UsageError("--bc must be periodic, antiperiodic or dirichlet") from None
    if geometry == "film":
        if ns.length is None:
            raise UsageError("film needs --length")
        lengths = (ns.length,)
    elif geometry == "rod":
        if ns.lengths is None:
            raise UsageError("rod needs --lengths L1,L2")
        lengths = _parse_lengths(ns.lengths, 2)
    elif geometry == "box":
        if ns.lengths is None:
            raise UsageError("box needs --lengths L1,L2,L3")
        lengths = _parse_lengths(ns.lengths, 3)
    else:
        if ns.diameter is None:
            raise UsageError("sphere needs --diameter")
        lengths = (ns.diameter,)
    if any(not (v > 0 and math.isfinite(v)) for v in lengths):
        raise UsageError("all lengths must be positive and finite")
    if ns.temperature is None or not (ns.temperature > 0 and math.isfinite(ns.temperature)):
        raise UsageError("--temperature must be a positive number of kelvin")
    if ns.omega_max is None or not (ns.omega_max > 0 and math.isfinite(ns.omega_max)):
        raise UsageError("--omega-max must be > 0")
    omega_min = getattr(ns, "omega_min", 0.0) or 0.0
    if not (0.0 <= omega_min < ns.omega_max):
        raise UsageError("need 0 <= --omega-min < --omega-max")
    samples = getattr(ns, "samples", 1000)
    if samples < 2:
        raise UsageError("--samples must be >= 2")
    delta = getattr(ns, "delta_omega", 1e13)
    if not (delta > 0 and math.isfinite(delta)):
        raise UsageError("--delta-omega must be > 0")
    compare = tuple(p for p in (getattr(ns, "compare", None) or "").split(",") if p)
    for c in compare:
        if c not in ("planck", "weyl"):
            raise UsageError("--compare entries must be planck or weyl")
    if "weyl" in compare and geometry in ("film", "rod"):
        raise UsageError("weyl comparison needs a closed cavity (box or sphere)")
    fmt = getattr(ns, "format", "csv") or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError("--format must be csv or json")
    return RunConfig(
        geometry=geometry, bc=bc, lengths=lengths, temperature=ns.temperature,
        omega_min=omega_min, omega_max=ns.omega_max, samples=samples,
        delta_omega=delta, compare=compare, fmt=fmt,
        output=getattr(ns, "output", "-") or "-",
    )


def _pointwise_series(cfg):
    if cfg.samples > MAX_SAMPLES:
        raise ResourceLimitError(cfg.samples, MAX_SAMPLES, "grid samples")
    grid = np.linspace(cfg.omega_min, cfg.omega_max, cfg.samples)
    geom = cfg.geom()
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
    series = [("spectrum", grid, values)]
    if "planck" in cfg.compare:
        series.append(("planck", grid,
                       [float(v) for v in planck_density(grid, cfg.temperature)]))
    return series


def _binned_series(cfg):
    _bin_count(cfg.omega_max, cfg.delta_omega)  # refuses too many bins before any work
    geom = cfg.geom()
    if cfg.geometry == "sphere":
        modes = enumerate_sphere_modes(geom, cfg.omega_max)
        spec = binned_density(modes, cfg.temperature, cfg.delta_omega, geom.volume)
    elif geom.L1 == geom.L2 == geom.L3:
        # a cube's frequencies are sqrt(integer norms): no lattice scan needed
        spec = cube_binned_density(geom.L1, cfg.bc, cfg.temperature, cfg.delta_omega,
                                   cfg.omega_max, volume=geom.volume)
    else:
        modes = enumerate_box_modes(geom, cfg.bc, cfg.omega_max)
        spec = binned_density(modes, cfg.temperature, cfg.delta_omega, geom.volume)
    series = [("spectrum", spec.omega_left, [float(v) for v in spec.u])]
    centers = spec.omega_centers
    if "planck" in cfg.compare:
        series.append(("planck", centers,
                       [float(v) for v in planck_density(centers, cfg.temperature)]))
    if "weyl" in cfg.compare:
        desc = descriptors_for(geom)
        series.append(("weyl", centers,
                       [float(v) for v in weyl_density(centers, cfg.temperature, desc)]))
    return series


def _emit(cfg, command, series):
    binned = cfg.geometry in ("box", "sphere")
    if cfg.fmt == "csv":
        header = ["omega_left_rad_s" if binned else "omega_rad_s", "u_J_s_m3"]
        columns = [[float(w) for w in series[0][1]], series[0][2]]
        for name, _omega, values in series[1:]:
            # reference columns for binned runs are evaluated at bin centers
            header.append("%s_J_s_m3" % name)
            columns.append(values)
        lines = spectrum_csv_lines(header, columns)
        _write_lines(cfg.output, lines)
    else:
        payload = {
            "config": dict(command=command, **cfg.echo()),
            "series": [
                {"name": name, "omega": [float(w) for w in omega], "values": values}
                for name, omega, values in series
            ],
            "warnings": list(cfg.warnings),
        }
        if cfg.output == "-":
            import json
            sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        else:
            write_json(cfg.output, payload)
    for w in cfg.warnings:
        print("warning: %s" % w, file=sys.stderr)


def _write_lines(output, lines):
    if output == "-":
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        write_csv(output, lines)


def run_spectrum(ns):
    cfg = _build_config(ns)
    if cfg.geometry in ("film", "rod"):
        series = _pointwise_series(cfg)
    else:
        series = _binned_series(cfg)
    _emit(cfg, "spectrum", series)
    return 0


def run_modes(ns):
    cfg = _build_config(ns)
    if cfg.geometry not in ("box", "sphere"):
        raise UsageError("modes are enumerated for box and sphere geometries only")
    geom = cfg.geom()
    if cfg.geometry == "box":
        modes = enumerate_box_modes(geom, cfg.bc, cfg.omega_max)
    else:
        modes = enumerate_sphere_modes(geom, cfg.omega_max)
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
    p.add_argument("--geometry", required=False)
    p.add_argument("--bc", default=None)
    p.add_argument("--length", type=float, default=None, help="film plate separation, m")
    p.add_argument("--lengths", default=None, help="comma separated lengths, m")
    p.add_argument("--diameter", type=float, default=None, help="sphere diameter, m")
    p.add_argument("--temperature", type=float, default=None, help="temperature, K")
    p.add_argument("--omega-max", type=float, default=None, help="cutoff, rad/s")
    p.add_argument("--output", default="-", help="output path; '-' is stdout")
    if include_sampling:
        p.add_argument("--omega-min", type=float, default=0.0, help="grid start, rad/s")
        p.add_argument("--samples", type=int, default=1000, help="grid size for film/rod")
        p.add_argument("--delta-omega", type=float, default=1e13,
                       help="bin width for box/sphere, rad/s")
        p.add_argument("--compare", default=None, help="comma subset of planck,weyl")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--config", default=None,
                       help="key=value file with the same keys as the flags; flags win")


def _apply_config_file(ns, argv):
    if not getattr(ns, "config", None):
        return ns
    values = {}
    with open(ns.config, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError("config line without '=': %r" % raw.strip())
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _KEYSPEC:
                raise UsageError("unknown config key %r" % key)
            values[key] = _KEYSPEC[key](val.strip())
    for key, val in values.items():
        flag = "--" + key
        given = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
        if not given:
            setattr(ns, key.replace("-", "_"), val)
    return ns


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _thread_cap()
        ns = _apply_config_file(ns, argv)
        if ns.command == "spectrum" and ns.geometry is None:
            raise UsageError("--geometry is required")
        if ns.command == "modes" and ns.geometry is None:
            raise UsageError("--geometry is required")
        return ns.fn(ns)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except NumericalCheckError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
