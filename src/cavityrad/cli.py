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
warning on stderr and do not change the exit status.
"""

from __future__ import annotations

import argparse
import sys
import dataclasses
from types import SimpleNamespace

import numpy as np

from .binned import _bin_layout, binned_density, cube_binned_density
from .errors import NumericalCheckError, ResourceLimitError
from .geometry import (BoundaryCondition, BoxGeometry, FilmGeometry,
                       RodGeometry, SphereGeometry, descriptors_for)
from .io import modes_csv_lines, spectrum_csv_lines, write_csv
from .modes import enumerate_box_modes, enumerate_sphere_modes
from .planck import planck_density, weyl_density
from .slab_rod import THRESHOLD_GUARD, _rod_sums, _rod_values, film_density
from .validate import finite_real

__all__ = ["main", "run_spectrum", "run_modes", "run_figures"]


#: cap on the film/rod grid size; more raises ResourceLimitError
MAX_SAMPLES = 10**7


class UsageError(Exception):
    pass


def _floats(text):
    return tuple(float(p) for p in text.split(","))


# run key -> (converter, default, flag help); flags, --config lines and preset
# sections share it. The order is the --help order, and modes takes the first 8.
_KEYS = {
    "geometry": (str, None, None),
    "bc": (str, None, None),
    "length": (_floats, None, "film plate separation, m"),
    "lengths": (_floats, None, "comma separated lengths, m"),
    "diameter": (_floats, None, "sphere diameter, m"),
    "temperature": (float, None, "temperature, K"),
    "omega-max": (float, None, "cutoff, rad/s"),
    "output": (str, "-", "output path; '-' is stdout (default)"),
    "omega-min": (float, 0.0, "grid start, rad/s (default 0)"),
    "samples": (int, 1000, "grid size for film/rod (default 1000)"),
    "delta-omega": (float, 1e13, "bin width for box/sphere, rad/s (default 1e13)"),
    "compare": (str, "", "comma subset of planck,weyl"),
    "format": (str, "csv", "csv (default) or json"),
}

# the geometries sampled on a grid; box and sphere spectra are binned
_SAMPLED = ("film", "rod")

# geometry -> (class, run key of its lengths, number of lengths)
_GEOMETRIES = {
    "film": (FilmGeometry, "length", 1),
    "rod": (RodGeometry, "lengths", 2),
    "box": (BoxGeometry, "lengths", 3),
    "sphere": (SphereGeometry, "diameter", 1),
}


def _build_config(pairs):
    """The run record of (run key, text) pairs; a later pair wins, unset keys take defaults.

    Its attributes are the run keys with '-' as '_', converted and checked,
    plus geom, built from the lengths, and sampled."""
    v = {key: default for key, (_, default, _) in _KEYS.items()}
    for key, text in pairs:
        if key not in _KEYS:
            raise UsageError("unknown config key %r" % key)
        try:
            v[key] = _KEYS[key][0](text)
        except ValueError:
            raise UsageError("bad --%s value %r" % (key, text)) from None
    cfg = SimpleNamespace(**{key.replace("-", "_"): value for key, value in v.items()})
    if cfg.geometry is None:
        raise UsageError("--geometry is required")
    if cfg.geometry not in _GEOMETRIES:
        raise UsageError("--geometry must be film, rod, box or sphere")
    if cfg.geometry == "sphere":
        if cfg.bc not in (None, "dirichlet"):
            raise UsageError("a sphere admits only the dirichlet boundary condition")
        cfg.bc = BoundaryCondition.DIRICHLET
    else:
        if cfg.bc is None:
            raise UsageError("--bc is required for %s" % cfg.geometry)
        try:
            cfg.bc = BoundaryCondition(cfg.bc)
        except ValueError:
            raise UsageError("--bc must be periodic, antiperiodic or dirichlet") from None
    cls, key, count = _GEOMETRIES[cfg.geometry]
    lengths = v[key]
    if lengths is None:
        raise UsageError("%s needs --%s" % (cfg.geometry, key))
    if len(lengths) != count:
        raise UsageError("--%s needs %d comma-separated value(s) here" % (key, count))
    cfg.geom = cls(*lengths)
    cfg.temperature = finite_real(cfg.temperature,
                                  "--temperature must be a positive number of kelvin")
    cfg.omega_max = finite_real(cfg.omega_max, "--omega-max must be > 0")
    if not (0.0 <= cfg.omega_min < cfg.omega_max):
        raise UsageError("need 0 <= --omega-min < --omega-max")
    if cfg.samples < 2:
        raise UsageError("--samples must be >= 2")
    cfg.delta_omega = finite_real(cfg.delta_omega, "--delta-omega must be > 0")
    cfg.compare = tuple(p for p in cfg.compare.split(",") if p)
    for c in cfg.compare:
        if c not in ("planck", "weyl"):
            raise UsageError("--compare entries must be planck or weyl")
    cfg.sampled = cfg.geometry in _SAMPLED
    if "weyl" in cfg.compare and cfg.sampled:
        raise UsageError("weyl comparison needs a closed cavity (box or sphere)")
    if cfg.format not in ("csv", "json"):
        raise UsageError("--format must be csv or json")
    cfg.output = cfg.output or "-"
    return cfg


def _echo(cfg, command):
    """The config echo of a JSON run, in its fixed key order."""
    echo = {"command": command, "geometry": cfg.geometry, "bc": cfg.bc.value,
            "temperature_K": cfg.temperature}
    lengths = list(dataclasses.astuple(cfg.geom))  # the parsed floats
    if cfg.geometry == "sphere":
        echo["diameter_m"] = lengths[0]
    else:
        echo["lengths_m"] = lengths
    if cfg.sampled:
        echo.update(omega_min_rad_s=cfg.omega_min, omega_max_rad_s=cfg.omega_max,
                    samples=cfg.samples)
    else:
        echo.update(omega_max_rad_s=cfg.omega_max, delta_omega_rad_s=cfg.delta_omega)
    echo["compare"] = list(cfg.compare)
    return echo


def _mode_list(cfg):
    if cfg.geometry == "sphere":
        return enumerate_sphere_modes(cfg.geom, cfg.omega_max)
    return enumerate_box_modes(cfg.geom, cfg.bc, cfg.omega_max)


def compute(cfg):
    """The series of a spectrum run, the grid its comparison columns use, warnings.

    Each series is (name, omega, values): the spectrum first, sampled on the
    film or rod grid or binned for a box or sphere, then one column per
    --compare entry, evaluated on the grid that is returned: the samples, or
    the bin centers of a binned run. Each warning names a threshold-singular
    rod sample, whose value is None.
    """
    geom, warnings = cfg.geom, []
    if cfg.geometry != "film":  # the density divides by a rod area or a volume
        what = "rod area" if cfg.geometry == "rod" else cfg.geometry + " volume"
        measure = geom.L1 * geom.L2 if cfg.geometry == "rod" else geom.volume
        finite_real(measure, "the %s from --%s is 0 or too large for a float"
                    % (what, _GEOMETRIES[cfg.geometry][1]))
    if cfg.sampled:
        if cfg.samples > MAX_SAMPLES:
            raise ResourceLimitError(cfg.samples, MAX_SAMPLES, "grid samples")
        omega = grid = np.linspace(cfg.omega_min, cfg.omega_max, cfg.samples)
        if cfg.geometry == "film":
            values = [float(v) for v in film_density(grid, cfg.temperature, geom, cfg.bc)]
        else:
            totals, singular = _rod_sums(grid, geom, cfg.bc, THRESHOLD_GUARD)
            densities = _rod_values(grid, cfg.temperature, geom, totals)
            values = [None if i in singular else float(v) for i, v in enumerate(densities)]
            for i, exc in singular.items():
                warnings.append(
                    "singular sample skipped at omega=%r: transverse mode "
                    "(n1=%d, n2=%d)" % (float(grid[i]), exc.mode[0], exc.mode[1])
                )
    else:
        _bin_layout(cfg.omega_max, cfg.delta_omega, geom.volume)  # refuses before any work
        if cfg.geometry == "box" and geom.L1 == geom.L2 == geom.L3:
            # a cube's frequencies are sqrt(integer norms): no lattice scan needed
            spec = cube_binned_density(geom.L1, cfg.bc, cfg.temperature, cfg.delta_omega,
                                       cfg.omega_max)
        else:
            spec = binned_density(_mode_list(cfg), cfg.temperature, cfg.delta_omega,
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
    return series, grid, warnings


def _csv_lines(cfg, series):
    """CSV lines of a spectrum run: omega, the spectrum, then each comparison."""
    header = ["omega_rad_s" if cfg.sampled else "omega_left_rad_s", "u_J_s_m3"]
    # reference columns for binned runs are evaluated at bin centers
    header += ["%s_J_s_m3" % name for name, _, _ in series[1:]]
    columns = [[float(w) for w in series[0][1]]] + [values for _, _, values in series]
    return spectrum_csv_lines(header, columns)


def _emit(cfg, command, series, warnings):
    if cfg.format == "csv":
        _write_lines(cfg.output, _csv_lines(cfg, series))
    else:
        payload = {
            "config": _echo(cfg, command),
            "series": [
                {"name": name, "omega": [float(w) for w in omega], "values": values}
                for name, omega, values in series
            ],
            "warnings": warnings,
        }
        import json
        _write_lines(cfg.output, [json.dumps(payload, indent=2)])
    for w in warnings:
        print("warning: %s" % w, file=sys.stderr)


def _write_lines(output, lines):
    if output == "-":
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        write_csv(output, lines)


def _args_config(ns):
    """The run record of a spectrum or modes command line; flags win over --config lines."""
    pairs = []
    if getattr(ns, "config", None):
        with open(ns.config, "r", encoding="utf-8") as fh:
            pairs = _config_lines(fh.read())
    pairs += [(key, getattr(ns, key.replace("-", "_"), None)) for key in _KEYS]
    return _build_config((key, text) for key, text in pairs if text is not None)


def run_spectrum(ns):
    cfg = _args_config(ns)
    series, _, warnings = compute(cfg)
    _emit(cfg, "spectrum", series, warnings)
    return 0


def run_modes(ns):
    cfg = _args_config(ns)
    if cfg.sampled:
        raise UsageError("modes are enumerated for box and sphere geometries only")
    modes = _mode_list(cfg)
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


def _add_run_flags(p, keys):
    # every value stays text here; _build_config converts flags and --config lines alike
    for key in keys:
        p.add_argument("--" + key, help=_KEYS[key][2])


def _config_lines(text):
    """(key, text) pairs of key=value lines; '#' starts a comment."""
    pairs = []
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("config line without '=': %r" % raw.strip())
        key, _, val = line.partition("=")
        pairs.append((key.strip(), val.strip()))
    return pairs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavityrad",
        description="Blackbody spectra in finite cavities: film, rod, box, sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("spectrum", help="sample or bin a spectral energy density")
    _add_run_flags(ps, _KEYS)
    ps.add_argument("--config",
                    help="key=value file with the same keys as the flags; flags win")
    ps.set_defaults(fn=run_spectrum)
    pm = sub.add_parser("modes", help="dump the discrete mode list of a closed cavity")
    _add_run_flags(pm, list(_KEYS)[:8])
    pm.set_defaults(fn=run_modes)
    pf = sub.add_parser("figures", help="regenerate the preset figure data sets")
    pf.add_argument("figure", type=int)
    pf.add_argument("--output-dir", default=".")
    pf.set_defaults(fn=run_figures)
    return parser


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
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
