"""Figure preset runner: regenerates the bundled data-set grids.

Presets live in cavityrad/presets/fig<N>.cfg as plain key=value sections so
the parameter grids are auditable data rather than code. Every curve becomes
one CSV named fig<N>_<panel>_<curve>.csv; panels flagged with
planck-reference additionally get a fig<N>_<panel>_planck.csv smooth
reference on the panel's frequency grid.
"""

from __future__ import annotations

import argparse
import configparser
import os
from importlib import resources

import numpy as np

from .cli import _KEYSPEC, _binned_series, _build_config, _pointwise_series
from .io import spectrum_csv_lines, write_csv
from .planck import planck_density

__all__ = ["generate_figure"]


def _load_preset(fig_id):
    cp = configparser.ConfigParser()
    text = resources.files("cavityrad").joinpath("presets/fig%d.cfg" % fig_id).read_text()
    cp.read_string(text)
    return cp


def _section_namespace(section):
    ns = argparse.Namespace(
        geometry=None, bc=None, length=None, lengths=None, diameter=None,
        temperature=None, omega_min=0.0, omega_max=None, samples=1000,
        delta_omega=1e13, compare=None, format="csv", output="-",
    )
    for key, conv in _KEYSPEC.items():
        if key in section:
            setattr(ns, key.replace("-", "_"), conv(section[key]))
    return ns


def generate_figure(fig_id, output_dir):
    """Run every preset curve of the figure; returns the paths written."""
    cp = _load_preset(fig_id)
    os.makedirs(output_dir, exist_ok=True)
    written = []
    panel_refs = {}  # panel -> (omega grid, temperature) for the planck reference
    for name in cp.sections():
        section = cp[name]
        panel = section["panel"]
        curve = section["curve"]
        cfg = _build_config(_section_namespace(section))
        if cfg.geometry in ("film", "rod"):
            series = _pointwise_series(cfg)
            omega_header = "omega_rad_s"
            ref_grid = np.asarray(series[0][1])
        else:
            series = _binned_series(cfg)
            omega_header = "omega_left_rad_s"
            ref_grid = np.asarray(series[0][1]) + 0.5 * cfg.delta_omega
        header = [omega_header, "u_J_s_m3"]
        columns = [[float(w) for w in series[0][1]], series[0][2]]
        for sname, _omega, values in series[1:]:
            header.append("%s_J_s_m3" % sname)
            columns.append(values)
        path = os.path.join(output_dir, "fig%d_%s_%s.csv" % (fig_id, panel, curve))
        write_csv(path, spectrum_csv_lines(header, columns))
        written.append(path)
        if section.getboolean("planck-reference", fallback=False):
            panel_refs[panel] = (ref_grid, cfg.temperature)
    for panel, (grid, temperature) in panel_refs.items():
        vals = [float(v) for v in planck_density(grid, temperature)]
        path = os.path.join(output_dir, "fig%d_%s_planck.csv" % (fig_id, panel))
        write_csv(path, spectrum_csv_lines(
            ["omega_rad_s", "u_J_s_m3"],
            [[float(w) for w in grid], vals],
        ))
        written.append(path)
    return written
