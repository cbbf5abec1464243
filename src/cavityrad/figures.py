"""Figure preset runner: regenerates the bundled data-set grids.

Presets live in cavityrad/presets/fig<N>.cfg as plain key=value sections so
the parameter grids are auditable data rather than code. Every curve becomes
one CSV named fig<N>_<panel>_<curve>.csv; panels flagged with
planck-reference additionally get a fig<N>_<panel>_planck.csv smooth
reference on the panel's frequency grid.
"""

from __future__ import annotations

import configparser
import os
from importlib import resources

from .cli import _build_config, _csv_lines, _run_keys, compute
from .io import spectrum_csv_lines, write_csv
from .planck import planck_density

__all__ = ["generate_figure"]

# section keys that place a curve in a figure; all others are run keys
_PRESET_KEYS = ("panel", "curve", "planck-reference")


def _load_preset(fig_id):
    cp = configparser.ConfigParser()
    text = resources.files("cavityrad").joinpath("presets/fig%d.cfg" % fig_id).read_text()
    cp.read_string(text)
    return cp


def generate_figure(fig_id, output_dir):
    """Run every preset curve of the figure; returns the paths written."""
    cp = _load_preset(fig_id)
    os.makedirs(output_dir, exist_ok=True)
    written = []
    panel_refs = {}  # panel -> (omega grid, temperature) for the planck reference
    for name in cp.sections():
        section = cp[name]
        panel = section["panel"]
        cfg = _build_config(_run_keys(
            (key, text) for key, text in section.items() if key not in _PRESET_KEYS))
        series, grid = compute(cfg)
        path = os.path.join(output_dir, "fig%d_%s_%s.csv" % (fig_id, panel, section["curve"]))
        write_csv(path, _csv_lines(cfg, series))
        written.append(path)
        if section.getboolean("planck-reference", fallback=False):
            panel_refs[panel] = (grid, cfg.temperature)
    for panel, (grid, temperature) in panel_refs.items():
        vals = [float(v) for v in planck_density(grid, temperature)]
        path = os.path.join(output_dir, "fig%d_%s_planck.csv" % (fig_id, panel))
        write_csv(path, spectrum_csv_lines(
            ["omega_rad_s", "u_J_s_m3"],
            [[float(w) for w in grid], vals],
        ))
        written.append(path)
    return written
