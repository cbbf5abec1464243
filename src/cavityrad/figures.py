"""Figure preset runner: regenerates the bundled data-set grids.

Presets live in cavityrad/presets/fig<N>.cfg, so the grids are data: a [DEFAULT]
section and one section per curve, whose keys win, each read as a --config file.
Every curve becomes one CSV named fig<N>_<panel>_<curve>.csv; panels with
planck-reference = yes also get a fig<N>_<panel>_planck.csv reference.
"""

from __future__ import annotations

import os
import re
from importlib import resources

from .cli import UsageError, _build_config, _config_lines, _emit, compute
from .io import spectrum_csv_lines, write_csv
from .planck import planck_density

__all__ = ["generate_figure"]

# section keys that place a curve in a figure; all others are run keys
_PRESET_KEYS = ("panel", "curve", "planck-reference")


def _load_preset(fig_id):
    """{curve section name: its keys laid over [DEFAULT]} of a figure preset."""
    text = resources.files("cavityrad").joinpath("presets/fig%d.cfg" % fig_id).read_text()
    preamble, *parts = re.split(r"^[ \t]*\[([^\]\n]*)\][ \t]*$", text, flags=re.M)
    if _config_lines(preamble):
        raise UsageError("fig%d preset has keys before its first [section]" % fig_id)
    sections = {name: dict(_config_lines(body)) for name, body in zip(parts[::2], parts[1::2])}
    default = sections.pop("DEFAULT", {})
    return {name: {**default, **keys} for name, keys in sections.items()}


def generate_figure(fig_id, output_dir):
    """Run every preset curve of the figure; returns the paths written."""
    preset = _load_preset(fig_id)
    os.makedirs(output_dir, exist_ok=True)
    written = []
    panel_refs = {}  # panel -> (omega grid, temperature) for the planck reference
    for section in preset.values():
        panel = section["panel"]
        path = os.path.join(output_dir, "fig%d_%s_%s.csv" % (fig_id, panel, section["curve"]))
        run_keys = [(key, text) for key, text in section.items() if key not in _PRESET_KEYS]
        cfg = _build_config(run_keys + [("output", path)])
        series, grid, warnings = compute(cfg)
        _emit(cfg, "figures", series, warnings)
        written.append(path)
        if section.get("planck-reference") == "yes":
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
