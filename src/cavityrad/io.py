"""CSV and JSON emission with stable, shortest round-trip numbers.

All files use UTF-8 and "\n" line endings; a header row is mandatory in CSV.
Floats are written with repr (shortest round-trip decimal), so identical runs
produce byte-identical files on every platform. Missing values (threshold-
singular sample points) are an empty CSV field and a JSON null.
"""

from __future__ import annotations

__all__ = ["format_value", "write_csv", "modes_csv_lines", "spectrum_csv_lines"]


def format_value(x):
    """Shortest round-trip decimal for a float; empty string for None."""
    if x is None:
        return ""
    return repr(float(x))


def spectrum_csv_lines(header, columns):
    """CSV lines for parallel columns, one header name each; columns may
    contain None entries."""
    if len(header) != len(columns) or any(len(col) != len(columns[0]) for col in columns):
        raise ValueError("header and columns must have equal length")
    fields = [list(map(format_value, col)) for col in columns]
    return [",".join(header), *map(",".join, zip(*fields))]


def modes_csv_lines(modes):
    """ModeList dump: header omega_rad_s,multiplicity, ascending."""
    lines = ["omega_rad_s,multiplicity"]
    for w, m in zip(modes.omegas, modes.multiplicities):
        lines.append("%s,%d" % (format_value(w), int(m)))
    return lines


def write_csv(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
