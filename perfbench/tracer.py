"""Spans around the public functions of every cavityrad module.

`install` replaces each public function of a layer module at every module
attribute that binds it (the defining module, the package namespace and
every other cavityrad module that imported it), so calls are seen whichever
name the caller used. A call opens a span only when it crosses into another
layer; calls inside one layer run untouched, which keeps hot helpers such
as `io.format_value` free of tracing cost.

A span is [id, parent, job, layer, name, t0, t1, rss0_kb, rss1_kb, extra].
Times come from time.perf_counter, which on Linux reads CLOCK_MONOTONIC and
so lines up between the benchmark and its child processes. Spans are kept
in memory and written once, by `dump`, when the process ends.

`layer_metrics` turns the spans of one pass into the per-layer metrics. A
span's self time is its duration minus the time its child spans cover; the
self times of all layers plus the harness add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import re
import resource
import statistics
import sys
import time

# layer modules of cavityrad; geometry, constants and errors do no measurable
# work and oracle is a test-only validator, so none of them is wrapped
LAYERS = ("cli", "figures", "bessel", "modes", "binned", "slab_rod", "planck", "io")

# the import layer (interpreter start plus `import cavityrad`) and the
# benchmark's own work, which belongs to no layer of the program
IMPORT, HARNESS = "import", "harness"


def _rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder for one process."""

    def __init__(self, job):
        self.job = job
        self.spans = []
        self.stack = []

    def open(self, layer, name, t0=None):
        rec = [len(self.spans), self.stack[-1][0] if self.stack else None, self.job,
               layer, name, time.perf_counter() if t0 is None else t0, None, _rss_kb(),
               None, None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec):
        rec[6] = time.perf_counter()
        rec[8] = _rss_kb()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, layer, name, t0=None):
        """A span the benchmark itself opens around a block."""
        rec = self.open(layer, name, t0)
        try:
            yield rec
        finally:
            self.close(rec)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _wrap(tracer, fn, layer, probe_error):
    name = fn.__name__

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tracer.stack
        if stack and stack[-1][3] == layer:
            return fn(*args, **kwargs)
        points = None
        if name == "enumerate_box_modes":
            # lattice points the scan visits: the count the cap would refuse
            with tracer.span(HARNESS, "lattice probe"):
                kw = {k: v for k, v in kwargs.items() if k != "max_lattice_points"}
                try:
                    fn(*args[:3], max_lattice_points=0, **kw)
                except probe_error as exc:
                    points = exc.required
                except Exception:  # invalid input: the real call reports it
                    points = 0
        rec = tracer.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(rec)
            rec[9] = {"raised": type(exc).__name__}
            raise
        tracer.close(rec)
        rec[9] = _extra(name, args, kwargs, result, points)
        return result

    return traced


def _extra(name, args, kwargs, result, points):
    if name == "build_bessel_zero_table":
        return {"levels": len(result.zeros_by_l),
                "zeros": sum(int(z.size) for z in result.zeros_by_l)}
    if name == "enumerate_box_modes":
        return {"points": points, "modes": len(result)}
    if name in ("binned_density", "cube_binned_density"):
        return {"bins": result.n_bins}
    if name in ("write_csv", "write_json"):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return None


def install(tracer):
    """Wrap every public layer function at every cavityrad binding of it."""
    import cavityrad
    from cavityrad.errors import ResourceLimitError

    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module("cavityrad." + layer)
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if callable(fn) and getattr(fn, "__module__", None) == mod.__name__ \
                    and not isinstance(fn, type):
                wrapped[id(fn)] = _wrap(tracer, fn, layer, ResourceLimitError)
    namespaces = [cavityrad] + [m for n, m in sorted(sys.modules.items())
                                if n.startswith("cavityrad.")]
    for mod in namespaces:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped and callable(val):
                setattr(mod, attr, wrapped[id(val)])


# --- reading the spans -----------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$")


def split_importtime(stderr):
    """(import metrics in s, stderr without the -X importtime lines)."""
    cav = 0
    self_us = {"numpy": 0, "scipy": 0}
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        m = _IMPORTTIME.match(line)
        if not m:  # the header line
            continue
        own, cumulative, pkg = int(m.group(1)), int(m.group(2)), m.group(3)
        if pkg == "cavityrad" and not cav:
            cav = cumulative
        top = pkg.split(".", 1)[0]
        if top in self_us:
            self_us[top] += own
    return ({"import.cavityrad_s": cav / 1e6, "import.numpy_s": self_us["numpy"] / 1e6,
             "import.scipy_s": self_us["scipy"] / 1e6}, "".join(rest))


def process_totals(spans, wall):
    """Per-layer and per-function sums for the spans of one process.

    `wall` is the time the pass counts for the process; the part of it no
    span covers is harness time.
    """
    dur, child, rss_child = {}, {}, {}
    for s in spans:
        dur[s[0]] = s[6] - s[5]
        if s[1] is not None:
            child[s[1]] = child.get(s[1], 0.0) + dur[s[0]]
            rss_child[s[1]] = rss_child.get(s[1], 0) + (s[8] - s[7])
    t = {"self": {}, "named_self": {}, "time": {}, "calls": {}, "rss_kb": {}, "count": {}}
    roots = 0.0
    for s in spans:
        layer, name = s[3], s[4]
        self_s = dur[s[0]] - child.get(s[0], 0.0)
        t["self"][layer] = t["self"].get(layer, 0.0) + self_s
        t["named_self"][name] = t["named_self"].get(name, 0.0) + self_s
        t["time"][name] = t["time"].get(name, 0.0) + dur[s[0]]
        t["calls"][name] = t["calls"].get(name, 0) + 1
        t["calls"][layer] = t["calls"].get(layer, 0) + 1
        t["rss_kb"][layer] = t["rss_kb"].get(layer, 0) + (s[8] - s[7]) - rss_child.get(s[0], 0)
        if s[1] is None:
            roots += dur[s[0]]
        for key, val in (s[9] or {}).items():
            k = "%s.%s" % (name, key if key != "raised" else val)
            t["count"][k] = t["count"].get(k, 0) + (1 if key == "raised" else (val or 0))
    t["self"][HARNESS] = t["self"].get(HARNESS, 0.0) + wall - roots
    return t


def layer_metrics(processes, wall_s):
    """Per-layer metrics of one pass.

    `processes` holds (totals, import metrics) per process of the pass;
    `wall_s` is the traced wall time of the pass.
    """
    def total(kind, key):
        return sum(p[0][kind].get(key, 0) for p in processes)

    def selfs(layer):
        return total("self", layer)

    def rss_mb(layer):
        return max((p[0]["rss_kb"].get(layer, 0) for p in processes), default=0) / 1024.0

    imports = [p[1] for p in processes if p[1]]

    def imp(key):
        return statistics.median(i[key] for i in imports) if imports else 0.0

    rod_calls = total("calls", "rod_density")
    singular = total("count", "rod_density.ThresholdSingularityError")
    points = total("count", "enumerate_box_modes.points")
    modes_out = total("count", "enumerate_box_modes.modes")
    return {
        "import.cavityrad_s": imp("import.cavityrad_s"),
        "import.scipy_s": imp("import.scipy_s"),
        "import.numpy_s": imp("import.numpy_s"),
        "import.self_s": selfs(IMPORT),
        "cli.self_s": selfs("cli"),
        "cli.calls": total("calls", "cli"),
        "figures.self_s": selfs("figures"),
        "bessel.self_s": selfs("bessel"),
        "bessel.table_s": total("time", "build_bessel_zero_table"),
        "bessel.table_calls": total("calls", "build_bessel_zero_table"),
        "bessel.levels": total("count", "build_bessel_zero_table.levels"),
        "bessel.zeros": total("count", "build_bessel_zero_table.zeros"),
        "modes.self_s": selfs("modes"),
        "modes.box_s": total("time", "enumerate_box_modes"),
        "modes.box_calls": total("calls", "enumerate_box_modes"),
        "modes.box_lattice_points": points,
        "modes.box_modes_out": modes_out,
        "modes.box_yield": modes_out / points if points else 0.0,
        "modes.sphere_self_s": total("named_self", "enumerate_sphere_modes"),
        "modes.rss_raise_mb": rss_mb("modes"),
        "binned.self_s": selfs("binned"),
        "binned.bin_s": total("time", "binned_density"),
        "binned.cube_s": total("time", "cube_binned_density"),
        "binned.weyl_s": total("time", "weyl_density"),
        "binned.bins": total("count", "binned_density.bins")
        + total("count", "cube_binned_density.bins"),
        "slab_rod.self_s": selfs("slab_rod"),
        "slab_rod.film_s": total("time", "film_density") + total("time", "film_mode_count"),
        "slab_rod.rod_s": total("time", "rod_density"),
        "slab_rod.rod_calls": rod_calls,
        "slab_rod.rod_singular": singular,
        "slab_rod.rod_ok_ratio": (rod_calls - singular) / rod_calls if rod_calls else 0.0,
        "slab_rod.window_s": total("time", "rod_window_average"),
        "slab_rod.rss_raise_mb": rss_mb("slab_rod"),
        "planck.s": selfs("planck"),
        "planck.calls": total("calls", "planck"),
        "io.self_s": selfs("io"),
        "io.format_s": sum(total("time", f) for f in
                           ("spectrum_csv_lines", "modes_csv_lines", "format_value")),
        "io.write_s": total("time", "write_csv") + total("time", "write_json"),
        "io.bytes": total("count", "write_csv.bytes") + total("count", "write_json.bytes"),
        "trace.wall_s": wall_s,
        "trace.harness_s": selfs(HARNESS),
    }
