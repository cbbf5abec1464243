"""Seeded job lists for the three benchmark workloads.

Every workload draws its jobs from a fixed catalogue: a list of slots, each
holding a few variants of about the same cost. The seed picks one variant per
slot (and, where order cannot matter, shuffles the jobs), so every seed
yields a list of the same shape and cost while the program still sees
different inputs. Because the catalogue is finite, `run.py --record` can
store a reference digest for every variant of every slot.

Jobs are plain dicts that survive a JSON round trip:

* CLI jobs (``paper_figures``, ``cli_requests``): ``argv`` for
  ``python -m cavityrad`` with ``{out}`` and ``{cfg}`` placeholders for
  the output path and the config file, an optional ``config`` text, and
  ``expect``, the exit codes that count as success.
* Library jobs (``library_sweep``): a ``kind`` plus keyword parameters for
  one public-API pipeline, run in process by passrun.py.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("paper_figures", "cli_requests", "library_sweep")

BCS = ("periodic", "antiperiodic", "dirichlet")

C_LIGHT = 2.99792458e8  # m/s, as in cavityrad.constants

# exit codes a job may end with to count as correct
OK = [0]
USAGE = [2]
CAP = [3]
REFUSED = [2, 3]


def job_key(job):
    """Stable identity of a job's inputs; the reference is keyed by it."""
    fields = {k: v for k, v in job.items() if k not in ("expect", "label")}
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


# --- paper_figures ---------------------------------------------------------

def _paper_catalogue():
    return [[{"label": "figures %d" % n, "argv": ["figures", str(n), "--output-dir", "{out}"],
              "expect": OK}] for n in (1, 2, 3, 4)]


# --- cli_requests ----------------------------------------------------------

def _spectrum(geometry, *flags):
    return ["spectrum", "--geometry", geometry, "--temperature", "300", *flags]


def _cli_catalogue():
    slots = []

    def slot(variants):
        slots.append(variants)

    # films: pointwise, every output route
    for L, route in (("1e-5", "file"), ("2e-5", "json"), ("5e-5", "stdout"),
                     ("3e-5", "file"), ("1.5e-5", "stdout")):
        variants = []
        for bc in BCS:
            argv = _spectrum("film", "--bc", bc, "--length", L, "--omega-max", "1e15",
                             "--samples", "2000", "--compare", "planck")
            if route == "file":
                argv += ["--output", "{out}"]
            elif route == "json":
                argv += ["--format", "json"]
            variants.append({"argv": argv, "expect": OK})
        slot(variants)
    slot([{"argv": _spectrum("film", "--bc", bc, "--length", "4e-5", "--omega-min", "1e14",
                             "--omega-max", "8e14", "--samples", "1000"), "expect": OK}
          for bc in BCS])
    # rods: small cross-sections
    for lengths, route in (("1e-5,1e-5", "file"), ("2e-5,1e-5", "stdout"),
                           ("5e-5,5e-5", "file"), ("3e-5,2e-5", "json")):
        variants = []
        for bc in BCS:
            argv = _spectrum("rod", "--bc", bc, "--lengths", lengths, "--omega-max", "1e15",
                             "--samples", "1000", "--compare", "planck")
            if route == "file":
                argv += ["--output", "{out}"]
            elif route == "json":
                argv += ["--format", "json"]
            variants.append({"argv": argv, "expect": OK})
        slot(variants)
    # every tenth sample sits on a periodic threshold n*2*pi*c/L: those are
    # skipped with a warning on stderr
    slot([{"argv": _spectrum("rod", "--bc", "periodic", "--lengths", "%s,%s" % (L, L),
                             "--omega-max", repr(10 * 2 * math.pi * C_LIGHT / float(L)),
                             "--samples", "101"), "expect": OK} for L in ("2e-5", "3e-5", "4e-5")])
    # boxes: binned, with planck and weyl columns
    for lengths, dw, route in (("1e-5,1e-5,1e-5", "1e13", "file"),
                               ("5e-5,3e-5,2e-5", "1e13", "stdout"),
                               ("4e-5,4e-5,4e-5", "2e13", "json"),
                               ("2e-5,5e-5,3e-5", "5e12", "file"),
                               ("3e-5,3e-5,3e-5", "1e13", "stdout")):
        variants = []
        for bc in BCS:
            argv = _spectrum("box", "--bc", bc, "--lengths", lengths, "--omega-max", "1e15",
                             "--delta-omega", dw, "--compare", "planck,weyl")
            if route == "file":
                argv += ["--output", "{out}"]
            elif route == "json":
                argv += ["--format", "json"]
            variants.append({"argv": argv, "expect": OK})
        slot(variants)
    # spheres
    for diameters, route in ((("1e-5", "1.2e-5", "1.4e-5"), "file"),
                             (("2e-5", "2.1e-5", "2.2e-5"), "stdout"),
                             (("3e-5", "3.05e-5", "3.1e-5"), "json")):
        variants = []
        for d in diameters:
            argv = _spectrum("sphere", "--diameter", d, "--omega-max", "1e15",
                             "--delta-omega", "1e13", "--compare", "planck,weyl")
            if route == "file":
                argv += ["--output", "{out}"]
            elif route == "json":
                argv += ["--format", "json"]
            variants.append({"argv": argv, "expect": OK})
        slot(variants)
    # mode lists (the modes command validates --temperature like spectrum)
    def modes(*flags):
        return ["modes", *flags, "--temperature", "300", "--omega-max", "1e15"]

    slot([{"argv": modes("--geometry", "box", "--bc", bc, "--lengths", "5e-5,4e-5,3e-5",
                         "--output", "{out}"), "expect": OK} for bc in BCS])
    slot([{"argv": modes("--geometry", "box", "--bc", bc, "--lengths", "2e-5,2e-5,2e-5"),
           "expect": OK} for bc in BCS])
    slot([{"argv": modes("--geometry", "sphere", "--diameter", d, "--output", "{out}"),
           "expect": OK} for d in ("2e-5", "2.5e-5", "3e-5")])
    slot([{"argv": modes("--geometry", "sphere", "--diameter", d), "expect": OK}
          for d in ("1e-5", "1.5e-5", "2e-5")])
    # --config files, with and without flags that override them
    slot([{"argv": ["spectrum", "--config", "{cfg}", "--output", "{out}"], "expect": OK,
           "config": "geometry = film\nbc = %s\nlength = 2.5e-5\ntemperature = 500\n"
                     "omega-max = 1e15\nsamples = 1500\ncompare = planck\n" % bc} for bc in BCS])
    slot([{"argv": ["spectrum", "--config", "{cfg}", "--temperature", "400"], "expect": OK,
           "config": "# box preset\ngeometry = box\nbc = %s\nlengths = 3e-5,2e-5,4e-5\n"
                     "temperature = 300\nomega-max = 1e15\ndelta-omega = 1e13\n"
                     "compare = planck,weyl\n" % bc} for bc in BCS])
    slot([{"argv": ["spectrum", "--config", "{cfg}", "--format", "json"], "expect": OK,
           "config": "geometry = rod\nbc = %s\nlengths = 2e-5,2e-5\ntemperature = 300\n"
                     "omega-max = 1e15\nsamples = 800\n" % bc} for bc in BCS])
    # inputs that must be refused with a usage error (exit 2)
    slot([{"argv": _spectrum(g, "--bc", "periodic", "--length", "1e-5", "--omega-max", "1e15"),
           "expect": USAGE} for g in ("cone", "slab", "cylinder")])
    slot([{"argv": _spectrum("sphere", "--bc", bc, "--diameter", "1e-5", "--omega-max", "1e15"),
           "expect": USAGE} for bc in ("periodic", "antiperiodic", "neumann")])
    slot([{"argv": _spectrum("film", "--bc", "dirichlet", "--length", "1e-5",
                             "--omega-max", "1e15", "--samples", s), "expect": USAGE}
          for s in ("1", "0", "-5")])
    slot([{"argv": _spectrum("rod", "--bc", bc, "--lengths", "1e-5,1e-5", "--omega-max", "1e15",
                             "--compare", "weyl"), "expect": USAGE} for bc in BCS])
    slot([{"argv": modes("--geometry", "film", "--bc", bc, "--length", "1e-5"),
           "expect": USAGE} for bc in BCS])
    slot([{"argv": ["spectrum", "--config", "{cfg}"], "expect": USAGE,
           "config": "geometry = film\n%s = 1\n" % key} for key in ("colour", "size", "bins")])
    # inputs over the resource caps (exit 3)
    slot([{"argv": _spectrum("box", "--bc", bc, "--lengths", "1e-3,1e-3,1e-3",
                             "--omega-max", "1e17"), "expect": CAP} for bc in BCS])
    slot([{"argv": _spectrum("sphere", "--diameter", d, "--omega-max", "1e16"), "expect": CAP}
          for d in ("1e-2", "2e-2", "5e-2")])
    # unbounded bins and samples: the contract is exit 2 or 3, never a traceback.
    # Every size here is far beyond any address space, so the allocation fails
    # at once instead of touching memory.
    slot([{"argv": _spectrum("box", "--bc", "periodic", "--lengths", "1e-5,1e-5,1e-5",
                             "--omega-max", "1e15", "--delta-omega", dw), "expect": REFUSED}
          for dw in ("1e-3", "1e-2", "1e-1")])
    slot([{"argv": _spectrum("film", "--bc", bc, "--length", "1e-5", "--omega-max", "1e15",
                             "--samples", "1000000000000000"), "expect": REFUSED} for bc in BCS])
    return slots


# --- library_sweep ---------------------------------------------------------

# (T first visit, T second visit) per variant index
_TEMPS = ((300.0, 1000.0), (250.0, 600.0), (350.0, 1500.0))


def _library_catalogue():
    """Slots of (first visit, second visit) pairs of one geometry each.

    A second visit repeats the geometry, boundary condition and cutoff of the
    first at another temperature or bin width, so work such as the mode list
    or a rod table could be shared between the two.
    """
    slots = []

    def slot(make):
        slots.append([make(i) for i in range(3)])

    def pair(first, **second):
        return (first, dict(first, **second))

    slot(lambda i: pair({"kind": "box", "lengths": [2e-4, 1e-4, 1.5e-4], "bc": BCS[i],
                         "omega_max": 1e15, "T": _TEMPS[i][0], "dw": 1e13}, dw=2e13))
    slot(lambda i: pair({"kind": "box", "lengths": [1.2e-4, 1.6e-4, 0.8e-4], "bc": BCS[i],
                         "omega_max": 1e15, "T": _TEMPS[i][0], "dw": 1e13}, T=_TEMPS[i][1]))
    # the Bessel-zero table's cost jumps with small changes of the diameter, so
    # sphere variants differ only in temperature and bin width
    slot(lambda i: pair({"kind": "sphere", "diameter": 5e-5, "omega_max": 1e15,
                         "T": _TEMPS[i][0], "dw": (1e13, 2e13, 5e12)[i]}, T=_TEMPS[i][1]))
    slot(lambda i: pair({"kind": "sphere", "diameter": 1e-4, "omega_max": 1e15,
                         "T": _TEMPS[i][0], "dw": (1e13, 5e12, 2e13)[i]}, dw=4e13))
    slot(lambda i: pair({"kind": "rod", "lengths": [1e-3, 1e-3], "bc": BCS[i],
                         "omega": [1e13, 1e15, 100], "T": _TEMPS[i][0]}, T=_TEMPS[i][1]))
    slot(lambda i: pair({"kind": "rod", "lengths": [7.5e-4, 5e-4], "bc": BCS[i],
                         "omega": [1e13, 1e15, 100], "T": _TEMPS[i][0]}, T=_TEMPS[i][1]))
    slot(lambda i: pair({"kind": "window", "lengths": [1e-3, 5e-4], "bc": BCS[i],
                         "omega": (3e14, 5e14, 7e14)[i], "T": _TEMPS[i][0]}, T=_TEMPS[i][1]))
    slot(lambda i: pair({"kind": "cube", "side": 1e-2, "bc": BCS[i],
                         "omega_max": (3.1e14, 1.55e14, 1.55e14)[i], "T": _TEMPS[i][0],
                         "dw": 1e12}, T=_TEMPS[i][1]))
    slot(lambda i: pair({"kind": "film", "length": (1e-5, 3e-5, 1e-4)[i], "bc": BCS[i],
                         "omega": [0.0, 1e15, 2000], "T": _TEMPS[i][0]}, T=_TEMPS[i][1]))
    return slots


# --- generation ------------------------------------------------------------

def catalogue(workload):
    """All slots of a workload; each slot is a list of variants."""
    if workload == "paper_figures":
        return _paper_catalogue()
    if workload == "cli_requests":
        return _cli_catalogue()
    if workload == "library_sweep":
        return _library_catalogue()
    raise ValueError("unknown workload %r" % workload)


def generate(workload, seed):
    """The seeded job list of one pass."""
    rng = random.Random("%s:%d" % (workload, seed))
    picks = [rng.choice(variants) for variants in catalogue(workload)]
    if workload == "library_sweep":
        # every geometry once, then every geometry again
        return [first for first, _ in picks] + [second for _, second in picks]
    rng.shuffle(picks)  # each job is its own process, so order is free
    return picks


def all_variants(workload):
    """Every job the catalogue can produce, for recording the reference."""
    jobs = []
    for variants in catalogue(workload):
        for v in variants:
            jobs.extend(v if workload == "library_sweep" else [v])
    return jobs


def repeat_share(jobs):
    """Share of library jobs whose geometry an earlier job of the pass used."""
    seen, repeats = set(), 0
    for job in jobs:
        geom = json.dumps({k: v for k, v in job.items() if k not in ("T", "dw")},
                          sort_keys=True)
        repeats += geom in seen
        seen.add(geom)
    return repeats / len(jobs)
