"""One pass of a workload, in a fresh process.

    python perfbench/passrun.py SPEC_PATH T_SPAWN

run.py starts one of these per pass, so ru_maxrss of this process and of its
children covers that pass alone. For the command-line workloads each job is
its own `python -m cavityrad` process (or, traced, runner.py); for
library_sweep this process is the library's client: it imports cavityrad and
calls the public API in process. Every job's exit status, stderr and output
are checked against the reference. Prints one JSON object on stdout.
"""

import time

T_ENTER = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import job_key  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# a job that runs this long is stuck; the slowest one takes about 11 s
JOB_TIMEOUT_S = 100

# the input of the calibration kernel: a fixed list of floats in [0, 1)
CAL_DATA = [((i * 7919) % 10007) / 10007.0 for i in range(30000)]
CAL_REPS = 15


def calibrate():
    """Time a fixed pure-Python kernel (a loop and a sort); median of CAL_REPS.

    It runs between jobs, outside every timed interval. The machine's speed
    changes by tens of percent from one second to the next, and the kernel
    changes with it, so run.py scales each job's times by the kernels timed
    just before and after it.
    """
    samples = []
    for _ in range(CAL_REPS):
        t = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i
        sorted(CAL_DATA)
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


class Pass:
    """Job results, checks and spans of one pass."""

    def __init__(self, spec):
        self.spec = spec
        self.trace = spec["trace"]
        self.record = spec["record"]
        self.reference = spec["reference"]
        self.jobs = []
        self.digests = {}
        self.processes = []
        self.self_test = None
        self.cal = []

    def check(self, i, job, latency, cpu, why, out_digest, numbers):
        """Compare one job's output with the reference and record the result."""
        wrong = False
        if why is None and out_digest is not None:
            key = job_key(job)
            if self.record:
                self.digests[key] = out_digest
            elif key not in self.reference:
                raise SystemExit("perfbench: no reference for %s; run run.py --record" % key)
            else:
                why = checks.mismatch(out_digest, self.reference[key])
                wrong = why is not None
            if self.self_test is None and numbers:
                self.self_test = checks.self_test(numbers)
        self.jobs.append({"job": i, "label": job.get("label") or " ".join(job.get("argv", []))
                          or job.get("kind"), "latency_s": latency, "cpu_s": cpu, "failed": why,
                          "wrong_output": wrong})


def _cli_output(job, stdout, out, stderr):
    """(digest, one column of numbers) of a command-line job's output."""
    warnings = sum(line.startswith("warning:") for line in stderr.splitlines())
    if job["argv"][0] == "figures":
        files = {}
        numbers = None
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                text = fh.read()
            files[name] = checks.digest_csv(text)
            numbers = numbers or checks.parse_csv(text)[1][1]
        return {"files": files, "warnings": warnings}, numbers
    if "--output" in job["argv"]:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = stdout
    if text.lstrip().startswith("{"):
        numbers = json.loads(text)["series"][0]["values"]
    else:
        numbers = checks.parse_csv(text)[1][1]
    return {"output": checks.digest_text(text), "warnings": warnings}, numbers


def run_cli_pass(p):
    work = p.spec["work"]
    env = dict(os.environ)
    env["PYTHONPATH"] = p.spec["src"] + (os.pathsep + env["PYTHONPATH"]
                                         if env.get("PYTHONPATH") else "")
    wall = 0.0
    for i, job in enumerate(p.spec["jobs"]):
        out = os.path.join(work, "out%d" % i)
        cfg = os.path.join(work, "job%d.cfg" % i)
        if "config" in job:
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(job["config"])
        if job["argv"][0] == "figures":
            os.makedirs(out)
        argv = [a.replace("{out}", out).replace("{cfg}", cfg) for a in job["argv"]]
        spans_path = os.path.join(work, "spans%d.json" % i)
        p.cal.append(calibrate())
        c0 = _children_cpu()
        t0 = time.perf_counter()
        if p.trace:
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "runner.py"),
                   spans_path, repr(t0), str(i), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "cavityrad"] + argv
        try:
            r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                               timeout=JOB_TIMEOUT_S)
            code, stdout, stderr = r.returncode, r.stdout, r.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = None, "", ""
        t1 = time.perf_counter()
        wall += t1 - t0
        cpu = _children_cpu() - c0
        imports = None
        if p.trace:
            imports, stderr = tracer.split_importtime(stderr)
            spans = []
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    spans = json.load(fh)
            p.processes.append((tracer.process_totals(spans, t1 - t0), imports))
        why = "timed out" if code is None else checks.outcome_mismatch(job["expect"], code, stderr)
        out_digest = numbers = None
        if why is None and code == 0:
            try:
                out_digest, numbers = _cli_output(job, stdout, out, stderr)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                why = "unreadable output: %s" % exc
        p.check(i, job, t1 - t0, cpu, why, out_digest, numbers)
        _remove(out)
        _remove(cfg)
        _remove(spans_path)
    return wall, _children_cpu()


def _children_cpu():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _remove(path):
    if os.path.isdir(path):
        for name in os.listdir(path):
            os.remove(os.path.join(path, name))
        os.rmdir(path)
    elif os.path.exists(path):
        os.remove(path)


def _library_job(cr, job):
    """Run one public-API pipeline; returns named sequences of numbers."""
    import numpy as np

    kind, T = job["kind"], job["T"]
    bc = cr.BoundaryCondition(job["bc"]) if "bc" in job else None
    if kind in ("box", "sphere"):
        if kind == "box":
            geom = cr.BoxGeometry(*job["lengths"])
            modes = cr.enumerate_box_modes(geom, bc, job["omega_max"])
        else:
            geom = cr.SphereGeometry(job["diameter"])
            modes = cr.enumerate_sphere_modes(geom, job["omega_max"])
        spec = cr.binned_density(modes, T, job["dw"], geom.volume)
        weyl = cr.weyl_density(spec.omega_centers, T, cr.descriptors_for(geom))
        return {"omega": modes.omegas, "multiplicity": modes.multiplicities, "u": spec.u,
                "weyl": weyl}
    if kind == "cube":
        return {"u": cr.cube_binned_density(job["side"], bc, T, job["dw"], job["omega_max"]).u}
    if kind == "rod":
        geom = cr.RodGeometry(*job["lengths"])
        values = []
        for w in np.linspace(*job["omega"]):
            try:
                values.append(cr.rod_density(float(w), T, geom, bc))
            except cr.ThresholdSingularityError:
                values.append(None)
        return {"u": values}
    if kind == "window":
        return {"u": [cr.rod_window_average(job["omega"], T, cr.RodGeometry(*job["lengths"]), bc)]}
    if kind == "film":
        grid = np.linspace(*job["omega"])
        return {"u": cr.film_density(grid, T, cr.FilmGeometry(job["length"]), bc),
                "fraction_below_peak": [cr.planck_energy_fraction_below(
                    cr.planck_peak_frequency(T), T)]}
    raise ValueError("unknown library job kind %r" % kind)


def run_library_pass(p):
    """Run the API jobs in this process; returns the pass's wall and CPU time.

    Each is interpreter start plus `import cavityrad`, plus the jobs' own
    times, so the checks between jobs fall outside both.
    """
    t_spawn = p.spec["t_spawn"]
    rec = None
    if p.trace:
        rec = tracer.Tracer(-1)
        rec.spans.append([0, None, -1, tracer.IMPORT, "interpreter start", t_spawn, T_ENTER,
                          0, 0, None])
        with rec.span(tracer.IMPORT, "import cavityrad"):
            import cavityrad as cr
        wall, cpu = time.perf_counter() - t_spawn, time.process_time()
        tracer.install(rec)
    else:
        import cavityrad as cr
        wall, cpu = time.perf_counter() - t_spawn, time.process_time()
    for i, job in enumerate(p.spec["jobs"]):
        if rec is not None:
            rec.job = i
        p.cal.append(calibrate())
        t0, c0 = time.perf_counter(), time.process_time()
        why = None
        try:
            with rec.span(tracer.HARNESS, "job") if rec else contextlib.nullcontext():
                result = _library_job(cr, job)
        except Exception as exc:  # one failed job must not stop the pass
            why = "%s: %s" % (type(exc).__name__, exc)
        t1, c1 = time.perf_counter(), time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        out_digest = numbers = None
        if why is None:
            series = {k: (v.tolist() if hasattr(v, "tolist") else list(v))
                      for k, v in result.items()}
            del result
            out_digest = {k: checks.digest(v) for k, v in series.items()}
            numbers = series["u"]
        p.check(i, job, t1 - t0, c1 - c0, why, out_digest, numbers)
    if rec is not None:
        p.processes.append((tracer.process_totals(rec.spans, wall), None))
    return wall, cpu


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["t_spawn"] = float(sys.argv[2])
    p = Pass(spec)
    if spec["workload"] == "library_sweep":
        wall, cpu = run_library_pass(p)
    else:
        wall, cpu = run_cli_pass(p)
    p.cal.append(calibrate())
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "cal_s": p.cal,
        "jobs": p.jobs,
        "self_test": p.self_test,
        "digests": p.digests,
        "processes": p.processes,
    }))


if __name__ == "__main__":
    main()
