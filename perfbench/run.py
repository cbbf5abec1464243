"""The cavityrad benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run it from the root of a cavityrad checkout; it uses the code under src/.
Workloads (see workloads.py and BENCHMARK.json):

  paper_figures  `python -m cavityrad figures 1..4`, each a fresh process
  cli_requests   a seeded list of 36 short `spectrum` and `modes` invocations
  library_sweep  a fresh interpreter calling the public API on 18 jobs

Each workload is a closed loop with one client. A run repeats whole passes
of the seeded job list, each pass in a fresh process (passrun.py), as long
as that brings the run closer to --seconds, and reports medians over the
passes. Every job's exit
status, stderr and output are checked against reference.json, which
`--record` writes from the current code.

The speed of the 2-vCPU machine the benchmark was written on changes by tens
of percent from one second to the next, more than a median over a run can
smooth. So a pass times a fixed calibration kernel before every job and once
at the end, and every reported time is scaled to the kernel's reference
speed (at_reference_speed). The raw times are in the report.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics from
spans recorded around the public functions of each module (tracer.py), plus
the tracing overhead. Everything a run writes goes under .perfbench_work/
and is removed at exit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
import workloads
from passrun import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

# setup_s samples taken before the first pass; one more follows every pass
SETUP_PROBES = 3

# the calibration kernel's usual time (passrun.calibrate) on the reference
# machine, a 2-vCPU VM; reported times are scaled to that speed
CAL_REF_S = 0.005

PASS_TIMEOUT_S = 150
RECORD_TIMEOUT_S = 1800

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "request_p50_s": "s", "request_tail_s": "s", "ok_rate": "ratio",
}

PROBE = ("import time, cavityrad; t = time.perf_counter(); import json, numpy, scipy; "
         "print(json.dumps({'t': t, 'file': cavityrad.__file__, "
         "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe():
    """One fresh interpreter running `import cavityrad`: (setup_s, details)."""
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                       text=True, timeout=60)
    if r.returncode != 0:
        raise BenchError("`import cavityrad` failed:\n" + r.stderr[-2000:])
    info = json.loads(r.stdout)
    if not os.path.abspath(info["file"]).startswith(SRC + os.sep):
        raise BenchError("imported cavityrad from %s, not from %s" % (info["file"], SRC))
    return info["t"] - t0, info


def setup_sample():
    """One probe's setup_s at the reference speed, from the kernels around it."""
    before = calibrate()
    t = probe()[0]
    return 2.0 * CAL_REF_S * t / (before + calibrate())


def run_pass(workload, jobs, work, trace=False, record=False, reference=None,
             timeout=PASS_TIMEOUT_S):
    """Run one pass in a fresh passrun.py process and return its result."""
    spec_path = os.path.join(work, "pass.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "jobs": jobs, "trace": trace, "record": record,
                   "reference": reference or {}, "work": work, "src": SRC}, fh)
    cmd = [sys.executable]
    if trace and workload == "library_sweep":
        cmd += ["-X", "importtime"]
    t_spawn = time.perf_counter()
    cmd += [os.path.join(HERE, "passrun.py"), spec_path, repr(t_spawn)]
    r = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0 or not r.stdout.strip():
        raise BenchError("pass of %s failed (exit %s):\n%s"
                         % (workload, r.returncode, r.stderr[-3000:]))
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if trace and workload == "library_sweep":
        res["processes"][0][1] = tracer.split_importtime(r.stderr)[0]
    return res


def at_reference_speed(res):
    """(wall, cpu, job latencies) of one pass, scaled to the reference speed.

    A job's times are multiplied by CAL_REF_S over the mean of the kernel
    times just before and just after it. The rest of the pass (interpreter
    start and import for library_sweep) precedes the first kernel and is
    scaled by that one.
    """
    cal, jobs = res["cal_s"], res["jobs"]
    k = [2.0 * CAL_REF_S / (a + b) for a, b in zip(cal, cal[1:])]
    latencies = [f * j["latency_s"] for f, j in zip(k, jobs)]
    k0 = CAL_REF_S / cal[0]
    wall = k0 * (res["wall_s"] - sum(j["latency_s"] for j in jobs)) + sum(latencies)
    cpu = (k0 * (res["cpu_s"] - sum(j["cpu_s"] for j in jobs))
           + sum(f * j["cpu_s"] for f, j in zip(k, jobs)))
    return wall, cpu, latencies


def tail(samples):
    """(value, percentile): the highest percentile with ten samples beyond it.

    When that percentile would not lie above the median (20 samples or fewer)
    the maximum is reported as the 100th percentile instead.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def provenance(info, load_1m, workload, seed, jobs):
    git_sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                     capture_output=True, text=True).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                    capture_output=True, text=True).stdout
            dirty = bool(status.strip())
        except OSError:
            pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git_sha, "git_dirty": dirty,
        "nproc": os.cpu_count(), "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(), "numpy": info["numpy"], "scipy": info["scipy"],
        "loadavg_1m_at_start": load_1m, "workload": workload, "seed": seed, "inputs": jobs,
    }


def measure(args, work):
    load_1m = os.getloadavg()[0]
    if not os.path.exists(REFERENCE):
        raise BenchError("missing %s; run run.py --record" % REFERENCE)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    jobs = workloads.generate(args.workload, args.seed)

    _, info = probe()  # warm-up: fills the bytecode and file caches; not a sample
    setup = [] if args.trace else [setup_sample() for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    t_start = time.perf_counter()
    rounds = []
    while True:
        t_round = time.perf_counter()
        plain.append(run_pass(args.workload, jobs, work, reference=reference))
        if args.trace:
            traced.append(run_pass(args.workload, jobs, work, trace=True, reference=reference))
        else:
            setup.append(setup_sample())
        rounds.append(time.perf_counter() - t_round)
        # whole passes only: stop where the run ends closest to --seconds
        if time.perf_counter() - t_start + statistics.median(rounds) / 2 >= args.seconds:
            break

    results = [job for res in plain + traced for job in res["jobs"]]
    attempted = len(results)
    failed = [j for j in results if j["failed"]]
    wrong = [j for j in failed if j["wrong_output"]]
    self_tests = [res["self_test"] for res in plain + traced]
    checker_ok = all(t is not None and not t for t in self_tests)
    correct = checker_ok and not wrong
    cal = [c for res in plain for c in res["cal_s"]]
    scaled = [at_reference_speed(res) for res in plain]

    # the tail is taken per pass, so its percentile does not depend on how many
    # passes fitted into --seconds
    latencies = [x for _, _, lat in scaled for x in lat]
    per_pass = len(plain[0]["jobs"])
    tails = [tail(lat) for _, _, lat in scaled]
    tail_pct = tails[0][1]
    notes = {}
    if args.trace:
        layers = [tracer.layer_metrics(res["processes"], res["wall_s"]) for res in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        # both walls at the reference speed, so drift between them is not overhead
        metrics["trace.overhead_s"] = (
            statistics.median(at_reference_speed(r)[0] for r in traced)
            - statistics.median(w for w, _, _ in scaled))
        units = {k: _layer_unit(k) for k in metrics}
        counts = {k: len(layers) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _, _ in scaled),
            "cpu_s": statistics.median(c for _, c, _ in scaled),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setup),
            "request_p50_s": statistics.median(latencies),
            "request_tail_s": statistics.median(t for t, _ in tails),
            "ok_rate": (attempted - len(failed)) / attempted,
        }
        units = END_TO_END_UNITS
        counts = {"wall_s": len(plain), "cpu_s": len(plain), "peak_rss_mb": len(plain),
                  "setup_s": len(setup), "request_p50_s": len(latencies),
                  "request_tail_s": len(plain), "ok_rate": attempted}
        notes = {"request_tail_s": "median over passes of p%.1f of n=%d job latencies"
                                   % (tail_pct, per_pass),
                 "request_p50_s": "p50 of n=%d job latencies" % len(latencies),
                 "ok_rate": "error_rate = %d/%d = %.4f" % (len(failed), attempted,
                                                           len(failed) / attempted)}

    print("perfbench %s seed=%d trace=%d: %d passes, %d jobs, %d failed, %d wrong output"
          % (args.workload, args.seed, args.trace, len(plain) + len(traced), attempted,
             len(failed), len(wrong)))
    for name in sorted(metrics):
        print("  %-28s %14.6g %-6s n=%-4d %s" % (name, metrics[name], units[name],
                                                counts[name], notes.get(name, "")))
    if not args.trace:
        print("  times at reference speed: kernel %g s; run's median kernel %g s (n=%d)"
              % (CAL_REF_S, statistics.median(cal), len(cal)))
    reasons = {}
    for j in failed:
        key = "%s: %s" % (j["label"], j["failed"])
        reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items()):
        print("  failed x%d  %s" % (n, key))
    print("  output self-test: %s" % ("corrupted output is counted as a failure"
                                      if checker_ok else "FAILED %s" % self_tests))
    report = {
        "provenance": provenance(info, load_1m, args.workload, args.seed, jobs),
        "repeat_share": (workloads.repeat_share(jobs)
                         if args.workload == "library_sweep" else None),
        "samples": {
            "cal_s": cal,
            "wall_s": [r["wall_s"] for r in plain], "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "setup_s_at_reference_speed": setup,
            "traced_wall_s": [r["wall_s"] for r in traced],
            "job_latency_s": [[j["latency_s"] for j in r["jobs"]] for r in plain],
        },
        "job_labels": [j["label"] for j in plain[0]["jobs"]],
        "request_tail_percentile": tail_pct,
        "failures": reasons,
    }
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_s") or name == "planck.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    return "count"


def record(work):
    """Write reference.json: the digest of every job the catalogues can make."""
    reference = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.all_variants(workload)
        res = run_pass(workload, jobs, work, record=True, timeout=RECORD_TIMEOUT_S)
        for j in res["jobs"]:
            if j["failed"]:
                print("recorded without output: %s: %s" % (j["label"], j["failed"]))
        reference[workload] = res["digests"]
        print("%s: %d jobs, %d digests" % (workload, len(jobs), len(res["digests"])))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, indent=0)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current code")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "cavityrad", "__init__.py")):
        print("perfbench: no src/cavityrad under %s" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return record(work) if args.record else measure(args, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
