"""Every printed number stays the same: the bytes the CLI writes, against digests.

tests/golden_outputs.json holds one sha256 per output: each CSV of `figures 1..4`;
for each `cli_requests` variant of the benchmark catalogue
(perfbench/workloads.py) its exit code, stdout, stderr (temp dir normalised)
and output file; and for each `library_sweep` variant the repr of its public-API
output, each array as a list, as perfbench/passrun.py computes it. The CLI
variants run in catalogue order and again in reverse, in one process, so no
table kept between calls may change an output; the library variants run once,
in catalogue order, in one process.

The digests hold for the numpy version and the CPU they were recorded on:
numpy's SIMD exp, expm1 and log may round differently elsewhere, so on any
other platform the tests skip and say why. A change that moves a printed
number on purpose records the file again, with

    PYTHONPATH=src python tests/test_golden_outputs.py

and lists each changed digest and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

import cavityrad
from cavityrad import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_outputs.json")
PERFBENCH = os.path.join(HERE, os.pardir, "perfbench")


def platform_record():
    """numpy's version, the machine, and the SIMD targets numpy dispatches to on this CPU."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    simd = umath and [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def perfbench_module(name):
    """perfbench/<name>.py, imported with perfbench/ on sys.path, as its own imports need."""
    sys.path.insert(0, os.path.abspath(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        del sys.path[0]


def variants(workload):
    """A workload's catalogue: (key, job) in catalogue order."""
    workloads = perfbench_module("workloads")
    return [(workloads.job_key(job), job) for job in workloads.all_variants(workload)]


def run(argv):
    """cli.main(argv) in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # an argparse refusal
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def figure_digests(tmp):
    """{CSV name: sha256} of figures 1 to 4 written under tmp."""
    digests = {}
    for fig in (1, 2, 3, 4):
        out = os.path.join(tmp, "fig%d" % fig)
        code, _, err = run(["figures", str(fig), "--output-dir", out])
        assert code == 0, err
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), encoding="utf-8", newline="") as fh:
                digests[name] = sha256(fh.read())
    return digests


def cli_digests(variants, tmp):
    """{key: sha256} of each (key, job) variant, run in the given order under tmp."""
    os.makedirs(tmp)
    digests = {}
    for key, job in variants:
        name = os.path.join(tmp, sha256(key)[:16])  # the same path in either order
        out, cfg = name + ".out", name + ".cfg"
        if "config" in job:
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(job["config"])
        code, stdout, stderr = run([a.replace("{out}", out).replace("{cfg}", cfg)
                                    for a in job["argv"]])
        written = None
        if os.path.exists(out):
            with open(out, encoding="utf-8", newline="") as fh:
                written = fh.read()
        record = [code, stdout, stderr.replace(tmp, "{tmp}"), written]
        digests[key] = sha256(json.dumps(record))
    return digests


def library_digests(variants):
    """{key: sha256} of each (key, job) library variant, run in the given order."""
    library_job = perfbench_module("passrun")._library_job
    digests = {}
    for key, job in variants:
        output = {name: (v.tolist() if hasattr(v, "tolist") else list(v))
                  for name, v in library_job(cavityrad, job).items()}
        digests[key] = sha256(repr(output))
    return digests


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(os.path.join(PERFBENCH, "passrun.py")):
        pytest.skip("perfbench/, which lists the CLI and library variants, is not here")
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    here = platform_record()
    if here != recorded["platform"]:
        pytest.skip("the digests were recorded with %r; this platform is %r, where numpy "
                    "may round exp, expm1 and log differently" % (recorded["platform"], here))
    return recorded


def changed(got, want):
    """The keys whose digests differ, or that only one side has."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def test_figure_csvs_match_their_digests(golden, tmp_path):
    assert changed(figure_digests(str(tmp_path)), golden["figures"]) == []


def test_cli_requests_match_their_digests_in_either_order(golden, tmp_path):
    jobs = variants("cli_requests")
    for name, order in (("forward", jobs), ("reverse", jobs[::-1])):
        got = cli_digests(order, str(tmp_path / name))
        assert changed(got, golden["cli_requests"]) == [], name


def test_library_sweep_outputs_match_their_digests(golden):
    assert changed(library_digests(variants("library_sweep")), golden["library_sweep"]) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"platform": platform_record(),
                  "figures": figure_digests(tmp),
                  "cli_requests": cli_digests(variants("cli_requests"),
                                              os.path.join(tmp, "cli")),
                  "library_sweep": library_digests(variants("library_sweep"))}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
