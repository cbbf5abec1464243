"""End-to-end CLI runs via subprocess: formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityrad import (
    C_LIGHT,
    BoundaryCondition,
    BoxGeometry,
    FilmGeometry,
    ResourceLimitError,
    RodGeometry,
    ThresholdSingularityError,
    binned_density,
    cli,
    enumerate_box_modes,
    film_density,
    film_mode_count,
    rod_density,
    rod_threshold_frequencies,
)
from cavityrad.bessel import MAX_SWEEP_STEPS
from cavityrad.binned import MAX_BINS, MAX_CUBE_NORMS
from cavityrad.modes import DEFAULT_LATTICE_CAP
from cavityrad.slab_rod import MAX_ROD_TABLE


def run_cli(*args):
    """Run the CLI in a subprocess that fails on any RuntimeWarning, as the
    in-process tests do."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "cavityrad",
                           *args], capture_output=True, text=True)


def read_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {
        name: [float(r[i]) if r[i] else None for r in rows]
        for i, name in enumerate(header)
    }
    return header, cols


def test_film_dirichlet_cutoff_column(tmp_path):
    out = tmp_path / "film.csv"
    r = run_cli("spectrum", "--geometry", "film", "--bc", "dirichlet",
                "--length", "1e-5", "--temperature", "300", "--omega-max", "1e15",
                "--samples", "2000", "--compare", "planck", "--format", "csv",
                "--output", str(out))
    assert r.returncode == 0
    header, cols = read_csv(out.read_text())
    assert header == ["omega_rad_s", "u_J_s_m3", "planck_J_s_m3"]
    cut = C_LIGHT * math.pi / 1e-5
    for w, u in zip(cols["omega_rad_s"], cols["u_J_s_m3"]):
        if w < cut:
            assert u == 0.0
    assert any(u > 0 for u in cols["u_J_s_m3"])


def test_box_binned_tracks_planck_near_peak():
    r = run_cli("spectrum", "--geometry", "box", "--bc", "periodic",
                "--lengths", "2e-4,2e-4,2e-4", "--temperature", "300",
                "--delta-omega", "1e13", "--omega-max", "1e15", "--compare", "planck")
    assert r.returncode == 0
    header, cols = read_csv(r.stdout)
    assert header[0] == "omega_left_rad_s"
    centers = [w + 0.5e13 for w in cols["omega_left_rad_s"]]
    for w, u, p in zip(centers, cols["u_J_s_m3"], cols["planck_J_s_m3"]):
        if 1.0e14 <= w <= 1.3e14:  # bins bracketing the 300 K peak
            assert abs(u / p - 1.0) < 0.10


def test_sphere_json_weyl_negative_and_structure():
    r = run_cli("spectrum", "--geometry", "sphere", "--diameter", "1e-5",
                "--temperature", "300", "--delta-omega", "1e13",
                "--omega-max", "1e15", "--compare", "planck,weyl",
                "--format", "json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert set(data) == {"config", "series", "warnings"}
    assert data["config"]["geometry"] == "sphere"
    assert data["config"]["bc"] == "dirichlet"
    names = [s["name"] for s in data["series"]]
    assert names == ["spectrum", "planck", "weyl"]
    weyl = data["series"][2]["values"]
    assert any(v is not None and v < 0.0 for v in weyl)


def test_csv_json_numeric_agreement(tmp_path):
    args = ["spectrum", "--geometry", "box", "--bc", "dirichlet",
            "--lengths", "1e-5,1e-5,1e-5", "--temperature", "300",
            "--delta-omega", "1e13", "--omega-max", "5e14", "--compare", "planck"]
    rc = run_cli(*args, "--format", "csv")
    rj = run_cli(*args, "--format", "json")
    assert rc.returncode == 0 and rj.returncode == 0
    _, cols = read_csv(rc.stdout)
    data = json.loads(rj.stdout)
    # identical numeric values in both encodings
    assert cols["omega_left_rad_s"] == data["series"][0]["omega"]
    assert cols["u_J_s_m3"] == data["series"][0]["values"]
    assert cols["planck_J_s_m3"] == data["series"][1]["values"]


def test_determinism_byte_identical():
    args = ["spectrum", "--geometry", "box", "--bc", "periodic",
            "--lengths", "2e-4,2e-4,2e-4", "--temperature", "300",
            "--delta-omega", "1e13", "--omega-max", "1e15", "--format", "csv"]
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def main_csv(capsys, *args):
    """Run main in process; returns the parsed stdout CSV and the stderr text."""
    assert cli.main(list(args)) == 0
    out = capsys.readouterr()
    return read_csv(out.out), out.err


@pytest.mark.parametrize("side", ["5e-5", "2e-4"])
@pytest.mark.parametrize("bc", [b.value for b in BoundaryCondition])
def test_cube_spectrum_matches_lattice_scan(bc, side, monkeypatch, capsys):
    # a cube takes the integer-norm path, never the scan, and agrees with it
    def no_scan(*args):
        raise AssertionError("a cube must not be scanned")

    monkeypatch.setattr(cli, "enumerate_box_modes", no_scan)
    (header, cols), _ = main_csv(
        capsys, "spectrum", "--geometry", "box", "--bc", bc, "--temperature", "300",
        "--lengths", ",".join([side] * 3), "--omega-max", "1e15", "--delta-omega", "1e13")
    L = float(side)
    geom = BoxGeometry(L, L, L)
    spec = binned_density(enumerate_box_modes(geom, BoundaryCondition(bc), 1e15),
                          300.0, 1e13, geom.volume)
    assert header == ["omega_left_rad_s", "u_J_s_m3"]
    assert cols["omega_left_rad_s"] == spec.omega_left.tolist()
    u, ref = np.array(cols["u_J_s_m3"]), spec.u
    np.testing.assert_array_equal(u == 0.0, ref == 0.0)
    assert np.count_nonzero(ref) > 10
    nz = ref != 0.0
    assert np.max(np.abs(u[nz] / ref[nz] - 1.0)) <= 1e-13


def test_box_with_one_unequal_side_is_scanned(monkeypatch, capsys):
    def no_cube(*args, **kw):
        raise AssertionError("only a cube takes the integer-norm path")

    monkeypatch.setattr(cli, "cube_binned_density", no_cube)
    (_, cols), _ = main_csv(
        capsys, "spectrum", "--geometry", "box", "--bc", "periodic", "--temperature", "300",
        "--lengths", "2e-5,2e-5,3e-5", "--omega-max", "1e15", "--delta-omega", "1e13")
    geom = BoxGeometry(2e-5, 2e-5, 3e-5)
    spec = binned_density(enumerate_box_modes(geom, BoundaryCondition.PERIODIC, 1e15),
                          300.0, 1e13, geom.volume)
    assert cols["u_J_s_m3"] == spec.u.tolist()


@pytest.mark.parametrize("bc", [b.value for b in BoundaryCondition])
def test_cube_over_norm_cap_exit_3(bc):
    r = run_cli("spectrum", "--geometry", "box", "--bc", bc, "--lengths", "1e-3,1e-3,1e-3",
                "--temperature", "300", "--omega-max", "1e17")
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert "integer norms" in r.stderr
    assert r.stdout == ""


def test_rod_grid_refusals_match_per_sample_loop(capsys):
    # samples every tenth of the first periodic threshold land on thresholds
    L = 2e-5
    rod = RodGeometry(L, L)
    omega_max = 10.0 * 2.0 * math.pi * C_LIGHT / L
    (_, cols), err = main_csv(
        capsys, "spectrum", "--geometry", "rod", "--bc", "periodic", "--temperature", "300",
        "--lengths", "%r,%r" % (L, L), "--omega-max", repr(omega_max), "--samples", "101")
    expected_none, expected_warnings = [], []
    for w in np.linspace(0.0, omega_max, 101).tolist():
        try:
            rod_density(w, 300.0, rod, BoundaryCondition.PERIODIC)
            expected_none.append(False)
        except ThresholdSingularityError as exc:
            expected_none.append(True)
            expected_warnings.append(
                "warning: singular sample skipped at omega=%r: transverse mode "
                "(n1=%d, n2=%d)" % (w, exc.mode[0], exc.mode[1]))
    assert sum(expected_none) >= 5
    assert [u is None for u in cols["u_J_s_m3"]] == expected_none
    assert err.splitlines() == expected_warnings


@pytest.mark.parametrize("flags", [
    ("--bc", "periodic", "--lengths", "1e-1,1e-1", "--omega-max", "1e16", "--samples", "3"),
    ("--bc", "dirichlet", "--lengths", "1e300,1e-5", "--omega-max", "1e15"),
], ids=["10cm-rod", "1e300m-rod"])
def test_rod_table_over_cap_exit_3(flags):
    r = run_cli("spectrum", "--geometry", "rod", *flags, "--temperature", "300")
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert "transverse modes" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args", [
    ("spectrum", "--geometry", "box", "--bc", "periodic", "--lengths", "1e-300,1e-5,1e-5"),
    ("modes", "--geometry", "box", "--bc", "periodic", "--lengths", "1e-300,1e-5,1e-5"),
    ("spectrum", "--geometry", "rod", "--bc", "periodic", "--lengths", "1e-300,1e-5",
     "--samples", "5"),
], ids=["box-spectrum", "box-modes", "rod-spectrum"])
def test_overflowing_wavenumbers_print_no_warning(args):
    # k^2 on the 1e-300 m axis overflows to inf, which is never admitted
    r = run_cli(*args, "--temperature", "300", "--omega-max", "1e15")
    assert r.returncode == 0, r.stderr
    if args[0] == "modes":
        assert r.stderr.startswith("modes: ") and len(r.stderr.splitlines()) == 1
    else:
        assert r.stderr == ""


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    from cavityrad.figures import generate_figure

    out = tmp_path_factory.mktemp("figures")
    for fig in (1, 2, 3, 4):
        generate_figure(fig, str(out))
    return out


def preset_curves():
    from cavityrad.figures import _load_preset

    return [(fig, name) for fig in (1, 2, 3, 4) for name in _load_preset(fig)]


@pytest.mark.parametrize("fig, name", preset_curves())
def test_spectrum_with_preset_keys_reproduces_figure_csv(fig, name, figure_dir, tmp_path):
    # a preset section's run keys as a --config file give the figure's CSV, byte for byte
    from cavityrad.figures import _load_preset

    section = _load_preset(fig)[name]
    run_keys = [(k, v) for k, v in section.items() if k not in ("panel", "curve",
                                                                "planck-reference")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in run_keys))
    out = tmp_path / "out.csv"
    assert cli.main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 0
    expected = figure_dir / ("fig%d_%s_%s.csv" % (fig, section["panel"], section["curve"]))
    assert out.read_bytes() == expected.read_bytes()


def test_preset_curve_count():
    assert len(preset_curves()) == 30  # 9 films, 9 rods, 6 cubes, 3 cubes + 3 spheres


def test_figures_warn_for_singular_rod_samples(monkeypatch, capsys, tmp_path):
    # a figure curve goes through the spectrum path: same CSV bytes, same warnings
    from cavityrad import figures

    L = 2e-5
    keys = {"geometry": "rod", "bc": "periodic", "lengths": "%r,%r" % (L, L),
            "temperature": "300", "omega-max": repr(10.0 * 2.0 * math.pi * C_LIGHT / L),
            "samples": "101"}
    monkeypatch.setattr(figures, "_load_preset",
                        lambda fig_id: {"rod": {"panel": "periodic", "curve": "grid", **keys}})
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in keys.items()))
    assert cli.main(["spectrum", "--config", str(cfg)]) == 0
    spectrum = capsys.readouterr()
    assert cli.main(["figures", "2", "--output-dir", str(tmp_path)]) == 0
    path = tmp_path / "fig2_periodic_grid.csv"
    warnings = spectrum.err.splitlines()
    assert len(warnings) >= 5 and all(w.startswith("warning: singular") for w in warnings)
    assert capsys.readouterr().err.splitlines() == warnings + [str(path)]
    assert path.read_text() == spectrum.out


def test_config_section_line_refused(tmp_path):
    # preset section headers are not --config syntax
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[DEFAULT]\ngeometry = film\n")
    r = run_cli("spectrum", "--config", str(cfg))
    assert r.returncode == 2
    assert r.stderr == "error: config line without '=': '[DEFAULT]'\n"
    assert r.stdout == ""


def test_modes_dirichlet_cube_first_row():
    r = run_cli("modes", "--geometry", "box", "--bc", "dirichlet",
                "--lengths", "1e-5,1e-5,1e-5", "--temperature", "300",
                "--omega-max", "2e14")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "omega_rad_s,multiplicity"
    w, mult = lines[1].split(",")
    assert float(w) == pytest.approx(math.pi * C_LIGHT * math.sqrt(3.0) / 1e-5, rel=1e-12)
    assert mult == "2"
    assert "N(<=omega_max)" in r.stderr


def test_modes_periodic_cube_shell_multiplicities():
    r = run_cli("modes", "--geometry", "box", "--bc", "periodic",
                "--lengths", "1e-5,1e-5,1e-5", "--temperature", "300",
                "--omega-max", str(2.0 * math.pi * C_LIGHT * math.sqrt(2.0) / 1e-5 * (1 + 1e-9)))
    lines = r.stdout.strip().splitlines()
    assert [row.split(",")[1] for row in lines[1:3]] == ["12", "24"]


def test_modes_empty_header_only():
    r = run_cli("modes", "--geometry", "sphere", "--diameter", "1e-5",
                "--temperature", "300", "--omega-max", "1e13")
    assert r.returncode == 0
    assert r.stdout == "omega_rad_s,multiplicity\n"


def test_spectrum_csv_lines_built_by_column():
    from cavityrad.io import spectrum_csv_lines

    cols = [[1.0, 2.5, np.float64(0.1)], [None, 1e-300, math.inf], np.array([3.0, -0.0, 7.0])]
    assert spectrum_csv_lines(["a", "b", "c"], cols) == [
        "a,b,c", "1.0,,3.0", "2.5,1e-300,-0.0", "0.1,inf,7.0"]
    assert spectrum_csv_lines(["a", "b"], [[], []]) == ["a,b"]  # zero rows: the header only
    with pytest.raises(ValueError, match="equal length"):  # ragged columns
        spectrum_csv_lines(["a", "b"], [[1.0, 2.0], [1.0]])
    for header in (["a"], ["a", "b", "c"]):  # one name per column, no fewer or more
        with pytest.raises(ValueError, match="equal length"):
            spectrum_csv_lines(header, [[1.0], [2.0]])


def test_singular_rod_sample_emits_empty_field_and_warns():
    th = rod_threshold_frequencies(RodGeometry(1e-5, 1e-5),
                                   BoundaryCondition.PERIODIC, 1e15)
    w0 = float(th[0])
    r = run_cli("spectrum", "--geometry", "rod", "--bc", "periodic",
                "--lengths", "1e-5,1e-5", "--temperature", "300",
                "--omega-min", repr(w0), "--omega-max", repr(2.0 * w0),
                "--samples", "3")
    assert r.returncode == 0
    _, cols = read_csv(r.stdout)
    assert cols["u_J_s_m3"][0] is None
    assert "singular" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--geometry", "sphere", "--diameter", "1e-5", "--bc", "periodic",
         "--temperature", "300", "--omega-max", "1e15"),
        ("spectrum", "--geometry", "film", "--temperature", "300", "--omega-max", "1e15"),
        ("spectrum", "--geometry", "film", "--bc", "dirichlet", "--length", "-1",
         "--temperature", "300", "--omega-max", "1e15"),
        ("spectrum", "--geometry", "rod", "--bc", "periodic", "--lengths", "1e-5,1e-5",
         "--temperature", "300", "--omega-max", "1e15", "--compare", "weyl"),
        ("figures", "9"),
    ],
)
def test_usage_errors_exit_2(args):
    assert run_cli(*args).returncode == 2


@pytest.mark.parametrize("flags", [
    ("--geometry", "box", "--bc", "periodic", "--lengths", "1e-300,1e-300,1e-300"),
    ("--geometry", "box", "--bc", "periodic", "--lengths", "1e-300,1e-300,1e-200"),
    ("--geometry", "box", "--bc", "dirichlet", "--lengths", "1e300,1e300,1e300"),
    ("--geometry", "sphere", "--diameter", "1e-300"),
    ("--geometry", "sphere", "--diameter", "1e300", "--omega-max", "5e-324"),
    ("--geometry", "rod", "--bc", "dirichlet", "--lengths", "1e-300,1e-300", "--samples", "3"),
    ("--geometry", "rod", "--bc", "periodic", "--lengths", "1e-300,1e-300", "--samples", "3"),
    ("--geometry", "rod", "--bc", "periodic", "--lengths", "1e300,1e300",
     "--omega-max", "5e-324", "--samples", "3"),
], ids=["cube-underflow", "box-underflow", "cube-overflow", "sphere-underflow",
        "sphere-overflow", "rod-dirichlet-underflow", "rod-periodic-underflow", "rod-overflow"])
def test_cavity_size_beyond_a_float_exit_2(flags):
    # the density divides by the volume or the rod area, which must be a positive finite float
    r = run_cli("spectrum", *flags, "--temperature", "300",
                *(() if "--omega-max" in flags else ("--omega-max", "1e15")))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert ("--diameter" if "sphere" in flags else "--lengths") in r.stderr
    assert "Traceback" not in r.stderr and "RuntimeWarning" not in r.stderr
    assert r.stdout == ""


def test_resource_cap_exit_3():
    r = run_cli("modes", "--geometry", "box", "--bc", "periodic",
                "--lengths", "0.01,0.01,0.01", "--temperature", "300",
                "--omega-max", "1e16")
    assert r.returncode == 3
    assert "lattice points" in r.stderr


@pytest.mark.parametrize("flags", [
    ("--geometry", "box", "--bc", "periodic", "--lengths", "1e-5,1e-5,1e-5",
     "--delta-omega", "1e-3"),
    ("--geometry", "film", "--bc", "dirichlet", "--length", "1e-5",
     "--samples", "1000000000000000"),
    ("--geometry", "film", "--bc", "dirichlet", "--length", "1e-5",
     "--samples", str(10**400)),  # an int beyond the float range
], ids=["bins", "samples", "samples-beyond-a-float"])
def test_unbounded_bins_and_samples_exit_3(flags):
    r = run_cli("spectrum", *flags, "--temperature", "300", "--omega-max", "1e15")
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and "exceeding the cap" in r.stderr
    assert r.stdout == ""


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "geometry = film\nbc = dirichlet\nlength = 1e-5\n"
        "temperature = 300\nomega-max = 1e15\nsamples = 50\n"
    )
    r = run_cli("spectrum", "--config", str(cfg))
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 51
    r = run_cli("spectrum", "--config", str(cfg), "--samples", "10")
    assert len(r.stdout.strip().splitlines()) == 11


def test_figures_3_writes_expected_files(tmp_path):
    r = run_cli("figures", "3", "--output-dir", str(tmp_path))
    assert r.returncode == 0
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(names) == 9  # 3 sizes x 2 boundary conditions + 3 planck refs
    assert "fig3_L0p2mm_periodic.csv" in names
    assert "fig3_L0p05mm_planck.csv" in names
    header, cols = read_csv((tmp_path / "fig3_L0p2mm_periodic.csv").read_text())
    assert header == ["omega_left_rad_s", "u_J_s_m3"]
    assert len(cols["u_J_s_m3"]) == 100


@pytest.mark.parametrize("flags", [
    ("--geometry", "box", "--bc", "periodic", "--lengths", "1e-3,1e-3,1e-3",
     "--omega-max", "1e25"),
    ("--geometry", "box", "--bc", "periodic", "--lengths", "1e-3,1e-3,1e-3",
     "--omega-max", "1e300"),
    ("--geometry", "sphere", "--diameter", "1e-3", "--omega-max", "1e300"),
], ids=["box-axes-too-large", "box-axes-beyond-any-size", "sphere-estimate-overflows"])
def test_unbounded_modes_exit_3(flags):
    # the box axes and the sphere zero-count estimate are sized in floats and
    # compared with the cap before anything is allocated or converted to int
    r = run_cli("modes", *flags, "--temperature", "300")
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert "exceeding the cap" in r.stderr
    assert r.stdout == ""


def test_sphere_past_the_sweep_cap_exits_3_at_once(capsys):
    # x_max ~ 8,000 passes the zero-count estimate, but its zero table would
    # take ~120 s and ~0.8 GB; the sweep cap refuses it before it is built
    import time

    start = time.perf_counter()
    code = cli.main(["spectrum", "--geometry", "sphere", "--diameter", "1e-3",
                     "--omega-max", "4.8e15", "--temperature", "300"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "recurrence steps per sweep, exceeding the cap of 1000000000" in err
    assert elapsed < 1.0


def test_runtime_imports_no_scipy(tmp_path):
    script = (
        "import sys, io, contextlib\n"
        "import cavityrad\n"
        "from cavityrad.cli import main\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded(), loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['spectrum', '--geometry', 'box', '--bc', 'periodic',\n"
        "                 '--lengths', '1e-5,1e-5,1e-5', '--temperature', '300',\n"
        "                 '--omega-max', '1e15', '--delta-omega', '1e13']) == 0\n"
        "    assert main(['modes', '--geometry', 'sphere', '--diameter', '1e-5',\n"
        "                 '--temperature', '300', '--omega-max', '1e15']) == 0\n"
        "assert len(out.getvalue().splitlines()) > 100\n"
        "assert not loaded(), loaded()\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['figures', '3', '--output-dir', sys.argv[1]]) == 0\n"
        "assert 'configparser' not in sys.modules\n"
    )
    r = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr


def after_import(modules, openblas_threads=None):
    """A fresh interpreter's OS threads after `import <modules>`, whether that import left
    its environment as it was, and whether it loaded scipy. OPENBLAS_NUM_THREADS is unset,
    or set to `openblas_threads`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    script = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        f"import {modules}\n"
        "print(json.dumps({'threads': len(os.listdir('/proc/self/task')),\n"
        "                  'environ_kept': dict(os.environ) == before,\n"
        "                  'scipy': any(m.split('.')[0] == 'scipy' for m in sys.modules)}))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


needs_task_list = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                     reason="no /proc/self/task to count threads")


@needs_task_list
def test_import_loads_openblas_with_one_thread_and_keeps_the_environment():
    assert after_import("cavityrad") == {"threads": 1, "environ_kept": True, "scipy": False}


@needs_task_list
@pytest.mark.parametrize("modules, openblas_threads", [("cavityrad", "2"),
                                                       ("numpy, cavityrad", None)])
def test_preset_openblas_threads_or_numpy_loaded_first_is_left_alone(modules,
                                                                     openblas_threads):
    bare = after_import("numpy", openblas_threads)["threads"]
    assert after_import(modules, openblas_threads)["threads"] == bare


# one input per refusal of _build_config, plus the modes refusal of a film and a rod
FILM = ("--geometry", "film", "--bc", "dirichlet", "--length", "1e-5")
RUN = ("--temperature", "300", "--omega-max", "1e15")
USAGE_REFUSALS = {
    "unknown-key": ((), "foo = 1\n", "unknown config key 'foo'"),
    "bad-value": (FILM + ("--samples", "many"), None, "bad --samples value 'many'"),
    "no-geometry": (("--bc", "dirichlet", "--length", "1e-5"), None,
                    "--geometry is required"),
    "unknown-geometry": (("--geometry", "cone", "--bc", "dirichlet"), None,
                         "--geometry must be film, rod, box or sphere"),
    "unknown-bc": (("--geometry", "film", "--bc", "robin", "--length", "1e-5"), None,
                   "--bc must be periodic, antiperiodic or dirichlet"),
    "no-lengths": (("--geometry", "box", "--bc", "periodic"), None, "box needs --lengths"),
    "length-count": (("--geometry", "box", "--bc", "periodic", "--lengths", "1e-5,1e-5"), None,
                     "--lengths needs 3 comma-separated value(s) here"),
    "omega-min": (FILM + ("--omega-min", "2e15"), None, "need 0 <= --omega-min < --omega-max"),
    "samples": (FILM + ("--samples", "1"), None, "--samples must be >= 2"),
    "compare": (FILM + ("--compare", "planck,rayleigh"), None,
                "--compare entries must be planck or weyl"),
    "format": (FILM + ("--format", "xml"), None, "--format must be csv or json"),
    "modes-film": (FILM, None, "modes are enumerated for box and sphere geometries only"),
    "modes-rod": (("--geometry", "rod", "--bc", "periodic", "--lengths", "1e-5,1e-5"), None,
                  "modes are enumerated for box and sphere geometries only"),
}


@pytest.mark.parametrize("case", sorted(USAGE_REFUSALS))
def test_build_config_refusals_exit_2_with_one_error_line(case, capsys, tmp_path):
    flags, config, message = USAGE_REFUSALS[case]
    command = "modes" if case.startswith("modes-") else "spectrum"
    args = [command, *flags, *RUN]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        args += ["--config", str(path)]
    assert cli.main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: %s\n" % message


@pytest.mark.parametrize("geometry, flags", [
    ("film", ("--bc", "dirichlet", "--length", "1e-5")),
    ("rod", ("--bc", "periodic", "--lengths", "1e-5,2e-5")),
])
def test_json_config_echo_of_sampled_geometries(geometry, flags, capsys):
    assert cli.main(["spectrum", "--geometry", geometry, *flags, "--temperature", "300",
                     "--omega-min", "1e13", "--omega-max", "1e15", "--samples", "4",
                     "--compare", "planck", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config.items()) == [
        ("command", "spectrum"), ("geometry", geometry), ("bc", flags[1]),
        ("temperature_K", 300.0), ("lengths_m", [float(v) for v in flags[3].split(",")]),
        ("omega_min_rad_s", 1e13), ("omega_max_rad_s", 1e15), ("samples", 4),
        ("compare", ["planck"]),
    ]


@pytest.mark.parametrize("geometry, flags, size", [
    ("box", ("--bc", "antiperiodic", "--lengths", "2e-5,3e-5,4e-5"),
     ("lengths_m", [2e-5, 3e-5, 4e-5])),
    ("box", ("--bc", "dirichlet", "--lengths", "1e-5,1e-5,1e-5"),  # a cube, no lattice scan
     ("lengths_m", [1e-5, 1e-5, 1e-5])),
    ("sphere", ("--diameter", "1e-5"), ("diameter_m", 1e-5)),
], ids=["box", "cube", "sphere"])
def test_json_config_echo_of_binned_geometries(geometry, flags, size, capsys):
    assert cli.main(["spectrum", "--geometry", geometry, *flags, "--temperature", "300",
                     "--omega-max", "1e14", "--delta-omega", "2.5e13", "--samples", "4",
                     "--compare", "weyl,planck", "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert list(config.items()) == [
        ("command", "spectrum"), ("geometry", geometry),
        ("bc", flags[1] if geometry == "box" else "dirichlet"), ("temperature_K", 300.0),
        size, ("omega_max_rad_s", 1e14), ("delta_omega_rad_s", 2.5e13),
        ("compare", ["weyl", "planck"]),
    ]


@pytest.mark.parametrize("flags", [
    ("--bc", "periodic", "--length", "1e300"),   # omega*L1 overflows to inf
    ("--bc", "dirichlet", "--length", "1e290"),  # finite, but past the int64 range
], ids=["overflowing-count", "count-beyond-int64"])
def test_film_count_beyond_int64_refused(flags):
    r = run_cli("spectrum", "--geometry", "film", *flags, "--temperature", "300",
                "--omega-max", "1e15", "--samples", "3")
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert "film modes" in r.stderr and "Warning" not in r.stderr
    assert r.stdout == ""
    film = FilmGeometry(float(flags[3]))
    bc = BoundaryCondition(flags[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega in (1e15, np.linspace(0.0, 1e15, 3)):
            with pytest.raises(ResourceLimitError, match="film modes"):
                film_mode_count(omega, film, bc)
            with pytest.raises(ResourceLimitError, match="film modes"):
                film_density(omega, 300.0, film, bc)


@pytest.mark.parametrize("flags", [
    ("--geometry", "sphere", "--diameter", "1e-100", "--omega-max", "1e-250",
     "--delta-omega", "1e-252"),
    ("--geometry", "box", "--bc", "dirichlet", "--lengths", "1e100,1e100,1e100",
     "--omega-max", "1e15", "--delta-omega", "1e10"),
], ids=["underflow", "overflow"])
def test_bin_divisor_beyond_a_float_exit_2(flags):
    # u divides by volume * delta_omega, which must be a positive finite float
    r = run_cli("spectrum", *flags, "--temperature", "300")
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert "volume * delta_omega" in r.stderr
    assert "delta_omega=%r" % float(flags[flags.index("--delta-omega") + 1]) in r.stderr
    assert "volume=" in r.stderr
    assert "Traceback" not in r.stderr and "RuntimeWarning" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("flags", [
    ("--geometry", "film", "--bc", "periodic", "--length", "1e-300", "--omega-max", "1e10"),
    ("--geometry", "rod", "--bc", "periodic", "--lengths", "1e-100,2e-4", "--omega-max", "1e14"),
    ("--geometry", "box", "--bc", "periodic", "--lengths", "1e-20,1e-20,1e-20",
     "--omega-max", "2e29", "--delta-omega", "2e29"),
    ("--geometry", "sphere", "--diameter", "1e-20", "--omega-max", "2e29",
     "--delta-omega", "2e29"),
], ids=["film", "rod", "cube", "sphere"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_beyond_the_float_range_exit_2(flags, fmt):
    # a tiny cross-section or volume at a huge temperature: the density overflows
    r = run_cli("spectrum", *flags, "--temperature", "1e300", "--samples", "3", "--format", fmt)
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: the density exceeds the float range\n"
    assert r.stdout == ""


@pytest.mark.parametrize("compare", ["planck", "weyl"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_comparison_column_beyond_the_float_range_exit_2(compare, fmt):
    # at the 5e299 rad/s center and 1e300 K the mean energy is positive and
    # omega**2 overflows: refused like a film or rod density, not printed as inf
    r = run_cli("spectrum", "--geometry", "box", "--bc", "periodic",
                "--lengths", "2e-5,2e-5,3e-5", "--temperature", "1e300", "--omega-max", "1e14",
                "--delta-omega", "1e300", "--compare", compare, "--format", fmt)
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: the density exceeds the float range\n"
    assert r.stdout == ""


def test_comparison_columns_zero_at_a_huge_bin_center():
    # at the 5e299 rad/s center omega**2 overflows while the mean energy is 0
    args = ("spectrum", "--geometry", "box", "--bc", "periodic", "--lengths", "2e-5,2e-5,3e-5",
            "--temperature", "300", "--omega-max", "1e14", "--delta-omega", "1e300",
            "--compare", "planck,weyl")
    r = run_cli(*args)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1].split(",")[2:] == ["0.0", "0.0"]
    r = run_cli(*args, "--format", "json")
    assert r.returncode == 0, r.stderr

    def refuse(name):
        raise ValueError(name)

    data = json.loads(r.stdout, parse_constant=refuse)  # NaN and Infinity are not JSON
    assert [s["values"] for s in data["series"][1:]] == [[0.0], [0.0]]


# a rod whose (omega/c)^2 overflows on the upper two samples
HUGE_K_ROD_RUN = ("spectrum", "--geometry", "rod", "--bc", "dirichlet", "--lengths",
                  "1e-160,1e-148", "--omega-max", "1e163", "--temperature", "300",
                  "--samples", "3")


def test_rod_grid_past_the_square_range_prints_no_warning():
    r = run_cli(*HUGE_K_ROD_RUN)
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.splitlines()[1:] == ["0.0,0.0", "5e+162,0.0", "1e+163,0.0"]


def test_rod_grid_where_k_squared_overflows_at_a_positive_mean_energy_exit_2(capsys):
    # both samples' (omega/c)^2 overflow while the mean energy stays positive
    assert cli.main(["spectrum", "--geometry", "rod", "--bc", "periodic", "--lengths",
                     "1e-160,1e-148", "--temperature", "1.09e149", "--omega-min", "9.5e162",
                     "--omega-max", "1e163", "--samples", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: the density exceeds the float range\n"


def exit_code_cases():
    flags = {"film": ("--length", "{L}"), "rod": ("--lengths", "{L},{L}"),
             "box": ("--lengths", "{L},{L},{L}"), "sphere": ("--diameter", "{L}")}
    for geometry, (flag, value) in flags.items():
        for length in ("5e-324", "1e-300", "1e300", "1.7e308", "1e-5"):
            for T in ("5e-324", "300", "1e300"):
                for omega_max in ("5e-324", "1e15", "1e300"):
                    yield ("spectrum", "--geometry", geometry, "--bc", "dirichlet", flag,
                           value.format(L=length), "--temperature", T,
                           "--omega-max", omega_max)
    yield HUGE_K_ROD_RUN


def test_exit_code_matrix(capsys):
    # every input ends in a documented exit code; a refusal prints one error
    # line, and no warning escapes
    cases = list(exit_code_cases())
    assert len(cases) == 181
    for args in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(list(args))
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), args
        assert caught == [], (args, [str(w.message) for w in caught])
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


# The exit-code property over random requests. Each value is drawn either
# from the extreme floats below or from a required count that is small (and
# accepted), between 1x and 4x a cap, or far beyond it, so every accepted
# request stays small and every cap is met at its edge. Usage refusals have
# their own tests above; here the flags are well formed.
EXTREME_LENGTHS = (5e-324, 1e-300, 1e300, 1.7e308)
EXTREME_RATES = (5e-324, 1e300)  # --temperature, --omega-max and --delta-omega


def log_floats(lo, hi):
    """Floats spread evenly in log10 from lo to hi."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


def counts(cap, small=1e4):
    """A required count: below one, small, 1x to 4x cap, or far beyond it."""
    return st.one_of(log_floats(1e-12, 1.0), st.floats(1.0, small),
                     st.floats(1.001 * cap, 4.0 * cap), log_floats(4.0 * cap, 1e300))


def omega_for(count, geometry, lengths, bc, cube_norms):
    """The --omega-max at which the request needs about count modes (never fewer)."""
    L = lengths[0]
    if geometry == "film":  # label count ~ omega L/(c pi) for every bc
        return count * C_LIGHT * math.pi / L
    if geometry == "rod":  # transverse lattice points ~ k^2 L1 L2/pi^2
        return C_LIGHT * math.pi * math.sqrt(count) / math.sqrt(L) / math.sqrt(lengths[1])
    if geometry == "sphere":  # the zero estimate x^2/8 + x at x = omega R/c
        return 2.0 * count / (1.0 + math.sqrt(1.0 + count / 2.0)) * C_LIGHT * 2.0 / L
    if cube_norms:  # integer norms (omega/unit)^2
        return (2.0 if bc == "periodic" else 1.0) * math.pi * C_LIGHT / L * math.sqrt(count)
    k = math.pi * count ** (1.0 / 3.0)  # lattice points ~ k^3 L1 L2 L3/pi^3
    for side in lengths:
        k /= side ** (1.0 / 3.0)
    return C_LIGHT * k


@st.composite
def cli_requests(draw):
    """(argv, over_cap): a spectrum or modes request, and whether it asks for
    more than a cap allows."""
    geometry = draw(st.sampled_from(["film", "rod", "box", "sphere"]))
    command = draw(st.sampled_from(["spectrum"] * 4 + (["modes"] if geometry in ("box", "sphere")
                                                       else [])))
    bc = draw(st.sampled_from([None, "dirichlet"] if geometry == "sphere"
                              else ["periodic", "antiperiodic", "dirichlet"]))
    n = {"film": 1, "rod": 2, "box": 3, "sphere": 1}[geometry]
    sampled = command == "spectrum" and geometry in ("film", "rod")
    binned = command == "spectrum" and not sampled
    edge = draw(st.sampled_from(["extremes", "count"] + (["samples"] if sampled else
                                                           ["bins", "divisor"])))
    samples = draw(st.integers(2, 64))
    over = False
    if edge == "extremes":
        lengths = [draw(st.sampled_from(EXTREME_LENGTHS + (1e-5,))) for _ in range(n)]
        omega_max = draw(st.sampled_from(EXTREME_RATES + (1e15,)))
        delta = draw(st.sampled_from(EXTREME_RATES + (1e13,)))
    else:
        base = draw(st.one_of(st.sampled_from(EXTREME_LENGTHS), log_floats(5e-324, 1.7e308),
                              log_floats(1e-8, 0.1)) if edge != "divisor" else
                    log_floats(1e-100, 1e-2) | log_floats(1.0, 1e100))
        cube = geometry == "box" and draw(st.booleans())
        lengths = [base] + [base * (1.0 if cube else draw(st.sampled_from([1.0, 2.0, 3.0])))
                            for _ in range(n - 1)]
        cube_norms = command == "spectrum" and geometry == "box" and len(set(lengths)) == 1
        cap = {"film": 2.0**63, "rod": MAX_ROD_TABLE, "sphere": DEFAULT_LATTICE_CAP}.get(
            geometry, MAX_CUBE_NORMS if cube_norms else DEFAULT_LATTICE_CAP)
        count = draw(counts(cap) if edge == "count" else st.floats(1e-3, 1e4))
        sweep = geometry == "sphere" and edge == "count" and draw(st.booleans())
        if sweep:  # ~x^3/(9 pi) recurrence steps per sweep, 1x to 4x the sweep cap
            x = (9.0 * math.pi * MAX_SWEEP_STEPS * draw(st.floats(1.001, 4.0))) ** (1.0 / 3.0)
            count = x * x / 8.0 + x
        bins = draw(counts(MAX_BINS) if edge == "bins" else st.floats(0.5, 1e3))
        if edge == "samples":
            samples = draw(st.integers(cli.MAX_SAMPLES + 1, 4 * cli.MAX_SAMPLES)
                           | st.integers(4 * cli.MAX_SAMPLES, 10**30))
        omega_max = omega_for(count, geometry, lengths, bc, cube_norms)
        delta = omega_max / bins
        volume = math.prod(lengths) if geometry == "box" else math.pi / 6.0 * base * base * base
        if edge == "divisor" and binned and 0.0 < volume < math.inf:
            # log10(volume * delta_omega) just past the end of the float range it
            # can reach: below the smallest subnormal, or above the largest float
            product = draw(st.floats(-0.8, 0.8)) + (-324.5 if volume < 1e-3 else 309.0)
            delta = 10.0 ** min(product - math.log10(volume), 308.0)
            omega_max = delta * bins
        over = ((edge == "count" and (count > cap or sweep)) or (edge == "bins" and binned and bins > MAX_BINS)
                or (sampled and samples > cli.MAX_SAMPLES))
    key = {"film": "--length", "rod": "--lengths", "box": "--lengths", "sphere": "--diameter"}
    argv = [command, "--geometry", geometry, key[geometry], ",".join(map(repr, lengths)),
            "--temperature", repr(draw(st.one_of(st.sampled_from(EXTREME_RATES),
                                                 log_floats(5e-324, 1.7e308)))),
            "--omega-max", repr(omega_max)]
    if bc is not None:
        argv += ["--bc", bc]
    if command == "spectrum":
        compare = ["", "planck", "weyl", "planck,weyl"] if binned else ["", "planck"]
        argv += ["--omega-min", repr(omega_max * draw(st.sampled_from([0.0, 0.0, 0.5]))),
                 "--samples", str(samples), "--delta-omega", repr(delta),
                 "--compare", draw(st.sampled_from(compare)),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
    return argv, over


@given(request=cli_requests())
@settings(max_examples=500, deadline=5000)
def test_exit_codes_of_random_requests(request):
    # every request ends in a documented exit code with no warning; a refusal
    # prints one error line and nothing else, and a request past a cap is
    # refused before its arrays exist
    argv, over_cap = request
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caught == [], [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert all(line.startswith(("warning: singular sample skipped", "modes: "))
                   for line in err.getvalue().splitlines()), err.getvalue()
        assert not over_cap
    assert peak < 100 * 2**20
