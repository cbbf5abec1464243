"""The demo scripts run to completion against the public API."""

import os
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", sorted(n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs_clean(script, tmp_path):
    # the child inherits os.environ as the CLI tests' runs do; PYTHONPATH entries
    # are made absolute because it runs in tmp_path, where a demo may save a plot
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.abspath(p) for p in path if p)}
    r = subprocess.run([sys.executable, os.path.join(DEMOS, script)], capture_output=True,
                       text=True, cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
