"""Smoke runs of the experiment scripts in scripts/, each as its own
process with two time steps."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["run_trefoil_experiment.py",
                                    "run_pierced_sphere_experiment.py"])
def test_experiment_script_two_steps(tmp_path, script):
    out = tmp_path / "out"
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), str(out), "2"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "timeseries.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header, t = 0 and two steps
    assert sorted(p.name for p in out.glob("*.vtk")) == [
        f"flow_{n:06d}.vtk" for n in range(3)]
