"""Smoke runs of the scripts in scripts/, each as its own process: the
experiment driver on each experiment config with two time steps, and the
mesh corpus writer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from surfhodge import meshes
from surfhodge.mesh import load_mesh

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", ["nse_trefoil.cfg", "nse_pierced_sphere.cfg"])
def test_experiment_script_two_steps(tmp_path, config):
    out = tmp_path / "out"
    run_script("run_experiment.py", ROOT / "configs" / config, out, 2)
    rows = (out / "timeseries.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header, t = 0 and two steps
    assert sorted(p.name for p in out.glob("*.vtk")) == [
        f"flow_{n:06d}.vtk" for n in range(3)]


def test_make_meshes_writes_the_corpus(tmp_path):
    """One OFF and one OBJ file per corpus mesh, each reading back with its
    builtin's checksum."""
    run_script("make_meshes.py", tmp_path)
    corpus = meshes.corpus()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.{ext}" for name in corpus for ext in ("off", "obj"))
    for name, mesh in corpus.items():
        for ext in ("off", "obj"):
            assert load_mesh(tmp_path / f"{name}.{ext}").checksum() == mesh.checksum()


def test_every_script_is_run_here():
    """Each script in scripts/ is named in this file, so that none goes
    untested."""
    text = Path(__file__).read_text()
    assert [p.name for p in sorted((ROOT / "scripts").glob("*.py"))
            if p.name not in text] == []
