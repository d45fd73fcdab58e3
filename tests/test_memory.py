"""Peak memory of whole runs on desk-scale meshes.

One rung is run_simulation, the path the nse command takes, on the 64x32
torus, so the bound also sees which factors and operators it keeps alive
at once (it releases A_visc, A_red, the sparse step block and the pressure
factor once it stops reading them); the other is `stokes --compare-saddle`
on the 32x16 torus, whose saddle-point factor lands on whatever set-up
left resident (A_red is released before it).  Each runs in its own
process, so the peak resident size it reports belongs to that rung alone
and not to whatever the test run allocated before.  A bound is about
1.25 times the measured peak: it guards against per-step or per-form
tabulations that grow past the mesh (such as dense ambient gradient
tables) and against set-up copies that outlive their use, not against
small drifts, and it checks memory, not time.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PIPELINE = """
import numpy as np
from surfhodge import meshes
from surfhodge.flow import SimulationConfig, run_simulation

def forcing(x, t=0.0):
    return 1e-3 * np.stack([np.sin(x[:, 1]), np.cos(x[:, 2]), np.sin(x[:, 0])], axis=1)

res = run_simulation(meshes.torus_structured(64, 32),
                     SimulationConfig(k=2, mu=0.1, dt=1e-3, t_end=5e-3, forcing=forcing))
assert len(res.records) == 6 and np.isfinite(res.kinetic_energy).all()
"""

SADDLE = """
import contextlib, io, os, sys, tempfile
from surfhodge import meshes
from surfhodge.cli import main
from surfhodge.mesh import save_off

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "torus.off")
    save_off(meshes.torus_structured(32, 16), path)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["stokes", "--config", sys.argv[1], "--mesh", path, "--k", "2",
                     "--compare-saddle"])
assert code == 0
"""

# the reading the CLI's manifest records as peak_rss_mb
PEAK = """
from surfhodge.cli import _peak_rss_mb
print(_peak_rss_mb())
"""

# measured peak about 252 MB on x86_64 Linux, the Stokes start's; 279 MB
# while the run kept A_visc, A_red and the step block beside the step
# factor, 396 MB when the step factor was built before the Stokes start's
# factor was freed
PEAK_MB_BOUND = 315
# measured peak about 117-120 MB on x86_64 Linux, since the oracle factors
# its penalized block only on the kernel of B[qp] (2.0M LU entries); 127 MB
# with the full n_V x n_V block (3.0M), 130 MB while A_red and the penalty
# term B'WB stayed alive beside that factor
SADDLE_PEAK_MB_BOUND = 145


def _peak_mb(script: str, *args: str) -> float:
    """The peak resident size of script, run in its own process."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script + PEAK, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


def test_pipeline_peak_memory_64x32_k2():
    """run_simulation with the Stokes start and 5 steps on the 64x32 torus
    at k = 2 (30,720 H(div) dofs)."""
    peak_mb = _peak_mb(PIPELINE)
    assert peak_mb <= PEAK_MB_BOUND, f"peak RSS {peak_mb:.0f} MB"


def test_compare_saddle_peak_memory_32x16_k2():
    """stokes --compare-saddle on the 32x16 torus at k = 2 (7,680 H(div)
    dofs), the oracle's factor (order 5,632, about 2.0M LU entries) built
    last."""
    peak_mb = _peak_mb(SADDLE, os.path.join(ROOT, "configs", "stokes_torus.cfg"))
    assert peak_mb <= SADDLE_PEAK_MB_BOUND, f"peak RSS {peak_mb:.0f} MB"
