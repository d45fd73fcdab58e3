"""Peak memory of the whole flow pipeline on one desk-scale mesh.

The pipeline is run_simulation, the path the nse command takes, so the
bound also sees which factors it keeps alive at once.  It runs in its own
process, so the peak resident size it
reports belongs to this rung alone and not to whatever the test session
allocated before.  The bound is about 1.25 times the measured peak: it
guards against per-step or per-form tabulations that grow past the mesh
(such as dense ambient gradient tables), not against small drifts, and it
checks memory, not time.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PIPELINE = """
import resource, sys
import numpy as np
from surfhodge import meshes
from surfhodge.flow import SimulationConfig, run_simulation

def forcing(x, t=0.0):
    return 1e-3 * np.stack([np.sin(x[:, 1]), np.cos(x[:, 2]), np.sin(x[:, 0])], axis=1)

res = run_simulation(meshes.torus_structured(64, 32),
                     SimulationConfig(k=2, mu=0.1, dt=1e-3, t_end=5e-3, forcing=forcing))
assert len(res.records) == 6 and np.isfinite(res.kinetic_energy).all()
try:  # VmHWM is this process's own peak; on Linux ru_maxrss keeps the parent's across exec
    with open("/proc/self/status") as fh:
        print(next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024)
except OSError:
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, KiB elsewhere
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20)
"""

# measured peak about 295 MB on x86_64 Linux; 396 MB when the step factor
# was built before the Stokes start's factor was freed
PEAK_MB_BOUND = 370


def test_pipeline_peak_memory_64x32_k2():
    """run_simulation with the Stokes start and 5 steps on the 64x32 torus
    at k = 2 (30,720 H(div) dofs)."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", PIPELINE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb = float(proc.stdout.split()[-1])
    assert peak_mb <= PEAK_MB_BOUND, f"peak RSS {peak_mb:.0f} MB"
