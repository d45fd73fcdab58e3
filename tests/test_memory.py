"""Peak memory of whole runs on desk-scale meshes.

One rung is run_simulation, the path the nse command takes, on the 64x32
torus, so the bound also sees which factors and operators it keeps alive
at once (it releases A_visc, A_red, the sparse step block and the pressure
factor once it stops reading them); the other is `stokes --compare-saddle`
on the 32x16 torus, whose saddle-point factor is built once A_red is
released and the C heap's free pages are handed back to the OS.  Each
runs in its own process, so the peak resident size it reports belongs to
that rung alone and not to whatever the test run allocated before.  A bound is about
1.25 times the measured peak: it guards against per-step or per-form
tabulations that grow past the mesh (such as dense ambient gradient
tables) and against set-up copies that outlive their use, not against
small drifts, and it checks memory, not time.  More tests run in their
own processes: the release of free heap pages, and a stokes and an nse run
whose address space is too small for their factors.
"""

import os
import subprocess
import sys

import pytest

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
# measured peak about 113-115 MB on x86_64 Linux, now at the reduced
# solve's factor (A_ss, 1.57M LU entries), since the C heap's free pages
# are handed back before the oracle's factor (2.0M); 117-120 MB while that
# factor was allocated beside them, 127 MB with the full n_V x n_V oracle
# block (3.0M), 130 MB while A_red and the penalty term B'WB stayed alive
# beside it
SADDLE_PEAK_MB_BOUND = 142


def _run(script: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """script run in its own process, on this checkout's sources."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300, **kwargs)


def _peak_mb(script: str, *args: str) -> float:
    """The peak resident size of script, run in its own process."""
    proc = _run(script + PEAK, *args)
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


# leaves 48 MiB of freed heap chunks resident, then releases them
RELEASE = """
import numpy as np
from surfhodge.linalg import _MALLOC_TRIM, _release_free_heap

def rss_mib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:")) / 1024

if _MALLOC_TRIM is None:
    print("no malloc_trim")
    raise SystemExit
big = np.ones(1 << 20)  # 8 MiB, mapped; freeing it raises glibc's mapping threshold
del big
kept, freed = [], []
for _ in range(48):
    freed.append(np.ones(1 << 17))  # 1 MiB, now on the heap
    kept.append(np.ones(1 << 12))  # 32 KiB kept live, so the freed chunks stay inside the heap
del freed
before = rss_mib()
_release_free_heap()
print(before - rss_mib())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS")
def test_release_free_heap_returns_freed_pages():
    """With 48 MiB of freed but resident heap chunks, none at the heap's
    top, the release drops the resident size by at least 32 MiB (48 MiB
    measured on x86_64 Linux with glibc)."""
    proc = _run(RELEASE)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "no malloc_trim":
        pytest.skip("the C library has no malloc_trim")
    assert float(proc.stdout) >= 32


# on x86_64 Linux the 64x32 torus stokes run at k = 2 exits 0 with a 520 MB
# address space; with 400-500 MB SuperLU runs out of memory while it
# factors the Stokes block A_ss (order 18,431)
OOM_LIMIT_MB = 450
# the nse run on the same mesh and degree exits 0 with 500 MB; with 440-490
# MB it runs out while it factors the Stokes start's A_ss, as stokes does;
# 430 MB fails in L's factor, whose SuperLU message ends without a newline
NSE_OOM_LIMIT_MB = 460

STOKES = """
import sys
from surfhodge.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_out_of_memory(tmp_path, limit_mb: int, verb: str, config: str):
    """verb with config on the 64x32 torus at k = 2, in a process whose
    address space is limit_mb MB."""
    from surfhodge import meshes
    from surfhodge.mesh import save_off

    mesh = str(tmp_path / "torus64x32.off")
    save_off(meshes.torus_structured(64, 32), mesh)

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    return _run(STOKES, verb, "--config", os.path.join(ROOT, "configs", config),
                "--mesh", mesh, "--k", "2", preexec_fn=limit)


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limit measured on Linux")
def test_out_of_memory_run_exits_4_with_one_line(tmp_path):
    """stokes on the 64x32 torus at k = 2 in a process whose address space
    is too small for the Stokes block's factor: exit 4, no traceback, and
    the run's one line is the last on stderr (SuperLU may print its own
    before it)."""
    proc = _run_out_of_memory(tmp_path, OOM_LIMIT_MB, "stokes", "stokes_torus.cfg")
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("solver failure: out of memory factoring")


@pytest.mark.skipif(sys.platform != "linux", reason="address-space limit measured on Linux")
def test_out_of_memory_nse_run_exits_4_with_one_line(tmp_path):
    """nse on the 64x32 torus at k = 2, its address space too small for the
    Stokes start's factor: exit 4, no traceback, and the run's one line is
    the last on stderr."""
    proc = _run_out_of_memory(tmp_path, NSE_OOM_LIMIT_MB, "nse", "nse_torus_decay.cfg")
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("solver failure: out of memory factoring")
