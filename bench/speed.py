"""Host-speed probe: times at a fixed reference speed on a host whose speed drifts.

On a shared host the speed of a core changes by up to 1.6x, in spells that
last from a second to minutes.  A plain timer measures those spells as much
as the program.  The `Speedometer` runs fixed reference kernels (scipy
sparse operations, independent of surfhodge) every `period_s` seconds on a
SIGALRM timer, in the benchmark's own thread, between the program's
bytecodes.  A signal that arrives during a long C call is handled when the
call returns.

Two kernels are defined, because the spells slow cache-resident and
memory-streaming code by different amounts:
- `lu`: factor a 1600-unknown 2-D Laplacian and solve with it three times;
  its data fits in cache.
- `spmv`: six products of a 90000-row 2-D Laplacian (5.4 MB) with a vector;
  it streams memory.
A workload names the kernels that resemble its own hot loop.

- `now()` is a clock that stops while a probe runs, so probes are never
  charged to the program, and inside `hold()`, where the benchmark makes
  its inputs and checks results.
- A probe's slowness is the geometric mean, over its kernels, of the
  kernel's time over its reference time.
- `scaled(a, b)` is the time from `a` to `b` on that clock, with each piece
  between two probes divided by the median slowness of the probes around
  it: the time the interval would take on a host as fast as the reference.

A program change leaves the kernels' times alone, so it shows in full.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median kernel times on a 2-core x86_64 VM (Intel Xeon, Python 3.11, one
# BLAS thread); they only set the scale of the reported times.
REFERENCE_S = {"lu": 5.6e-3, "spmv": 3.85e-3}
NEIGHBOURS = 3  # probes taken on each side of a piece for its median


def _laplacian_2d(m: int) -> sp.csc_matrix:
    t = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(m, m))
    s = sp.diags([-1.0, -1.0], [-1, 1], shape=(m, m))
    eye = sp.identity(m)
    return (sp.kron(eye, t) + sp.kron(s, eye)).tocsc()


def _lu_kernel():
    A = _laplacian_2d(40)
    b = np.random.default_rng(0).standard_normal(A.shape[0])

    def run():
        lu = spla.splu(A)
        for _ in range(3):
            lu.solve(b)
    return run


def _spmv_kernel():
    A = _laplacian_2d(300).tocsr()
    x = np.random.default_rng(0).standard_normal(A.shape[0])

    def run():
        for _ in range(6):
            A @ x
    return run


KERNELS = {"lu": _lu_kernel, "spmv": _spmv_kernel}


class Speedometer:
    """Reference-kernel probes on a timer and the clock they define."""

    def __init__(self, kernels=("lu",), period_s: float = 0.1):
        self.period_s = period_s
        self._kernels = {name: KERNELS[name]() for name in kernels}
        self.paused = 0.0             # perf_counter() - now() outside a hold
        self.times: list[float] = []  # clock time of each probe
        self.slowness: list[float] = []
        self.durations: dict[str, list[float]] = {name: [] for name in kernels}
        self._running = False
        self._previous = None
        self._frozen = None

    def now(self) -> float:
        if self._frozen is not None:
            return self._frozen
        return time.perf_counter() - self.paused

    @contextlib.contextmanager
    def hold(self):
        """Stop the clock for the duration of the block, and the probes with it."""
        if self._frozen is not None:
            yield
            return
        self._frozen = self.now()
        try:
            yield
        finally:
            self.paused = time.perf_counter() - self._frozen
            self._frozen = None

    def probe(self) -> None:
        t0 = time.perf_counter()
        stamp = self.now()
        log_slowness = 0.0
        for name, run in self._kernels.items():
            a = time.perf_counter()
            run()
            d = time.perf_counter() - a
            self.durations[name].append(d)
            log_slowness += math.log(d / REFERENCE_S[name])
        self.times.append(stamp)
        self.slowness.append(math.exp(log_slowness / len(self._kernels)))
        if self._frozen is None:
            self.paused += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._running and self._frozen is None:
            self.probe()

    def start(self) -> None:
        """Probe now and then every period until `stop`."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._running = False
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.probe()

    def _speed(self, k: int) -> float:
        return 1.0 / statistics.median(self.slowness[max(0, k - NEIGHBOURS):k + NEIGHBOURS])

    def scaled(self, a: float, b: float) -> float:
        """Clock interval [a, b] at the reference speed."""
        if not self.slowness:
            return b - a
        i = bisect.bisect_right(self.times, a)
        j = bisect.bisect_left(self.times, b, lo=i)
        cuts = [a, *self.times[i:j], b]
        # the piece after cut n lies between probes i+n-1 and i+n
        return sum((hi - lo) * self._speed(i + n)
                   for n, (lo, hi) in enumerate(zip(cuts, cuts[1:])))

    def summary(self) -> dict:
        """Probe count, median kernel times (ms) and median slowness."""
        return {"probes": len(self.times),
                "kernel_ms_p50": {name: 1e3 * statistics.median(d)
                                  for name, d in self.durations.items() if d},
                "slowness_p50": statistics.median(self.slowness) if self.slowness else None}
