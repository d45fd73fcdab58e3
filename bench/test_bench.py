"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Every workload runs untraced and traced at its tiny size; every metric named
in BENCHMARK.json must appear with its unit, the gate must pass on the
program as it is and must fail when an invariant violation is planted, and
exact counts must repeat between runs with the same seed.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from surfhodge.flow import FlowOperators  # noqa: E402
from surfhodge.hodge import HodgeSolver  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

NAMES = [w["name"] for w in SPEC["workloads"]]


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def tiny(name, trace, seed=3):
    return workloads.run(name, seed, 0, trace, size="tiny")


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    result, details = tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, details["violations"]
    assert result["attempted"] >= 1
    want = expected_units("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert details["count_mismatches"] == []
        assert details["missing_factor_stats"] == []
        for layer in ("mesh", "fespace", "assembly", "linalg", "hodge"):
            assert details["layers"][f"{layer}.self_s"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(name):
    a = tiny(name, True)[1]
    b = tiny(name, True)[1]
    assert a["counts"] == b["counts"]
    assert a["trace_counts"] == b["trace_counts"]


def test_scaled_times_follow_the_probes():
    sm = speed.Speedometer()
    # probes at t = 0..9 report a host twice as slow as the reference
    # until t = 5 and at the reference speed after it
    sm.times = [float(t) for t in range(10)]
    sm.slowness = [2.0] * 5 + [1.0] * 5
    assert sm.scaled(0.5, 0.7) == pytest.approx(0.1)
    assert sm.scaled(8.2, 8.7) == pytest.approx(0.5)
    assert sm.scaled(0.0, 1.0) == pytest.approx(0.5)
    # a piece between probes 4 and 5 takes the median of probes 2..7
    assert sm.scaled(4.0, 5.0) == pytest.approx(1 / 1.5)


def test_clock_leaves_out_probes_and_holds():
    sm = speed.Speedometer(period_s=0.02)
    handler = signal.getsignal(signal.SIGALRM)
    sm.start()
    try:
        t0, wall0 = sm.now(), time.perf_counter()
        while time.perf_counter() - wall0 < 0.3:
            sum(range(1000))
        with sm.hold():
            held = sm.now()
            time.sleep(0.05)
            assert sm.now() == held
        t1, wall1 = sm.now(), time.perf_counter()
    finally:
        sm.stop()
    assert len(sm.times) >= 4
    probed = sum(sm.durations["lu"][1:-1])
    assert t1 - t0 == pytest.approx(wall1 - wall0 - probed - 0.05, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) == handler


def _perturb_gradient(original):
    def decompose(self, v, basis):
        comp = original(self, v, basis)
        comp.gradient_part = comp.gradient_part * (1 + 1e-6)
        return comp
    return decompose


def _perturb_saddle(original):
    def stokes_saddle(self, *args, **kwargs):
        u, p = original(self, *args, **kwargs)
        u.coefficients[:] *= 1 + 1e-6
        return u, p
    return stokes_saddle


def _perturb_load(original):
    def load_vector(self, t):
        return original(self, t) * (1 + 1e-6)
    return load_vector


@pytest.mark.parametrize("name, cls, attr, plant", [
    ("hodge_pierced_k3", HodgeSolver, "decompose", _perturb_gradient),
    ("stokes_torus_k2", FlowOperators, "stokes_saddle", _perturb_saddle),
    ("nse_trefoil", FlowOperators, "load_vector", _perturb_load),
])
def test_planted_violation_raises_error_rate(monkeypatch, name, cls, attr, plant):
    monkeypatch.setattr(cls, attr, plant(vars(cls)[attr]))
    result, details = tiny(name, False)
    assert result["failed"] >= 1
    assert not result["correct"]
    assert details["violations"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
