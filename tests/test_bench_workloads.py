"""The benchmark's untraced passes at their tiny size.

The benchmark (bench/workloads.py) reads library state from outside: it
probes FlowOperators.stokes_reduced, stokes_saddle, reconstruct_pressure
and NavierStokesStepper.step, and after a run it reads FlowOperators'
M, V, emb, basis, hodge and config and HodgeSolver's M, E and V.  A
library change that drops one of these fails here, within tier-1, rather
than only in a benchmark run.  The traced passes are bench/test_bench.py's.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_untraced_pass_is_correct(name):
    result, details = workloads.run(name, 3, 0, False, size="tiny")
    assert result["correct"] and result["failed"] == 0, details["violations"]
