"""The test run's own configuration (pyproject.toml's pytest section)."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_deliberately_fails(n):
    assert n != n


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    """filterwarnings = error turns the DeprecationWarning that Hypothesis's
    report hook raises for a failing @given test (mypy_extensions.TypedDict)
    into an INTERNALERROR that ends the whole run.  Under the project's
    configuration the failure stays an ordinary one and later tests run."""
    (tmp_path / "test_probe.py").write_text(_PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def test_relabelling_property_tests_are_derandomized():
    """tests/test_invariance.py's property tests build meshes and factors
    from their examples.  Derandomized, every run draws the same examples,
    so two runs build the same factors and a failure there reproduces."""
    import test_invariance

    tests = [f for f in vars(test_invariance).values() if hasattr(f, "hypothesis")]
    assert len(tests) == 2
    assert all(f._hypothesis_internal_use_settings.derandomize for f in tests)
