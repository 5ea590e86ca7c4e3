"""The suite's own pytest configuration: under filterwarnings = error, a
failing Hypothesis test is reported as one failure and the session goes
on to the next test; and numpy runs on one BLAS thread."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILING = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_failing_hypothesis_test_is_a_plain_failure(tmp_path):
    # the repo's pyproject.toml and conftest.py, in the same layout
    shutil.copy(REPO / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    shutil.copy(REPO / "tests" / "conftest.py", tmp_path / "tests")
    (tmp_path / "tests" / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_blas_runs_one_thread():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1", var
