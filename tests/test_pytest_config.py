"""The project's pytest settings, run on a suite of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_suite_goes_on(tmp_path):
    # On a failure Hypothesis imports libcst to print a patch, which warns
    # through mypy_extensions; a warning turned into an error there used
    # to end the session with an INTERNALERROR before the next test ran.
    (tmp_path / "test_tiny.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_tiny.py::test_fails" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
