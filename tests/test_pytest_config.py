import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_GIVEN_TEST = """\
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_always_fails(x):
    assert x != x
"""


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(
        tmp_path):
    # On a failure hypothesis may import libcst, whose own
    # DeprecationWarning the config's error::DeprecationWarning would turn
    # into an INTERNALERROR (exit 3) that hides every later test.
    (tmp_path / "test_fails.py").write_text(FAILING_GIVEN_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir",
         str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
