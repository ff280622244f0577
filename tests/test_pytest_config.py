"""The repository's pytest settings, run on a throwaway test module in a child session."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_on_some_integer(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # Reporting a failing example imports libcst, whose import warns
    # DeprecationWarning; under the error:: filters alone that warning was an
    # INTERNALERROR that ended the session after the first failure.
    module = tmp_path / "test_child.py"
    module.write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "-q", str(module),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
    assert proc.returncode == 1
