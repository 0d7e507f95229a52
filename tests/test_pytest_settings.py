"""The test settings in pyproject.toml: a failing property test must not end the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_property_test_leaves_the_next_test_running(tmp_path):
    # hypothesis's failure report raises a DeprecationWarning from mypy_extensions; under a bare
    # filterwarnings = error that is an INTERNALERROR which stops the session after "1 failed"
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), str(tmp_path / "test_pair.py")]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
