"""The suite's own pytest settings report every failure of a run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_FAILURES = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 0


def test_plain():
    assert 1 == 2
"""


def test_a_falsified_property_does_not_hide_a_later_failure(tmp_path):
    # Hypothesis's failure report raises a DeprecationWarning in some
    # environments; under filterwarnings = error it must not abort the run.
    (tmp_path / "test_two.py").write_text(TWO_FAILURES, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED test_two.py::test_falsified" in output
    assert "FAILED test_two.py::test_plain" in output
    assert "2 failed" in run.stdout.splitlines()[-1]
