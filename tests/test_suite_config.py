"""The suite's own pytest configuration: a failing property must report
its falsifying example under ``filterwarnings = ["error"]``."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    # the repo's config, rooted in tmp_path, so no other test is collected
    (tmp_path / "pyproject.toml").write_text(PYPROJECT.read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    # exit code 3 is INTERNALERROR: the report itself failed
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
