"""A failing hypothesis property must be reported as a failed test.

The suite turns every warning into an error (``filterwarnings`` in
``pyproject.toml``).  When a property fails, hypothesis's pytest plugin
imports ``libcst`` where it is installed, and libcst's use of
``mypy_extensions.TypedDict`` warns; without the one ``ignore`` entry for
that warning, the failure would end the run as a pytest INTERNALERROR with
no falsifying example.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout
