"""A failing property is reported like any other failure, and the run goes on."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING_MODULE = '''\
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_property_that_fails(n):
    assert n < 5


def test_plain_test_that_fails():
    assert False


def test_plain_test_that_passes():
    pass
'''


def test_failing_property_and_plain_test_are_both_reported(tmp_path):
    # hypothesis reports a failing property through a module that warns of
    # a deprecation when first imported; under this suite's warning filters
    # and conftest both failures must be reported, and the session finish
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    (tmp_path / "test_failing.py").write_text(FAILING_MODULE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    # run in tmp_path, so that hypothesis's .hypothesis/patches stay there
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout  # tests failed, the session did not
    assert "2 failed, 1 passed" in proc.stdout
