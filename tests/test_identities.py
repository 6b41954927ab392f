"""The identity table of `dpmflow verify` (verify._cases), one test per identity."""

import pytest

from dpmflow.verify import _cases

CASES = _cases()


@pytest.mark.parametrize("check", [fn for _, fn in CASES], ids=[name for name, _ in CASES])
def test_identity(check):
    ok, detail = check()
    assert ok, detail


def test_case_names_are_unique():
    # the names are the test ids, which tools/mutants.py names as killers
    names = [name for name, _ in CASES]
    assert len(set(names)) == len(names)
