"""The identity table of `dpmflow verify` (verify._cases), one test per identity."""

import pytest

from dpmflow.verify import _cases

CASES = _cases()


@pytest.mark.parametrize("check", [fn for _, fn in CASES], ids=[name for name, _ in CASES])
def test_identity(check):
    ok, detail = check()
    assert ok, detail
