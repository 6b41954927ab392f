"""The mutant list of tools/mutants.py still applies to the code it mutates.

Running the mutants takes minutes and stays outside this suite; this checks
only that each entry's old text occurs exactly once in its file and that its
killers still exist (each name after a test file is a class or function
defined in it), so that the list cannot rot unnoticed.
"""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    assert mutant.path.startswith("src/")
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    for killer in mutant.killers:
        path, *names = killer.split("::")
        assert (ROOT / path).is_file(), killer
        source = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            name = name.split("[")[0]
            assert re.search(rf"^\s*(class|def) {name}\b", source, re.MULTILINE), killer
