"""The README's examples run as written: every ```python block of README.md,
and its `run` and `blowup1d` ```ini config blocks, with t_end shortened."""

import pathlib
import re

import pytest

from dpmflow.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
CONFIGS = re.findall(r"^```ini\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md, python block {index}", "exec"), {})


@pytest.mark.parametrize("command, key, t_end", [
    ("run", "solver.t_end", "0.25"),
    ("blowup1d", "blowup.t_end", "0.1"),
])
def test_readme_config_block_runs(command, key, t_end, tmp_path, monkeypatch):
    # the one block that sets key, with t_end shortened; a retired or
    # misspelt key in it exits 4
    line = re.compile(rf"^{re.escape(key)} = .*$", re.MULTILINE)
    [block] = [block for block in CONFIGS if line.search(block)]
    (tmp_path / "readme.cfg").write_text(line.sub(f"{key} = {t_end}", block))
    monkeypatch.chdir(tmp_path)
    assert main([command, "readme.cfg"]) == 0
