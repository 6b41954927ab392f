"""The README's examples run as written: every ```python block of README.md,
and its `run` and `blowup1d` ```ini config blocks, with t_end shortened.
And every config key that the program reads is named in README.md."""

import ast
import pathlib
import re

import pytest

from dpmflow.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
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


ACCESSORS = {"get_str", "get_float", "get_int", "get_bool", "get_float_list", "get_int_list",
             "_in_range"}


def config_keys():
    """Every config key that src/dpmflow reads, found in its accessor calls.

    A literal key counts as it stands.  A key that is a parameter of the
    function around the call (`key`), or an f-string on one
    (`f"{prefix}.amplitude"`), is filled in with each string literal that a
    call of that function passes there: `_snapshot_input(cfg, "initial.path")`
    gives initial.path, and `_mode_field(cfg, "forcing", domain)` gives
    forcing.amplitude and the rest of its keys.
    """
    literal, templates, calls = set(), {}, []
    for path in sorted((ROOT / "src" / "dpmflow").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.append(node)
            if not isinstance(node, ast.FunctionDef):
                continue
            params = [a.arg for a in node.args.args]
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                name = getattr(func, "attr", getattr(func, "id", None))
                if name not in ACCESSORS:
                    continue
                key = call.args[1 if name == "_in_range" else 0]
                if isinstance(key, ast.Constant):
                    literal.add(key.value)
                    continue
                suffix = ""
                if isinstance(key, ast.JoinedStr):  # f"{param}.suffix"
                    key, suffix = key.values[0].value, key.values[1].value
                if isinstance(key, ast.Name) and key.id in params:
                    templates.setdefault(node.name, set()).add((params.index(key.id), suffix))
    filled = {call.args[index].value + suffix
              for call in calls if call.func.id in templates
              for index, suffix in templates[call.func.id]
              if index < len(call.args) and isinstance(call.args[index], ast.Constant)}
    return literal | filled


def missing_keys(text):
    return sorted(key for key in config_keys()
                  if not re.search(rf"(?<![\w.]){re.escape(key)}(?![\w])", text))


def test_config_keys_are_found():
    keys = config_keys()
    assert {"domain.n", "output.csv", "initial.path", "forcing.wavevector",
            "blowup.l2_norm", "sweep.workers"} <= keys
    assert not {"initial.path.amplitude", "forcing.spectrum_decay"} & keys


def test_readme_names_every_config_key():
    assert missing_keys(TEXT) == []


def test_a_key_left_out_of_the_readme_is_missed():
    assert missing_keys(TEXT.replace("diagnostics.ball_p", "")) == ["diagnostics.ball_p"]
