"""Every demo script and the README quickstart run to their end against the current API."""

import pathlib
import re
import runpy
import sys

import pytest

_ROOT = pathlib.Path(__file__).parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(_DEMOS) == 4


@pytest.mark.parametrize("path", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quickstart_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.S)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()
