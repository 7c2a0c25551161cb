"""Every demo script and the README quickstart run to their end against the current API."""

import importlib
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


_MODULES = ("core", "sync", "asynchronous", "oracle", "analysis", "figures", "acceptance", "cli")


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    # tools that walk a module's public surface look each __all__ name up,
    # so a name left there after its definition is gone breaks them
    module = importlib.import_module(f"sodw.{name}")
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []
