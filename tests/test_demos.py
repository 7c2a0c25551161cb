"""Every demo script runs to its end against the current API."""

import pathlib
import runpy
import sys

import pytest

_DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(_DEMOS) == 4


@pytest.mark.parametrize("path", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
