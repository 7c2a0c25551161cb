"""Every demo script and the README quickstart run to their end against the current API."""

import importlib
import inspect
import math
import pathlib
import re
import runpy
import sys

import numpy as np
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


# perfbench/tracing.py hooks these functions by name, reads the grid of
# integrate by its parameter name or position, counts nfev at
# sodw.oracle.solve_ivp and tallies the scan points of each engine by the
# engine names of the rows
_TRACED = (
    ("oracle", "integrate"),
    ("sync", "eigen_sync"),
    ("analysis", "run_scan"),
    ("acceptance", "run_all"),
)


def test_traced_functions_and_engine_names_stay():
    for module, name in _TRACED:
        assert name in importlib.import_module(f"sodw.{module}").__all__, f"{module}.{name}"
    from sodw import oracle
    from sodw.analysis import ScanSpec, run_scan
    from sodw.core import SyncSech2

    assert list(inspect.signature(oracle.integrate).parameters)[4] == "sample_grid"
    idle = oracle.BatchRate([0.5], SyncSech2(0.0, 0.0, 1.0), np.zeros(1), np.ones(1))
    sol = oracle.solve_ivp(idle, (0.0, 1.0), np.ones(4), t_eval=[1.0], rtol=1e-6, atol=1e-8)
    assert sol.nfev > 0

    flip = {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0}
    specs = [
        ScanSpec("beta", [0.0, 1.0], {"gamma": 0.5, "V": 1.0, "Omega": 1.0}, (0, 0, 1, 0)),
        ScanSpec("gamma", [0.0, 0.3, 0.5], flip, (0, 0, 1, 0)),
        # the oracle row fails by its epoch; the closed-form row at gamma = 0 is solved
        ScanSpec("gamma", [0.0, 0.3], flip, (0, 0, 1, 0), epoch=1e300),
    ]
    for spec in specs:
        for row in run_scan(spec).rows:
            assert row.engine in ("sync-exact", "async-exact", "oracle"), row
    assert [row.engine for row in run_scan(specs[-1]).rows if row.error] == ["oracle"]
