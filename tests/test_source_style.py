"""Conventions of the source tree that no linter here enforces."""

import pathlib

import pytest

_ROOT = pathlib.Path(__file__).parents[1]
# perfbench/ is the benchmark's own tree and keeps its own conventions
_DIRS = ("src/sodw", "tests", "demos")
_SOURCES = [path for d in _DIRS for path in sorted((_ROOT / d).glob("*.py"))]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_source_lines_fit_in_100_columns(path):
    lines = path.read_text().splitlines()
    long = [f"{path.name}:{n}" for n, line in enumerate(lines, start=1) if len(line) > 100]
    assert not long, f"lines longer than 100 columns: {', '.join(long)}"
