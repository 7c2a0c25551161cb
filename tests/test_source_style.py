"""Conventions of the source tree that no linter here enforces."""

import pathlib

import pytest

_SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "sodw").glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_source_lines_fit_in_100_columns(path):
    lines = path.read_text().splitlines()
    long = [f"{path.name}:{n}" for n, line in enumerate(lines, start=1) if len(line) > 100]
    assert not long, f"lines longer than 100 columns: {', '.join(long)}"
