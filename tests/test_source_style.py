"""Conventions of the source tree that no linter here enforces."""

import ast
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


def _stderr_uses(path):
    """Lines of path that name sys.stderr, leaving out those inside cli.main."""
    tree = ast.parse(path.read_text())
    allowed = set()
    if path.name == "cli.py":
        (main,) = (node for node in tree.body if getattr(node, "name", None) == "main")
        allowed = set(range(main.lineno, main.end_lineno + 1))
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    ]
    return [f"{path.name}:{n}" for n in uses if n not in allowed]


def test_only_cli_main_writes_to_stderr():
    # every refusal is a ValueError; cli.main alone prints it and exits 2
    uses = [use for path in sorted((_ROOT / "src/sodw").glob("*.py")) for use in _stderr_uses(path)]
    assert not uses, f"sys.stderr outside cli.main: {', '.join(uses)}"
