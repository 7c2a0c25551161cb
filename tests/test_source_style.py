"""Conventions of the source tree that no linter here enforces."""

import ast
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).parents[1]
# perfbench/ is the benchmark's own tree and keeps its own conventions
_DIRS = ("src/sodw", "tests", "demos", "tools")
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


def _linalg_inversions(path):
    """Lines of path that call or import a linear-system solve or a matrix inverse."""
    tree = ast.parse(path.read_text())
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("solve", "inv"):
            if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name in ("solve", "inv") for alias in node.names):
                lines.append(node.lineno)
    return [f"{path.name}:{n}" for n in lines]


def test_closed_forms_solve_no_linear_system():
    # each engine's modes() gives the exact constants of a state from its own structure
    paths = sorted((_ROOT / "src/sodw").glob("*.py"))
    uses = [use for path in paths for use in _linalg_inversions(path)]
    assert not uses, f"linalg solve or inv in src/sodw: {', '.join(uses)}"


_DRIVE_CLASSES = {"SyncSech2", "AsyncTanhSech"}


def _drive_class_tests(path):
    """Lines of path that call isinstance with a drive class among its classes."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1:] if len(node.args) == 2 else []
            nodes = [n for c in classes for n in ast.walk(c)]
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in nodes}
            if names & _DRIVE_CLASSES:
                lines.append(node.lineno)
    return [f"{path.name}:{n}" for n in lines]


def test_no_module_tests_the_drive_class():
    # each drive names its RATE and KIND, and its engine's route() gates it, so
    # a new drive class is taught in one place
    paths = sorted((_ROOT / "src/sodw").glob("*.py"))
    uses = [use for path in paths for use in _drive_class_tests(path)]
    assert not uses, f"isinstance of a drive class in src/sodw: {', '.join(uses)}"


def _top_level_names(tree):
    """Names a module binds at its top level: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _exported_names(tree):
    """The literal __all__ of a module, or () when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


@pytest.mark.parametrize(
    "path", sorted((_ROOT / "src/sodw").glob("*.py")), ids=lambda path: path.name
)
def test_every_name_in_all_is_bound_in_its_module(path):
    # perfbench/tracing.py wraps each __all__ name through getattr, so a name
    # left there after its definition is gone crashes every traced run
    tree = ast.parse(path.read_text())
    unbound = sorted(set(_exported_names(tree)) - _top_level_names(tree))
    assert not unbound, f"{path.name} exports names it does not bind: {', '.join(unbound)}"
