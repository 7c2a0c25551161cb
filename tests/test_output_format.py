"""The output format, pinned: file names, meta, plot and CSV header bytes of every bundle.

Each digest covers the files a command printed, in the order printed: the file
name, then the whole `_meta` and `_plot.json` and only the header line of each
CSV.  Those bytes hold parameters and text, not computed numbers, so the
digests do not depend on the BLAS or the floating-point unit.

The CSV rows are checked against a reference instead: the same columns
formatted cell by cell with "%.17g" %, which the block writer must match byte
for byte on every bundle, on a million seeded values and at block boundaries.
"""

import hashlib
import math
import pathlib

import numpy as np
import pytest

from sodw import _csv, cli
from sodw.cli import _write_bundle, main
from sodw.figures import FIGURE_IDS, Dataset, FigureData, figure_kind

_SMALL_GRID = {"trajectory": "11", "scan": "5", "surface": "3"}

_SCAN_CONFIG = (
    "swept=gamma\ngrid_lo=0\ngrid_hi=2\ngrid_n=5\nbeta=0.5\nV=1.5\nOmega=1\n"
    "epoch=-inf\na1_re=0.6\na3_re=0.8\nobservables=31,lr,42\nlabel=gscan\n"
)

_EVOLVE = [
    "evolve", "--protocol", "async", "--gamma", "2", "--epsilon", "0.4", "--upsilon", "1",
    "--chi", "1", "--engine", "exact", "--epoch=0", "--grid", "11", "--label", "gevolve",
]

_DIGESTS = {
    "1a": "29088cda5959725d928933da62762da7cf817e2f349ec13cd7b9aa83e617b75c",
    "1b": "d102f4471d183dd336dba7f1f9f27aa76733b874d3761935acff718526ce25dd",
    "1c": "a1cc976aba26a63e0f0e27fdd4ff4076b10c385d51c65e9233869b5597881b0f",
    "1d": "00412379f5f9adff6994f768abe7e2d898bf8d0a81f660f4cea2359e1a2ce884",
    "1e": "66326f0d669121433579b73bc1a3809c1ab0568d25eb165f6c37567e70500bc4",
    "1f": "6a574ee1a7be343669699c0c0eaa898e9af722353d6f3791362893e15176176e",
    "2a": "3e7ef71812e44a72ca694445237354cbb8433b0fe3f34438fc7431398a5d4fa2",
    "2b": "8ce4c86ca17d4477c1107cd78f4facfe1e1bbc003f1367bacbd3677aa68faefd",
    "2c": "e83b719023c9fefdf45964478ae5a6ff50a598add05dfff5d955be598fb29e2c",
    "3a": "0538cfd5a4900b4faaef8b3b883c30450549d448af099c752979c9054e4efdf1",
    "3b": "05554e89cc10d162c1266a0c3ba74a5c20aae99ff210db30b04d98118c83f305",
    "3c": "ba0829777ccdb2a31151d37b452ee22f697a7870783a284f06559d8aa308b193",
    "3d": "a1eeeaf729fff86a3a8aea0101f9b5322f66377fd4601f804d3da9843f056d92",
    "scan": "85c9f9d0cd59901a0abdb71281a269901e2118b18a87a33c2834f7bd2b2ad84b",
    "evolve": "6602e4364fe2883a568f0fa58f51e97b658054d31a1240c0bd42cc3b4fcbb2cc",
}


def _argv(bundle, tmp_path):
    if bundle == "scan":
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(_SCAN_CONFIG)
        return ["scan", "--config", str(cfg)]
    if bundle == "evolve":
        return list(_EVOLVE)
    return ["figure", "--id", bundle, "--grid", _SMALL_GRID[figure_kind(bundle)]]


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        if path.name.endswith("_data.csv"):
            data = data.split(b"\n", 1)[0]
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("bundle", FIGURE_IDS + ("scan", "evolve"))
def test_output_format_is_pinned(bundle, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_argv(bundle, tmp_path) + ["--out", str(out)]) == 0
    paths = [pathlib.Path(line) for line in capsys.readouterr().out.split()]
    assert _digest(paths) == _DIGESTS[bundle]


_EDGES = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-5, 0.1, 1e16, 1e17)


def test_csv_rows_are_17_significant_digits_and_text_as_is(tmp_path, capsys):
    numbers = np.array(_EDGES)
    tags = np.array([f"tag{k}" for k in range(numbers.size)])
    tables = (
        Dataset("edges", ("x", "tag", "minus_x"), (numbers, tags, -numbers)),
        Dataset("one", ("a", "b"), (np.array([0.1]), np.array([1e17]))),
    )
    assert _write_bundle(str(tmp_path), FigureData("w", tables, {}, {})) == 0
    for ds in tables:
        rows = zip(*(column.tolist() for column in ds.columns))
        lines = [",".join(ds.header)]
        lines += [",".join(v if isinstance(v, str) else "%.17g" % v for v in row) for row in rows]
        data = (tmp_path / f"{ds.name}_data.csv").read_bytes()
        assert data == ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "one_data.csv").read_text() == "a,b\n0.10000000000000001,1e+17\n"
    edges = (tmp_path / "edges_data.csv").read_text().splitlines()
    assert edges[1:3] == ["-0,tag0,0", "nan,tag1,nan"]
    assert edges[5] == "4.9406564584124654e-324,tag4,-4.9406564584124654e-324"


def _reference_csv(ds):
    """The CSV bytes of ds made row by row with one %-format, text as it is."""
    fmt = ",".join("%s" if column.dtype.kind == "U" else "%.17g" for column in ds.columns)
    rows = zip(*(column.tolist() for column in ds.columns), strict=True)
    lines = [",".join(ds.header)] + [fmt % row for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _written_csv(ds):
    return b"".join(_csv.csv_blocks(ds))


@pytest.mark.parametrize("bundle", FIGURE_IDS + ("scan", "evolve"))
def test_every_bundle_csv_matches_the_reference_rendering(bundle, tmp_path, monkeypatch):
    written = []

    def keep(out, data):
        written.append(data)
        return _write_bundle(out, data)

    monkeypatch.setattr(cli, "_write_bundle", keep)
    out = tmp_path / "out"
    assert main(_argv(bundle, tmp_path) + ["--out", str(out)]) == 0
    (data,) = written
    for ds in data.datasets:
        assert (out / f"{ds.name}_data.csv").read_bytes() == _reference_csv(ds), ds.name


def _fuzz_values():
    """About 10**6 seeded doubles: every exponent, powers of ten, decimals, ties, edges."""
    rng = np.random.default_rng(20240518)
    bits = rng.integers(0, 2**64, size=600_000, dtype=np.uint64)
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    near, up, down = [powers], powers, powers
    for _ in range(3):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        near += [up, down]
    mantissas = rng.integers(1, 10 ** rng.integers(1, 18, size=150_000)).tolist()
    exponents = rng.integers(-40, 40, size=len(mantissas)).tolist()
    decimals = [float(f"{m}e{e}") for m, e in zip(mantissas, exponents)]
    subnormal = rng.integers(1, 2**52, size=20_000, dtype=np.uint64).view(np.float64)
    # exact rounding ties: odd multiples of 2**-m with 18 significant digits, the last a 5
    ties = []
    for m in range(3, 25):
        low = -(-(2**m * 10**17) // 10**m)
        ties.append((2 * rng.integers(low // 2, 5 * low, size=1000) + 1) * 2.0**-m)
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-07, 5e-324, 2.2250738585072014e-308]
    return np.concatenate([
        bits.view(np.float64),
        *near,
        np.array(decimals),
        2.0**53 + np.arange(-10_000, 10_000),
        2.0**63 + 2048.0 * np.arange(-10_000, 10_000),
        subnormal,
        -subnormal,
        *ties,
        np.array(edges),
        rng.uniform(-2.0, 2.0, size=100_000),
        rng.uniform(0.0, 1.0, size=100_000),
    ])


def test_a_million_values_match_the_reference_rendering():
    values = _fuzz_values()
    assert values.size >= 10**6
    ds = Dataset("fuzz", ("x",), (values,))
    written, reference = _written_csv(ds), _reference_csv(ds)
    if written != reference:
        pairs = zip(written.split(b"\n"), reference.split(b"\n"))
        bad = [(w, r) for w, r in pairs if w != r]
        pytest.fail(f"{len(bad)} mismatches, first {bad[:3]}")
    # log10 of the double nearest 1e-07 is -7, but the double is just below it
    one = Dataset("one", ("x",), (np.array([1e-07]),))
    assert _written_csv(one) == b"x\n9.9999999999999995e-08\n"


@pytest.mark.parametrize("columns", [1, 3, 41])
def test_block_boundaries_match_the_reference_rendering(columns):
    step = _csv._BLOCK_CELLS // columns
    rng = np.random.default_rng(columns)
    for rows in (1, step - 1, step, step + 1, 2 * step + 1):
        table = rng.standard_normal((columns, rows)) * 10.0 ** rng.integers(-30, 30, (columns, 1))
        ds = Dataset("block", tuple(f"c{j}" for j in range(columns)), tuple(table))
        blocks = list(_csv.csv_blocks(ds))
        assert len(blocks) == 1 + -(-rows // step)
        assert b"".join(blocks) == _reference_csv(ds), rows


def test_narrow_table_with_text_matches_the_reference_rendering():
    rows = _csv._BLOCK_CELLS // 4 + 1
    rng = np.random.default_rng(7)
    engines = np.array(["sync-exact", "oracle", "", "\u00fcber"])[rng.integers(0, 4, rows)]
    columns = (rng.uniform(0, 4, rows), engines, rng.uniform(-1, 1, rows), engines)
    ds = Dataset("text", ("param", "engine", "Z31_inf", "label"), columns)
    assert _written_csv(ds) == _reference_csv(ds)
    uneven = Dataset("uneven", ("a", "b"), (np.zeros(3), np.zeros(2)))
    with pytest.raises(ValueError, match="unequal length"):
        _written_csv(uneven)
