"""The output format, pinned: file names, meta, plot and CSV header bytes of every bundle.

Each digest covers the files a command printed, in the order printed: the file
name, then the whole `_meta` and `_plot.json` and only the header line of each
CSV.  Those bytes hold parameters and text, not computed numbers, so the
digests do not depend on the BLAS or the floating-point unit.
"""

import hashlib
import pathlib

import pytest

from sodw.cli import main
from sodw.figures import FIGURE_IDS, figure_kind

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
