"""tools/outputs.py: one matrix run twice writes one tree, and --compare names what moved."""

import importlib.util
import pathlib

_TOOL = pathlib.Path(__file__).parents[1] / "tools" / "outputs.py"
_SPEC = importlib.util.spec_from_file_location("outputs", _TOOL)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)


def test_a_figure_subset_written_twice_gives_one_tree(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        outputs.write_tree(tree, outputs.figure_runs(("1d", "3c")))
    assert outputs.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0 of 8 files differ\n"
    manifest = (a / "MANIFEST").read_text()
    assert manifest == (b / "MANIFEST").read_text()
    kinds = ("data.csv", "meta", "plot.json")
    files = [f"figures/{i}_{kind}" for i in ("1d", "3c") for kind in kinds]
    files += ["runs/figure_1d.txt", "runs/figure_3c.txt"]
    assert [line.split("  ")[1] for line in manifest.splitlines()] == files
    record = (a / "runs" / "figure_1d.txt").read_text()
    assert record.startswith("argv: figure --id 1d --out figures\nexit: 0\n--- stdout\n")
    assert "figures/1d_data.csv\n" in record and record.endswith("--- stderr\n")

    # one moved cell and one changed record are each named, the cell with its column's |delta|
    data = b / "figures" / "1d_data.csv"
    header, first, *rest = data.read_text().splitlines()
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) + 0.25)
    data.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    (b / "runs" / "figure_3c.txt").write_text(record)
    report = outputs.compare(a, b)
    assert report[0] == "differs: figures/1d_data.csv: P1 0.25"
    assert report[1].startswith("differs: runs/figure_3c.txt\n")
    assert outputs.main(["--compare", str(a), str(b)]) == 1
