"""Every output of one fixed matrix of sodw runs, and what differs between two such trees.

    python tools/outputs.py --out DIR        # run the matrix, write every file and DIR/MANIFEST
    python tools/outputs.py --compare A B    # list each file that differs between two trees

Run --out from the root of a sodw checkout: it imports sodw from ./src and
the scan configurations from ./perfbench/workloads.py, so the same tool run
from two checkouts writes two trees that --compare can set side by side.

The matrix runs sodw.cli.main in-process, one command line after another:

* `sodw figure` for each of the 13 figure ids, at the default grid;
* `sodw scan` on every configuration of the scan_exact and scan_oracle
  workloads at seeds 1 and 2 (their config files are written into the tree);
* `sodw evolve --grid 201` on five drives (sync (beta, V, Omega) in
  {(0, 1, 1), (0.5, 1.2, 0.8), (2, 0.7, 1.5)}, async (epsilon, upsilon, chi)
  in {(0.3, 1, 1), (0.4, hypot(0.5, 0.4), 1)}) x gamma in {0.5, 1, 2, 0.3,
  1e8} x `--epoch=-inf|0|-2` x `--engine exact|oracle|both`, 225 runs;
* `sodw verify`.

Each run works in DIR, so every path it prints is relative, and leaves
runs/<name>.txt with its command line, exit code, stdout and stderr; the
`[...s]` times of the verify lines are stripped.  MANIFEST holds one
`<sha256>  <path>` line per file.  --compare prints each file found in one
tree only or differing between the two, with the largest |delta| of each
numeric column of a differing CSV (so a move at round-off shows as one) and
the changed lines of any other text file, and exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import difflib
import hashlib
import io
import itertools
import math
import os
import pathlib
import re
import sys
import warnings

SEEDS = (1, 2)
_DRIVES = {
    "sync1": ["--protocol", "sync", "--beta", "0", "--V", "1", "--Omega", "1"],
    "sync2": ["--protocol", "sync", "--beta", "0.5", "--V", "1.2", "--Omega", "0.8"],
    "sync3": ["--protocol", "sync", "--beta", "2", "--V", "0.7", "--Omega", "1.5"],
    "async1": ["--protocol", "async", "--epsilon", "0.3", "--upsilon", "1", "--chi", "1"],
    "async2": ["--protocol", "async", "--epsilon", "0.4"]
    + ["--upsilon", repr(math.hypot(0.5, 0.4)), "--chi", "1"],
}
_GAMMAS = ("0.5", "1", "2", "0.3", "1e8")
_EPOCHS = {"minf": "-inf", "0": "0", "m2": "-2"}
_ENGINES = ("exact", "oracle", "both")
_TIMES = re.compile(r" \[\d+\.\d+s\]$", re.M)
MANIFEST = "MANIFEST"
#: --compare shows at most this many changed lines of a text file
DIFF_LINES = 12


def figure_runs(ids=None):
    """(name, argv) of `sodw figure` for each id (default: every id), all written to figures/."""
    if ids is None:
        from sodw.figures import FIGURE_IDS as ids
    return [(f"figure_{i}", ["figure", "--id", i, "--out", "figures"]) for i in ids]


def _scan_runs():
    """(name, argv) of each scan workload configuration; writes its config file here."""
    import workloads

    runs = []
    for workload, seed in itertools.product((workloads.ScanExact, workloads.ScanOracle), SEEDS):
        out = f"{workload.name}/seed{seed}"
        os.makedirs(out)
        scans = workload(out, seed)
        names = (f"{workload.name}_seed{seed}_{cfg['label']}" for cfg in scans.scans)
        runs += zip(names, scans.argvs)
    return runs


def _evolve_runs():
    runs = []
    for (drive, flags), gamma, (epoch, value), engine in itertools.product(
        _DRIVES.items(), _GAMMAS, _EPOCHS.items(), _ENGINES
    ):
        label = f"{drive}_g{gamma}_e{epoch}_{engine}"
        argv = ["evolve", *flags, "--gamma", gamma, f"--epoch={value}", "--engine", engine]
        argv += ["--grid", "201", "--label", label, "--out", "evolve"]
        runs.append((f"evolve_{label}", argv))
    return runs


def matrix(out):
    """(name, argv) of every run of the matrix, paths relative to out, where the configs go."""
    with contextlib.chdir(out):
        return figure_runs() + _scan_runs() + _evolve_runs() + [("verify", ["verify"])]


def _run(argv):
    """(exit code, stdout, stderr) of sodw.cli.main(argv), warnings shown as in a new process."""
    from sodw.cli import main

    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("default")
        code = main(argv)
    return code, _TIMES.sub("", out.getvalue()), err.getvalue()


def _files(root):
    """Every file under root but the MANIFEST, as sorted relative posix paths."""
    root = pathlib.Path(root)
    paths = (p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    return sorted(p for p in paths if p != MANIFEST)


def write_tree(out, runs):
    """Run each (name, argv) in out, record it under out/runs, and write out/MANIFEST."""
    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    with contextlib.chdir(out):
        for name, argv in runs:
            code, stdout, stderr = _run(argv)
            record = f"argv: {' '.join(argv)}\nexit: {code}\n"
            record += f"--- stdout\n{stdout}--- stderr\n{stderr}"
            pathlib.Path("runs", f"{name}.txt").write_text(record)
    lines = []
    for path in _files(out):
        digest = hashlib.sha256(pathlib.Path(out, path).read_bytes()).hexdigest()
        lines.append(f"{digest}  {path}\n")
    pathlib.Path(out, MANIFEST).write_text("".join(lines))


def _csv_deltas(a, b):
    """Text on the largest |delta| of each numeric column that differs between two CSVs."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        (head_a, *rows_a), (head_b, *rows_b) = csv.reader(fa), csv.reader(fb)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return f"header or row count differs ({len(rows_a)} and {len(rows_b)} rows)"
    worst = dict.fromkeys(head_a, 0.0)
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(head_a, row_a, row_b):
            if x != y:
                try:
                    delta = abs(float(x) - float(y))
                except ValueError:  # a text cell, such as a scan's engine
                    delta = math.inf
                worst[name] = delta if math.isnan(delta) else max(worst[name], delta)
    return ", ".join(f"{name} {delta:.2g}" for name, delta in worst.items() if delta != 0.0)


def _text_delta(a, b):
    """The first changed lines of two text files, as a unified diff without context."""
    lines = [pathlib.Path(p).read_text().splitlines() for p in (a, b)]
    diff = list(difflib.unified_diff(*lines, lineterm="", n=0))[2:]
    shown = diff[:DIFF_LINES] + (["..."] if diff[DIFF_LINES:] else [])
    return "\n".join("    " + line for line in shown)


def compare(a, b):
    """Lines naming each file in one tree only or differing between trees a and b."""
    files_a, files_b = set(_files(a)), set(_files(b))
    report = [f"only in {a}: {path}" for path in sorted(files_a - files_b)]
    report += [f"only in {b}: {path}" for path in sorted(files_b - files_a)]
    for path in sorted(files_a & files_b):
        pa, pb = pathlib.Path(a, path), pathlib.Path(b, path)
        if pa.read_bytes() == pb.read_bytes():
            continue
        if path.endswith(".csv"):
            report.append(f"differs: {path}: {_csv_deltas(pa, pb)}")
        else:
            report.append(f"differs: {path}\n{_text_delta(pa, pb)}")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="DIR", help="run the matrix and write its tree to DIR")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two trees")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = args.compare
        for tree in (a, b):
            if not os.path.isdir(tree):
                parser.error(f"{tree} is not a directory")
        report = compare(a, b)
        total = len(set(_files(a)) | set(_files(b)))
        print("\n".join(report + [f"{len(report)} of {total} files differ"]))
        return 1 if report else 0
    src = os.path.abspath("src")
    sys.path[:0] = [src, os.path.abspath("perfbench")]
    import sodw

    if os.path.dirname(os.path.abspath(sodw.__file__)) != os.path.join(src, "sodw"):
        parser.error(f"imported sodw from {sodw.__file__}, not from {src}")
    if os.path.exists(args.out) and os.listdir(args.out):
        parser.error(f"{args.out} must be a new or empty directory")
    os.makedirs(args.out, exist_ok=True)
    write_tree(args.out, matrix(args.out))
    print(f"{len(_files(args.out))} files under {args.out}, listed in {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
