"""Command-line front end: files, determinism, refusal paths, exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from sodw.cli import build_parser, main

_E3_HEADER = "t,P1,P2,P3,P4,Z31,Z32,ZLR,norm2"

# a child python imports sodw from this checkout's src, as the tests do
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_CHILD_PATH = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
_CHILD_ENV = {**os.environ, "PYTHONPATH": _CHILD_PATH}


def _read_meta(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _csv_table(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_one_parser_serves_every_call(capsys):
    assert build_parser() is build_parser()
    # a refused command leaves the parser as it was for the next
    with pytest.raises(SystemExit):
        main(["figure", "--id", "9z"])
    assert main(["classify", "--upsilon", "2", "--chi", "1"]) == 0
    assert capsys.readouterr().out.strip() == "CCPC (async, spin-conserving)"


def test_classify_sync_ccpc(capsys):
    assert main(["classify", "--V", repr(math.pi / 2), "--Omega", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "sync: CCPC n=1 (beta residual 0, grid residual 0)"


def test_classify_sync_neither(capsys):
    assert main(["classify", "--V", "1", "--Omega", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("sync: neither CCPC nor CCPI")
    assert "pulse-area ratio 2" in out


def test_classify_async_and_flip_constraint(capsys):
    ups = math.hypot(0.5, 0.4)
    code = main(["classify", "--epsilon", "0.4", "--upsilon", repr(ups), "--chi", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("async (spin-conserving): neither")
    assert lines[1] == "flip-constraint satisfied, residual 0"
    # the gate's verdict, within 1e-9, on each side of the tolerance
    for upsilon, line in (
        ("0.640312423", "flip-constraint satisfied, residual 9.51869e-10"),
        ("0.6403124", "flip-constraint violated, residual 3.04062e-08"),
        ("1.5", "flip-constraint violated, residual -1.84"),
    ):
        assert main(["classify", "--epsilon", "0.4", "--upsilon", upsilon, "--chi", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == line

    assert main(["classify", "--upsilon", "2", "--chi", "1"]) == 0
    assert capsys.readouterr().out.strip() == "CCPC (async, spin-conserving)"

    assert main(["classify", "--upsilon", "1.5", "--chi", "1"]) == 0
    assert capsys.readouterr().out.strip() == "CCPI (async, spin-conserving)"


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--V", "inf", "--Omega", "1"], "V"),
        (["--V", "nan", "--Omega", "1"], "V"),
        (["--beta", "nan", "--V", "1", "--Omega", "1"], "beta"),
        (["--Omega", "inf", "--V", "1"], "Omega"),
        (["--upsilon", "inf", "--chi", "1"], "upsilon"),
        (["--upsilon", "nan", "--chi", "1"], "upsilon"),
        (["--upsilon", "1", "--chi", "inf"], "chi"),
        (["--upsilon", "1", "--chi", "1", "--epsilon", "nan"], "epsilon"),
        (["--V", "1", "--Omega", "1", "--upsilon", "1", "--chi", "1", "--epsilon=-inf"], "epsilon"),
    ],
)
def test_classify_refuses_what_is_not_finite_by_name(argv, name, capsys):
    # these used to print a classification, or die on an OverflowError or a
    # text that named no argument
    assert main(["classify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be finite, got ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--V", "1e300", "--Omega", "1"], "2V/Omega"),
        (["--V", str(2.0**51), "--Omega", "1"], "2V/Omega"),
        (["--upsilon", "1e17", "--chi", "1"], "upsilon/chi"),
        (["--upsilon", str(-(2.0**52)), "--chi", "1"], "upsilon/chi"),
    ],
)
def test_classify_refuses_a_ratio_with_no_fractional_digits_left(argv, name, capsys):
    # --V 1e300 --Omega 1 printed "sync: CCPC n=6366197723675814019..."
    assert main(["classify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be below 2**52 in magnitude")
    assert captured.out == ""


def test_classify_keeps_a_ratio_just_below_two_to_the_52(capsys):
    assert main(["classify", "--V", str(2.0**50), "--Omega", "1"]) == 0
    assert main(["classify", "--upsilon", str(2.0**52 - 1.0), "--chi", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_classify_without_enough_arguments(capsys):
    assert main(["classify", "--beta", "0.5"]) == 2
    assert "nothing to classify" in capsys.readouterr().err


def test_evolve_both_engines_writes_deterministic_files(tmp_path):
    args = [
        "evolve",
        "--protocol",
        "sync",
        "--gamma",
        "0.5",
        "--beta",
        "0.5",
        "--engine",
        "both",
        "--grid",
        "101",
        "--label",
        "case",
    ]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    header, rows = _csv_table(out1 / "case_data.csv")
    assert ",".join(header[:9]) == _E3_HEADER
    assert header[9:] == [name + "_num" for name in header[1:9]]
    assert len(rows) == 101
    meta = _read_meta(out1 / "case_meta")
    assert meta["engine"] == "both" and meta["epoch"] == "-inf"
    assert float(meta["max_deviation"]) < 1e-6
    assert json.loads((out1 / "case_plot.json").read_text())["x_label"] == "t"
    assert (out1 / "case_data.csv").read_bytes() == (out2 / "case_data.csv").read_bytes()
    assert (out1 / "case_meta").read_bytes() == (out2 / "case_meta").read_bytes()


def test_evolve_exact_refuses_off_branch(tmp_path, capsys):
    code = main(
        [
            "evolve",
            "--protocol",
            "async",
            "--gamma",
            "0.3",
            "--engine",
            "exact",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no closed form at gamma=0.3: ")
    assert not (tmp_path / "run_data.csv").exists()


def test_evolve_auto_falls_back_to_oracle(tmp_path):
    code = main(
        [
            "evolve",
            "--protocol",
            "async",
            "--gamma",
            "0.3",
            "--grid",
            "51",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    meta = _read_meta(tmp_path / "run_meta")
    assert meta["engine"] == "oracle"
    assert meta["oracle"].startswith("dop853(")
    header, rows = _csv_table(tmp_path / "run_data.csv")
    assert len(header) == 9 and len(rows) == 51
    norms = np.array([float(r[8]) for r in rows])
    np.testing.assert_allclose(norms, 1.0, atol=1e-8)


def test_evolve_config_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# two-amplitude start\n"
        "protocol=sync\n"
        "gamma=0.25\n"
        "V=0.7853981633974483\n"
        "label=cfgrun\n"
        "a1_re=0.6\n"
        "a3_re=0.8\n"
        "grid=21\n"
    )
    code = main(["evolve", "--config", str(cfg), "--label", "flagrun", "--out", str(tmp_path)])
    assert code == 0
    assert not (tmp_path / "cfgrun_data.csv").exists()
    meta = _read_meta(tmp_path / "flagrun_meta")
    # 17 significant digits for exact float round-trips
    assert meta["ic"] == "0.59999999999999998,0;0,0;0.80000000000000004,0;0,0"
    assert meta["V"] == "0.78539816339744828"


_OFF_BRANCH = ["--protocol", "async", "--gamma", "0.3"]


_EXACT_GRID_5 = ["--engine", "exact", "--grid", "5"]


@pytest.mark.parametrize(
    "verb,config,flags,refusal",
    [
        ("evolve", "protocol=sync\njust a line\n", [], "bad config line"),
        ("evolve", "protocol=sync\ngamma=0.5\na1_re=1\na3_re=1\n", [], "initial amplitudes"),
        ("evolve", None, ["--gamma", "0.5"], "evolve needs protocol"),
        ("evolve", None, ["--protocol", "sync"], "evolve needs gamma"),
        ("scan", "grid_n=5\ngamma=0.5\nV=1\nOmega=1\n", [], "scan config needs swept"),
        ("evolve", None, [*_OFF_BRANCH, "--engine", "exact"], "no closed form at gamma=0.3: "),
        ("evolve", None, [*_OFF_BRANCH, "--engine", "both"], "no closed form at gamma=0.3: "),
        ("classify", None, [], "nothing to classify: give --V and --Omega"),
        ("verify", None, ["--criteria", "99"], "no matching criteria\n"),
        ("figure", None, ["--id", "1a", "--grid", "-5"], "grid must not be negative, got -5\n"),
        (
            "scan",
            "swept=beta\ngrid_n=-3\ngamma=0.5\nV=1\nOmega=1\n",
            [],
            "grid_n must not be negative, got -3\n",
        ),
        (
            "scan",
            "swept=gamma\ngrid_lo=0\ngrid_hi=inf\ngrid_n=2\nbeta=0\nV=1\nOmega=1\n",
            [],
            "grid_hi must be finite, got inf\n",
        ),
        (
            "scan",
            "swept=gamma\ngrid_lo=nan\ngrid_n=2\nbeta=0\nV=1\nOmega=1\n",
            [],
            "grid_lo must be finite, got nan\n",
        ),
        ("classify", None, ["--V", "1", "--Omega", "1e-308"], "2V/Omega must be finite, got inf\n"),
        (
            "classify",
            None,
            ["--upsilon", "1e308", "--chi", "1e-300"],
            "upsilon/chi must be finite, got inf\n",
        ),
        (
            "evolve",
            None,
            ["--protocol", "sync", "--gamma", "0.5", "--Omega", "1e-308", "--engine", "exact"],
            "default horizon 25/min(Omega, 1) must be finite, got inf\n",
        ),
        (
            "evolve",
            None,
            ["--protocol", "sync", "--gamma", "0.5", "--epoch", "1e308", "--horizon", "1e308"],
            "epoch + horizon must be finite, got inf\n",
        ),
        (
            "evolve",
            None,
            ["--protocol", "sync", "--gamma", "0.5", "--epoch=-inf", "--horizon", "1e308"],
            "2*horizon must be finite, got inf\n",
        ),
        (
            "evolve",
            None,
            [*_EXACT_GRID_5, "--protocol", "sync", "--gamma", "0.3", "--epoch", "1e300"],
            "epoch 1e+300 and horizon 25 give sample times that repeat\n",
        ),
        (
            "evolve",
            None,
            ["--engine", "oracle", "--grid", "5", "--protocol", "sync", "--gamma", "0.3",
             "--epoch=-1e300"],
            "epoch -1e+300 and horizon 25 give sample times that repeat\n",
        ),
        (
            "evolve",
            None,
            ["--engine", "both", "--grid", "5", "--protocol", "sync", "--gamma", "0.3",
             "--epoch", "1e17", "--horizon", "1"],
            "epoch 1e+17 and horizon 1 give sample times that repeat\n",
        ),
        (
            "evolve",
            None,
            [*_EXACT_GRID_5, "--protocol", "sync", "--gamma", "0.5", "--beta", "2", "--V", "1e308"],
            "mode phase lambda*V/Omega must be finite, got inf\n",
        ),
        (
            "evolve",
            None,
            [*_EXACT_GRID_5, "--protocol", "async", "--gamma", "1", "--upsilon", "1e308"],
            "2*upsilon/chi must be finite, got inf\n",
        ),
        (
            "evolve",
            None,
            [*_EXACT_GRID_5, "--protocol", "async", "--gamma", "1", "--epsilon", "1e308"],
            "phi_e = (epsilon/chi)*ln cosh(chi*t) must be finite, got inf\n",
        ),
        ("evolve", "protocol=sync\ngamma=0.5\na3_re=nan\n", [], "a3_re must be finite, got nan\n"),
        ("scan", "swept=beta\ngamma=0.5\nV=1\nOmega=1\na1_im=inf\n", [], "a1_im must be finite"),
        (
            "scan",
            "swept=beta\ngrid_n=0\ngamma=0.5\nV=1\nOmega=1\n",
            [],
            "grid_lo=0, grid_hi=1 and grid_n=0 make no monotone grid\n",
        ),
        (
            "scan",
            "swept=beta\ngrid_hi=0\ngrid_n=3\ngamma=0.5\nV=1\nOmega=1\n",
            [],
            "grid_lo=0, grid_hi=0 and grid_n=3 make no monotone grid\n",
        ),
        # one non-finite drive value through every verb, whether or not the verb reads it
        ("scan", "swept=beta\ngamma=0.5\nV=1\nOmega=1\nchi=nan\n", [],
         "chi must be finite, got nan\n"),
        ("evolve", None, ["--protocol", "sync", "--gamma", "0.5", "--chi", "nan"],
         "chi must be finite, got nan\n"),
        ("evolve", None, ["--protocol", "async", "--gamma", "1", "--beta", "inf"],
         "beta must be finite, got inf\n"),
        ("classify", None, ["--beta", "nan", "--upsilon", "1", "--chi", "1"],
         "beta must be finite, got nan\n"),
        ("classify", None, ["--epsilon", "nan", "--V", "1", "--Omega", "1"],
         "epsilon must be finite, got nan\n"),
        ("scan", "swept=beta\ngamma=0.5\nV=1\nOmega=1\nepcoh=-inf\n", [],
         "unknown scan config key 'epcoh'\n"),
        ("scan", "swept=beta\ngamma=0.5\nV=1\nOmega=1\nobservable=LR\n", [],
         "unknown scan config key 'observable'\n"),
        ("evolve", "protocol=sync\ngamma=0.5\nhorizn=3\n", [],
         "unknown evolve config key 'horizn'\n"),
        ("evolve", "protocol=sync\ngamma=0.5\nengine=oracle\n", [],
         "unknown evolve config key 'engine'\n"),
    ],
    ids=[
        "bad-config-line",
        "unnormalised",
        "no-protocol",
        "no-gamma",
        "scan-no-swept",
        "exact-off-branch",
        "both-off-branch",
        "classify-nothing",
        "verify-no-criteria",
        "figure-negative-grid",
        "scan-negative-grid_n",
        "scan-inf-grid_hi",
        "scan-nan-grid_lo",
        "classify-ratio-overflow",
        "classify-async-ratio-overflow",
        "evolve-default-horizon-overflow",
        "evolve-window-end-overflow",
        "evolve-window-span-overflow",
        "evolve-exact-window-collapses",
        "evolve-oracle-window-collapses",
        "evolve-both-window-collapses",
        "evolve-sync-phase-overflow",
        "evolve-async-phi_u-overflow",
        "evolve-async-phi_e-overflow",
        "evolve-nan-amplitude",
        "scan-inf-amplitude",
        "scan-no-grid-point",
        "scan-equal-grid-ends",
        "scan-unread-nan-chi",
        "evolve-sync-unread-nan-chi",
        "evolve-async-unread-inf-beta",
        "classify-async-unread-nan-beta",
        "classify-sync-unread-nan-epsilon",
        "scan-misspelled-epoch",
        "scan-misspelled-observables",
        "evolve-misspelled-horizon",
        "evolve-config-engine",
    ],
)
def test_cli_refusal_exits_2_and_writes_nothing(verb, config, flags, refusal, tmp_path, capsys):
    # the first five used to exit 1, the next four printed no "error: ", the
    # negative grids printed numpy's text, which names neither --grid nor grid_n,
    # and a grid end that is not finite was refused as a grid not monotone;
    # a derived value that overflowed crashed, warned or named no argument, and
    # one that overflowed inside a closed form wrote NaN rows and exited 0; a
    # window that collapsed at its epoch wrote one repeated t under the exact
    # engine and named no argument under the oracle; a NaN amplitude was read
    # as no amplitude, so the default start ran and the command exited 0; and
    # a grid of no point or of equal ends was refused as "grid must be ...";
    # evolve and classify took a drive value they do not read that was not
    # finite, classify printing "CCPC (async, spin-conserving)", and a
    # misspelled config key was read as absent (engine is a flag only)
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        flags = flags + ["--config", str(cfg)]
    out = tmp_path / "out"
    if verb in ("figure", "evolve", "scan"):
        flags = flags + ["--out", str(out)]
    assert main([verb, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + refusal)
    assert captured.out == ""
    assert not out.exists()


# a scan config that uses each key; a fixed gamma or beta is used when gamma is not swept
_SYNC_SCAN = {"swept": "beta", "grid_n": "3", "gamma": "0.5", "V": "1", "Omega": "1"}
_ASYNC_SCAN = {"swept": "gamma", "grid_n": "3", "epsilon": "0.4", "upsilon": "1", "chi": "1"}
_SCAN_KEYS = {
    **dict.fromkeys(("grid_lo", "grid_hi", "epoch", "gamma", "V", "Omega"), _SYNC_SCAN),
    "beta": dict(_SYNC_SCAN, swept="V_over_Omega"),
    **dict.fromkeys(("epsilon", "upsilon", "chi"), _ASYNC_SCAN),
}
# a scan config that leaves each fixed key unread: a beta sweep reads no fixed beta
_UNREAD_SCAN_KEYS = {
    **dict.fromkeys(("beta", "epsilon", "upsilon", "chi"), _SYNC_SCAN),
    **dict.fromkeys(("gamma", "V", "Omega"), _ASYNC_SCAN),
}


@pytest.mark.parametrize(
    "key,value,config",
    [
        pytest.param(key, value, config, id=f"{key}-{value}{unread}")
        for unread, configs in (("", _SCAN_KEYS), ("-unread", _UNREAD_SCAN_KEYS))
        for key, config in configs.items()
        for value in ("nan", "inf", "-inf")
        if (key, value) != ("epoch", "-inf")
    ],
)
def test_scan_refuses_a_number_that_is_not_finite_under_its_key(
    key, value, config, tmp_path, capsys
):
    # a fixed gamma that is not finite used to give a table of NaN rows and exit
    # 0, and an unread key that is not finite used to pass into _meta unchecked
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in dict(config, **{key: value}).items()))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} must be ")
    assert captured.out == ""
    assert not out.exists()


def test_scan_cli_matches_formula(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "swept=beta\n"
        "grid_lo=0\n"
        "grid_hi=2\n"
        "grid_n=5\n"
        "gamma=0.5\n"
        "V=1.5707963267948966\n"
        "Omega=1\n"
        "epoch=0\n"
        "label=bscan\n"
        "observables=31,LR\n"
    )
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = _csv_table(tmp_path / "bscan_data.csv")
    assert header == ["param", "Z31_inf", "ZLR_inf", "engine"]
    assert len(rows) == 5
    for cells in rows:
        beta = float(cells[0])
        r = math.hypot(1.0, beta)
        p2 = math.sin(r * 0.5 * math.pi) ** 2 / r**2
        assert float(cells[1]) == pytest.approx(1.0 - p2, abs=1e-12)
        # only the right-down level receives population here
        assert float(cells[2]) == pytest.approx(1.0 - 2.0 * p2, abs=1e-12)
        assert cells[3] == "sync-exact"
    meta = _read_meta(tmp_path / "bscan_meta")
    assert meta["swept"] == "beta" and meta["grid"] == "0:2:5"


@pytest.mark.parametrize(
    "observables,refusal",
    [
        ("ABC", "error: bad observable token 'ABC'"),
        ("33", "error: observables: imbalance requires distinct indices"),
        ("5X", "error: observables: imbalance index must be 1..4, 'L' or 'R', got 5"),
        ("3Q", "error: observables: imbalance index must be 1..4, 'L' or 'R', got 'Q'"),
        ("31,32,31", "error: observables repeat the pair (3, 1)"),
        ("LR,lr", "error: observables repeat the pair ('L', 'R')"),
    ],
    ids=["ABC", "33", "5X", "3Q", "31,32,31", "LR,lr"],
)
def test_scan_rejects_bad_observable_token(observables, refusal, tmp_path, capsys):
    # all but ABC used to exit 0 and write an all-nan CSV with a failure per row
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"swept=beta\ngrid_n=5\ngamma=0.5\nV=1\nOmega=1\nobservables={observables}\n")
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(refusal)
    assert not out.exists()


@pytest.mark.parametrize(
    "verb,config,refusal",
    [
        ("scan", "swept=beta\ngamma=0.5\nV=1\nOmega=1\ngrid_n=abc\n", "grid_n must be an integer"),
        ("scan", "swept=beta\ngamma=0.5\nV=abc\nOmega=1\n", "V must be a number"),
        ("scan", "swept=beta\ngamma=0.5\nV=1\nOmega=1\na2_im=abc\n", "a2_im must be a number"),
        ("evolve", "protocol=sync\ngamma=0.5\ngrid=abc\n", "grid must be an integer"),
        ("evolve", "protocol=sync\ngamma=x\n", "gamma must be a number, got 'x'"),
        ("evolve", "protocol=async\ngamma=2\nepoch=soon\n", "epoch must be a number"),
    ],
    ids=["scan-grid_n", "scan-V", "scan-a2_im", "evolve-grid", "evolve-gamma", "evolve-epoch"],
)
def test_unparsable_config_value_is_refused_by_key(verb, config, refusal, tmp_path, capsys):
    # each used to exit 2 with Python's bare text, which names no key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_unparsable_criterion_is_refused_by_name(capsys):
    assert main(["verify", "--criteria", "1,abc"]) == 2
    assert capsys.readouterr().err == "error: criteria must be an integer, got 'abc'\n"


@pytest.mark.parametrize(
    "fixed,refusal",
    [
        ("gamma=0.5\nV=nan\nOmega=1\n", "V must be finite, got nan"),
        ("gamma=0.5\nV=1\n", "missing fixed value 'Omega'"),
    ],
)
def test_scan_whose_fixed_value_fails_every_row_exits_2(fixed, refusal, tmp_path, capsys):
    # such a scan used to exit 0 and write a nan row per point, each tagged "oracle"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("swept=beta\ngrid_n=5\n" + fixed)
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_scan_whose_every_row_fails_exits_2(tmp_path, capsys):
    # every row failed in run_scan, and the scan wrote three NaN rows and exited 0
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "swept=gamma\ngrid_lo=0.1\ngrid_hi=0.5\ngrid_n=3\nepsilon=0.3\nupsilon=1\nchi=1e-308\n"
    )
    out = tmp_path / "out"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: every point of the scan failed, the first at gamma=0.10000000000000001: "
        "default horizon 25/min(chi, 1) must be finite, got inf\n"
    )
    assert not out.exists()


def test_scan_whose_oracle_rows_fail_keeps_its_closed_form_rows(tmp_path, monkeypatch):
    def failing(*args):
        raise RuntimeError("the oracle failed")

    monkeypatch.setattr("sodw.analysis.integrate_batch", failing)
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("swept=gamma\ngrid_lo=0.5\ngrid_hi=2\ngrid_n=4\nepsilon=0.3\nupsilon=1\nchi=1\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _read_meta(tmp_path / "scan_meta")
    failures = {key: value for key, value in meta.items() if key.startswith("failure_")}
    assert failures == {
        "failure_0": "0.5: the oracle failed",
        "failure_1": "1.5: the oracle failed",
    }
    _, rows = _csv_table(tmp_path / "scan_data.csv")
    assert [row[-1] for row in rows] == ["oracle", "async-exact", "oracle", "async-exact"]
    assert [row[1] == "nan" for row in rows] == [True, False, True, False]


def test_scan_whose_oracle_window_collapses_at_its_epoch_names_the_epoch(tmp_path):
    # the oracle rows failed with "need t_end > t_start, got [1e+300, 1e+300]"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("swept=gamma\ngrid_n=5\nepsilon=0.4\nupsilon=1\nchi=1\nepoch=1e300\n")
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta = _read_meta(tmp_path / "scan_meta")
    failures = {key: value for key, value in meta.items() if key.startswith("failure_")}
    refusal = "epoch 1e+300 + default horizon rounds to the epoch"
    points = ("0.25", "0.5", "0.75")
    assert failures == {f"failure_{n}": f"{x}: {refusal}" for n, x in enumerate(points)}
    _, rows = _csv_table(tmp_path / "scan_data.csv")
    assert [row[-1] for row in rows] == ["async-exact", "oracle", "oracle", "oracle", "async-exact"]


def test_figure_cli_deterministic_surface(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "--id", "3c", "--grid", "5", "--out", str(out1)]) == 0
    assert main(["figure", "--id", "3c", "--grid", "5", "--out", str(out2)]) == 0
    for name in ("3c_data.csv", "3c_plot.json", "3c_meta"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, rows = _csv_table(out1 / "3c_data.csv")
    assert header == ["chi", "epsilon", "upsilon"] and len(rows) == 25


def test_figure_cli_trajectory(tmp_path):
    assert main(["figure", "--id", "1e", "--grid", "51", "--out", str(tmp_path)]) == 0
    meta = _read_meta(tmp_path / "1e_meta")
    assert meta["engine"] == "sync-exact" and meta["protocol"] == "sync"
    header, rows = _csv_table(tmp_path / "1e_data.csv")
    assert len(rows) == 51
    final = [float(v) for v in rows[-1]]
    assert final[5] == pytest.approx(math.cos(4.0), abs=1e-9)
    assert final[6] == pytest.approx(math.cos(2.0) ** 2, abs=1e-9)


def test_five_start_figure_holds_no_whole_table_or_file(tmp_path, capsys):
    # the tables used to be copied into rows of numpy scalars and each file
    # into one string before it was written: a 7.6 MiB peak for this figure
    argv = ["figure", "--id", "3d", "--out", str(tmp_path)]
    assert main(argv) == 0  # imports and first-use caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MiB"


# the single-start trajectory figures as evolve configs: drive, gamma, epoch, start
_FIGURE_RUNS = {
    "1d": f"beta=0.5\nV={math.pi / 2!r}\ngamma=0.5\nepoch=0\na3_re=1\n",
    "1e": "V=2\ngamma=1\nepoch=0\na3_re=1\n",
    "1f": f"V={math.pi / 2!r}\ngamma=0.35\nepoch=0\na3_re=1\n",
    "2a": f"V={math.pi / 2!r}\ngamma=0.15\nepoch=-inf\n"
    + "".join(f"a{k}_re={math.sqrt(k / 10)!r}\n" for k in (1, 2, 3, 4)),
    "2c": f"V={math.pi / 4!r}\ngamma=0.25\nepoch=-inf\na3_re=1\n",
}


@pytest.mark.parametrize("fig_id", sorted(_FIGURE_RUNS))
def test_evolve_both_reproduces_a_single_start_figure(fig_id, tmp_path):
    # figure and evolve run one trajectory path, so their tables agree to the byte
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"protocol=sync\nOmega=1\nlabel={fig_id}\n" + _FIGURE_RUNS[fig_id])
    fig, run = tmp_path / "figure", tmp_path / "evolve"
    assert main(["figure", "--id", fig_id, "--grid", "51", "--out", str(fig)]) == 0
    argv = ["evolve", "--config", str(cfg), "--engine", "both", "--grid", "51", "--out", str(run)]
    assert main(argv) == 0
    name = f"{fig_id}_data.csv"
    assert (run / name).read_bytes() == (fig / name).read_bytes()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SODW_OUT", str(tmp_path / "envout"))
    assert main(["figure", "--id", "3c", "--grid", "3"]) == 0
    assert (tmp_path / "envout" / "3c_data.csv").exists()


def test_verify_subset(capsys):
    assert main(["verify", "--criteria", "3"]) == 0
    out = capsys.readouterr().out
    assert "criterion 03 PASS" in out
    assert out.strip().endswith("1/1 criteria passed")


def test_verify_unknown_criterion(capsys):
    assert main(["verify", "--criteria", "99"]) == 2
    assert "no matching criteria" in capsys.readouterr().err


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "sodw.cli", "classify", "--upsilon", "2", "--chi", "1"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "CCPC (async, spin-conserving)"


@pytest.mark.parametrize(
    "argv",
    [
        ["--protocol", "async", "--gamma", "0.3", "--epoch=inf"],
        ["--protocol", "sync", "--gamma", "0.5", "--engine", "oracle", "--epoch=inf"],
        ["--protocol", "sync", "--gamma", "0.5", "--epoch=inf"],
        ["--protocol", "sync", "--gamma", "0.5", "--epoch=nan"],
        ["--protocol", "async", "--gamma", "0.3", "--epoch=nan"],
    ],
)
def test_evolve_refuses_epoch_plus_inf_and_nan(argv, tmp_path, capsys):
    assert main(["evolve", *argv, "--out", str(tmp_path)]) == 2
    assert "epoch must be finite or -inf" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "--id", "1d", "--grid", "0"],
        ["figure", "--id", "2b", "--grid", "1"],
        ["figure", "--id", "1d", "--horizon=-3"],
        ["figure", "--id", "3a", "--horizon=0"],
        ["evolve", "--protocol", "sync", "--gamma", "0.5", "--grid", "0"],
        ["evolve", "--protocol", "sync", "--gamma", "0.5", "--grid", "1"],
        ["evolve", "--protocol", "sync", "--gamma", "0.5", "--horizon=-3"],
        ["evolve", "--protocol", "async", "--gamma", "0.3", "--horizon=-3"],
        ["evolve", "--protocol", "sync", "--gamma", "0.5", "--engine", "both", "--horizon=inf"],
    ],
)
def test_trajectory_refuses_short_grid_and_bad_horizon(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "a trajectory needs at least 2 samples and a finite horizon > 0" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples", ["0", "1"])
def test_surface_refuses_short_grid(samples, tmp_path, capsys):
    assert main(["figure", "--id", "3c", "--grid", samples, "--out", str(tmp_path)]) == 2
    assert "a surface needs at least 2 samples per axis" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["import", "classify", "scan"])
def test_closed_form_work_leaves_scipy_integrate_unimported(verb, tmp_path):
    # the oracle's integrator import costs most of a second; only the oracle pays it
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("swept=beta\ngrid_n=5\ngamma=0.5\nV=1\nOmega=1\n")
    argv = {
        "import": None,
        "classify": ["classify", "--V", "1.5", "--Omega", "1"],
        "scan": ["scan", "--config", str(cfg), "--out", str(tmp_path / "out")],
    }[verb]
    code = "import sys\nimport sodw\n"
    if argv is not None:
        code += f"from sodw.cli import main\nassert main({argv!r}) == 0\n"
    code += "assert 'scipy.integrate' not in sys.modules\n"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_CHILD_ENV
    )
    assert out.returncode == 0, out.stderr


def test_oracle_figure_and_verify_leave_scipy_unimported(tmp_path):
    # the oracle's DOP853 and the peak counter are numpy; only the tests need scipy
    out = str(tmp_path)
    commands = [
        ["figure", "--id", "3a", "--out", out],
        ["evolve", "--protocol", "async", "--gamma", "0.3", "--engine", "oracle", "--out", out],
        ["verify", "--criteria", "1,11,13"],
    ]
    code = "import sys\nfrom sodw.cli import main\n"
    code += "".join(f"assert main({argv!r}) == 0\n" for argv in commands)
    code += "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    code += "assert not loaded, loaded\n"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_CHILD_ENV
    )
    assert run.returncode == 0, run.stderr
    assert "3/3 criteria passed" in run.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["--protocol", "sync", "--gamma", "0.5", "--beta", "nan"],
        ["--protocol", "sync", "--gamma", "0.5", "--V", "inf"],
        ["--protocol", "async", "--gamma", "2", "--epsilon", "nan"],
        ["--protocol", "async", "--gamma", "2", "--upsilon", "inf"],
    ],
)
def test_evolve_refuses_nonfinite_drive(argv, tmp_path, capsys):
    # the exact engine used to write an all-NaN trajectory and exit 0
    assert main(["evolve", *argv, "--engine", "exact", "--out", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evolve_at_a_large_gamma_is_the_evolve_at_its_reduced_value(tmp_path):
    # gamma = 1e308 warned, wrote NaN rows and exited 0
    for gamma, label in (("1e308", "large"), ("0", "reduced")):
        argv = ["evolve", "--protocol", "sync", "--gamma", gamma, "--engine", "exact"]
        assert main([*argv, "--label", label, "--out", str(tmp_path)]) == 0
    large, reduced = (tmp_path / f"{label}_data.csv" for label in ("large", "reduced"))
    assert large.read_bytes() == reduced.read_bytes()
    assert "nan" not in large.read_text()


def test_evolve_at_a_large_phase_that_stays_finite_keeps_its_rows(tmp_path):
    # the phase lambda*V/Omega = 1e308 is finite, so nothing is refused
    argv = ["evolve", "--protocol", "sync", "--gamma", "0.5", "--beta", "0", "--V", "1e308"]
    assert main([*argv, *_EXACT_GRID_5, "--out", str(tmp_path)]) == 0
    header, rows = _csv_table(tmp_path / "run_data.csv")
    values = np.array(rows, dtype=float)
    assert values.shape == (5, len(header)) and np.all(np.isfinite(values))
    assert np.max(np.abs(values[:, header.index("norm2")] - 1.0)) < 1e-12


def test_evolve_at_a_huge_beta_is_solved(tmp_path):
    # the eigenvalue sqrt(1 + beta^2 -/+ 2 beta cos(pi*gamma)) overflowed at
    # beta = 1e308, first into NaN rows with exit 0, then into a refusal
    argv = ["evolve", "--protocol", "sync", "--gamma", "0.5", "--beta", "1e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, *_EXACT_GRID_5, "--out", str(tmp_path)]) == 0
    assert [str(w.message) for w in caught] == []
    header, rows = _csv_table(tmp_path / "run_data.csv")
    values = np.array(rows, dtype=float)
    assert values.shape == (5, len(header)) and np.all(np.isfinite(values))
    assert np.max(np.abs(values[:, header.index("norm2")] - 1.0)) < 1e-9
    # the Zeeman term dominates: the start a3 stays where it is
    assert np.max(np.abs(values[:, header.index("P3")] - 1.0)) < 1e-9


@pytest.mark.parametrize("gamma", ["1.000001", "0.3"])
def test_refusal_names_gamma_as_given(gamma, tmp_path, capsys):
    # six significant digits printed gamma = 1.000001 as 1, a gamma on the branch
    argv = ["evolve", "--protocol", "async", "--gamma", gamma, "--engine", "exact"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"no closed form at gamma={gamma}:" in capsys.readouterr().err
