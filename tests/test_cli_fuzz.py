"""A fuzzer over the command line: each numeric flag or config key set in turn to an extreme.

Every case runs cli.main in-process under a 2 s alarm, with no process or
thread of its own.  A case passes when the command either exits 0 having
written only finite numbers (t strictly increasing in a trajectory, and a
scan row of NaN only beside its failure_k meta line), or exits 2 with a
refusal that names the argument, or that is the oracle's own text for a
drive too strong to integrate.  An integer flag given a value that is no
integer is refused by argparse, whose last line names the flag.
"""

import contextlib
import io
import math
import re
import signal

import numpy as np
import pytest

from sodw.cli import main
from sodw.figures import FIGURE_IDS

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-308")
BUDGET_S = 2.0
ORACLE_FAILURE = "integration failed near "

# each evolve drive: its fixed flags and the numeric flags it reads
_EVOLVE = {
    "sync": (["--protocol", "sync", "--gamma", "0.3"], ("beta", "V", "Omega")),
    "async-conserving": (["--protocol", "async", "--gamma", "1"], ("epsilon", "upsilon", "chi")),
    "async-flip": (
        ["--protocol", "async", "--gamma", "0.5", "--epsilon", "0.4"]
        + ["--upsilon", repr(math.hypot(0.5, 0.4))],
        ("epsilon", "upsilon", "chi"),
    ),
}
# each scan: a config of every swept name, the gamma sweep on both drives
_SCANS = {
    "beta": dict(swept="beta", grid_hi="2", gamma="0.5", V="1", Omega="1"),
    "V_over_Omega": dict(swept="V_over_Omega", grid_hi="2", gamma="1", beta="0", Omega="1"),
    "gamma-sync": dict(swept="gamma", grid_hi="1", beta="0", V="1", Omega="1"),
    "gamma-async": dict(swept="gamma", grid_hi="1", epsilon="0.4", upsilon="1", chi="1"),
    "upsilon_over_chi": dict(
        swept="upsilon_over_chi", grid_hi="2", gamma="1", epsilon="0.4", chi="1"
    ),
}
_CLASSIFY = ["--beta=0", "--V=1", "--Omega=1", "--epsilon=0.4", "--upsilon=1", "--chi=1"]
# the config keys of the initial amplitudes, which evolve and scan both read
_AMPLITUDE_KEYS = [f"a{k}_{part}" for k in (1, 2, 3, 4) for part in ("re", "im")]


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget(f"no answer within {BUDGET_S} s")


def _run(argv):
    """(exit code, stdout, stderr) of main(argv), raising _OverBudget after BUDGET_S."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag that does not parse
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _names(text, name):
    """True where text holds name as a word of its own, letters and underscores aside."""
    return re.search(rf"(?<![A-Za-z_]){re.escape(name)}(?![A-Za-z_])", text) is not None


def _refused_well(code, err, name):
    return code == 2 and err.startswith("error: ") and (_names(err, name) or ORACLE_FAILURE in err)


def _table(path):
    """Header and float rows of a CSV the CLI wrote, less a scan's engine column of text."""
    header, *lines = path.read_text().splitlines()
    header = header.split(",")
    numeric = len(header) - (header[-1] == "engine")
    rows = [line.split(",")[:numeric] for line in lines]
    return header[:numeric], np.array(rows, dtype=float).reshape(len(rows), numeric)


def _evolve_problem(out):
    header, values = _table(out / "run_data.csv")
    if not np.all(np.isfinite(values)):
        return "a number that is not finite"
    if not np.all(np.diff(values[:, header.index("t")]) > 0):
        return "t not strictly increasing"
    return None


def _scan_problem(out):
    _, values = _table(out / "scan_data.csv")
    meta = (out / "scan_meta").read_text()
    failed = set(re.findall(r"^failure_\d+=([^:]+):", meta, re.M))
    nan_rows = {f"{row[0]:.17g}" for row in values if not np.all(np.isfinite(row[1:]))}
    if not np.all(np.isfinite(values[:, 0])):
        return "a swept value that is not finite"
    if nan_rows != failed:
        return f"rows without a finite value {sorted(nan_rows)}, failures {sorted(failed)}"
    return None


def _problem(argv, name, written):
    """None where the case passes, else what went wrong; written(stdout) judges an exit 0."""
    try:
        code, out, err = _run(argv)
    except _OverBudget as exc:
        return str(exc)
    if code == 0:
        return written(out)
    if _refused_well(code, err, name):
        return None
    return f"exit {code}: {err.strip()!r}"


def _evolve_cases():
    for drive, (fixed, fields) in _EVOLVE.items():
        for engine in ("exact", "oracle", "both"):
            for name in ("gamma", *fields, "epoch", "horizon"):
                yield pytest.param(fixed, engine, name, id=f"{drive}-{engine}-{name}")


@pytest.mark.parametrize("fixed,engine,name", _evolve_cases())
def test_evolve_answers_every_extreme(fixed, engine, name, tmp_path):
    problems = []
    for value in VALUES:
        out = tmp_path / value
        argv = ["evolve", *fixed, "--engine", engine, "--grid", "5", f"--{name}={value}"]
        problem = _problem([*argv, "--out", str(out)], name, lambda _: _evolve_problem(out))
        if problem:
            problems.append(f"--{name}={value}: {problem}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "argv",
    [
        ["--protocol", "sync", "--gamma", "0.3", "--epoch=1e300", "--grid", "5"],
        ["--protocol", "sync", "--gamma", "0.3", "--epoch=-1e300", "--grid", "5"],
        ["--protocol", "sync", "--gamma", "0.3", "--epoch=1e17", "--horizon=1", "--grid", "5"],
    ],
    ids=["epoch-1e300", "epoch--1e300", "epoch-1e17-horizon-1"],
)
@pytest.mark.parametrize("engine", ["exact", "oracle", "both"])
def test_evolve_refuses_a_window_that_collapses_at_its_epoch(argv, engine, tmp_path):
    # the first seeds: the exact engine wrote five rows of one t and exited 0,
    # and the oracle refused "need t_end > t_start", which names no argument
    out = tmp_path / "out"
    code, _, err = _run(["evolve", *argv, "--engine", engine, "--out", str(out)])
    assert code == 2 and _names(err, "epoch") and _names(err, "horizon"), err
    assert not out.exists()


def _scan_cases():
    for scan, config in _SCANS.items():
        keys = ("grid_lo", "grid_hi", "grid_n", "epoch", *config.keys() - {"swept", "grid_hi"})
        for key in sorted(keys):
            yield pytest.param(config, key, id=f"{scan}-{key}")


@pytest.mark.parametrize("config,key", _scan_cases())
def test_scan_answers_every_extreme(config, key, tmp_path):
    problems = []
    for value in VALUES:
        cfg = tmp_path / f"{value}.cfg"
        settings = {"grid_lo": "0", "grid_n": "5", **config, key: value}
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        out = tmp_path / value
        argv = ["scan", "--config", str(cfg), "--out", str(out)]
        problem = _problem(argv, key, lambda _: _scan_problem(out))
        if problem:
            problems.append(f"{key}={value}: {problem}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("command", ["evolve", "scan"])
@pytest.mark.parametrize("key", _AMPLITUDE_KEYS)
def test_amplitudes_answer_every_extreme(key, command, tmp_path):
    # a component of 1e300 overflowed when squared and was refused as
    # "|norm^2 - 1| = inf", which names no key
    base = {
        "evolve": dict(protocol="sync", gamma="0.3", grid="5"),
        "scan": dict(swept="beta", grid_hi="2", grid_n="5", gamma="0.5", V="1", Omega="1"),
    }[command]
    written = {"evolve": _evolve_problem, "scan": _scan_problem}[command]
    problems = []
    for value in VALUES:
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in {**base, key: value}.items()))
        out = tmp_path / value
        argv = [command, "--config", str(cfg), "--out", str(out)]
        problem = _problem(argv, key, lambda _: written(out))
        if problem:
            problems.append(f"{key}={value}: {problem}")
    assert not problems, "\n".join(problems)


def _classify_problem(stdout):
    # "flip-constraint violated, residual inf" exited 0 on an epsilon of 1e300
    if re.search(r"(?<![A-Za-z])(inf|nan)(?![A-Za-z])", stdout):
        return f"a number that is not finite: {stdout.strip()!r}"
    return None


@pytest.mark.parametrize("name", ["beta", "V", "Omega", "epsilon", "upsilon", "chi"])
def test_classify_answers_every_extreme(name):
    problems = []
    for value in VALUES:
        argv = [flag for flag in _CLASSIFY if not flag.startswith(f"--{name}=")]
        problem = _problem(["classify", *argv, f"--{name}={value}"], name, _classify_problem)
        if problem:
            problems.append(f"--{name}={value}: {problem}")
    assert not problems, "\n".join(problems)


def _figure_problem(out):
    for path in sorted(out.glob("*_data.csv")):
        header, values = _table(path)
        if not np.all(np.isfinite(values)):
            return f"{path.name}: a number that is not finite"
        if "t" in header and not np.all(np.diff(values[:, header.index("t")]) > 0):
            return f"{path.name}: t not strictly increasing"
    return None


@pytest.mark.parametrize("flag", ["grid", "horizon"])
@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_figure_answers_every_extreme(fig_id, flag, tmp_path):
    # --grid is build_figure's samples, so its refusals may say samples
    problems = []
    for value in VALUES:
        out = tmp_path / value
        argv = ["figure", "--id", fig_id, f"--{flag}={value}", "--out", str(out)]
        try:
            code, _, err = _run(argv)
        except _OverBudget as exc:
            problems.append(f"--{flag}={value}: {exc}")
            continue
        last = err.strip().splitlines()[-1] if err.strip() else ""
        if code == 0:
            problem = _figure_problem(out)
        elif _refused_well(code, err, flag) or (flag == "grid" and _names(err, "samples")):
            problem = None
        elif code == 2 and err.startswith("usage: ") and _names(last, f"--{flag}"):
            problem = None
        else:
            problem = f"exit {code}: {err.strip()!r}"
        if problem:
            problems.append(f"--{flag}={value}: {problem}")
    assert not problems, "\n".join(problems)
