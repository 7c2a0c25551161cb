"""A fuzzer over the library: each numeric argument of an entry point set in turn to an extreme.

solve, integrate, integrate_batch and ScanSpec with run_scan are called
in-process under a 2 s alarm per case, with no process or thread of their
own, on the drives of the command-line fuzzer.  A case passes when the call
returns finite states whose norm is within 1e-9 of 1 (for a scan: finite
imbalances within 1 + 1e-9, a failed row keeping its error text as the
scan's answer for that point), or raises a ValueError whose text names the
argument.  Cases that fail today are marked xfail(strict=True) with what
they do, so a fix shows as an unexpected pass.
"""

import math
import signal

import numpy as np
import pytest
from test_cli_fuzz import BUDGET_S, VALUES, _names

from sodw import AsyncTanhSech, IntegratorConfig, ScanSpec, SyncSech2, integrate, run_scan, solve
from sodw.oracle import integrate_batch

_E3 = (0.0, 0.0, 1.0, 0.0)
# each drive: its class, its fields and a coupling on a closed-form branch
_DRIVES = {
    "sync": (SyncSech2, dict(beta=0.0, V=math.pi / 2, Omega=1.0), 0.3),
    "async-conserving": (AsyncTanhSech, dict(epsilon=0.0, upsilon=1.0, chi=1.0), 1.0),
    "async-flip": (AsyncTanhSech, dict(epsilon=0.4, upsilon=math.hypot(0.5, 0.4), chi=1.0), 0.5),
}
# each scan: swept name, the field a swept value sets, and the fixed values
_SCANS = {
    "beta": ("beta", "beta", dict(gamma=0.5, V=1.0, Omega=1.0)),
    "V_over_Omega": ("V_over_Omega", "V", dict(gamma=1.0, beta=0.0, Omega=1.0)),
    "gamma-sync": ("gamma", "gamma", dict(beta=0.0, V=1.0, Omega=1.0)),
    "gamma-async": ("gamma", "gamma", dict(epsilon=0.4, upsilon=1.0, chi=1.0)),
    "upsilon_over_chi": ("upsilon_over_chi", "upsilon", dict(gamma=1.0, epsilon=0.4, chi=1.0)),
}
_WINDOW = dict(t_start=-5.0, t_end=5.0)
_ORACLE_NAN = (
    'raises RuntimeError("integration failed near ...: Error estimate is not finite."), '
    "which names no argument"
)


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget(f"no answer within {BUDGET_S} s")


def _answer(call, *names):
    """Run call() under the alarm; a ValueError must name one of names, anything else propagates."""
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        return call()
    except ValueError as exc:
        assert any(_names(str(exc), name) for name in names), f"naming none of {names}: {exc}"
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_states(states):
    states = np.asarray(states)
    assert np.all(np.isfinite(states)), "a state that is not finite"
    gap = np.max(np.abs(np.sum(np.abs(states) ** 2, axis=-1) - 1.0))
    assert gap <= 1e-9, f"norm^2 off 1 by {gap:.3g}"


def _set(drive, name, value):
    """(drive, gamma, the rest) of a drive with one argument set to value."""
    cls, fields, gamma = _DRIVES[drive]
    args = {**fields, "gamma": gamma, "t0": 0.0, **_WINDOW, name: value}
    protocol = cls(**{key: args.pop(key) for key in fields})
    return protocol, args.pop("gamma"), args


def _cases(names, known=lambda name, value: None):
    for drive, (_, fields, _) in _DRIVES.items():
        for name in (*fields, *names):
            for value in VALUES:
                mark = known(name, value)
                marks = () if mark is None else (pytest.mark.xfail(strict=True, **mark),)
                yield pytest.param(drive, name, value, id=f"{drive}-{name}={value}", marks=marks)


@pytest.mark.parametrize("drive,name,value", _cases(("gamma", "t0")))
def test_solve_answers_every_extreme(drive, name, value):
    def call():
        protocol, gamma, args = _set(drive, name, float(value))
        solution = solve(protocol, gamma, _E3, args["t0"])
        _assert_states(solution.states(np.linspace(-5.0, 5.0, 5)))
        limits = solution.asymptotes()
        assert np.all(np.isfinite(limits)) and np.max(np.abs(limits.sum(axis=-1) - 1.0)) <= 1e-9

    _answer(call, name)


def _oracle_known(name, value):
    """The xfail of an oracle case that fails today, or None."""
    if value in ("1e300", "-1e300") and name in ("beta", "V", "epsilon", "upsilon"):
        return dict(raises=RuntimeError, reason=f"a drive field at {value} {_ORACLE_NAN}")
    if (name, value) in (("t_start", "-1e300"), ("t_end", "1e300"), ("abs_tol", "1e-308")):
        return dict(raises=RuntimeError, reason=f"{name}={value} {_ORACLE_NAN}")
    return None


_ORACLE_NAMES = ("gamma", "t_start", "t_end", "rel_tol", "abs_tol")


@pytest.mark.parametrize("drive,name,value", _cases(_ORACLE_NAMES, _oracle_known))
@pytest.mark.parametrize("batch", [False, True], ids=["integrate", "integrate_batch"])
def test_oracle_answers_every_extreme(batch, drive, name, value):
    def call():
        protocol, gamma, args = _set(drive, name, float(value))
        cfg = IntegratorConfig(**{key: args[key] for key in args if key != "t0"})
        if batch:
            record = integrate_batch(gamma, protocol, _E3, cfg, np.linspace(0.0, 1.0, 5))
        else:
            record = integrate(gamma, protocol, _E3, cfg, np.linspace(cfg.t_start, cfg.t_end, 5))
        _assert_states(record.states)

    _answer(call, name)


_LONG = {
    # a sync pulse of area 2: the oracle's first step past the pulse jumps it
    "sync": (SyncSech2(0.0, 1.0, 1.0), 0.3),
    # tails that are not idle, since epsilon*tanh tends to +-epsilon
    "async-flip": (AsyncTanhSech(0.4, math.hypot(0.5, 0.4), 1.0), 0.5),
}


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, _OverBudget),
    reason="ROADMAP item 4: a window far past the pulse moves the sync answer and costs "
    "the async oracle time in proportion to its length",
)
@pytest.mark.parametrize("length", [1e6, 1e8])
@pytest.mark.parametrize("drive", _LONG)
@pytest.mark.parametrize("batch", [False, True], ids=["integrate", "integrate_batch"])
def test_oracle_answers_a_long_window_as_the_closed_form(batch, drive, length):
    protocol, gamma = _LONG[drive]
    half = 0.5 * length
    cfg = IntegratorConfig(-half, half)

    def call():
        if batch:
            return integrate_batch(gamma, protocol, _E3, cfg, [0.0, 1.0]).states[-1]
        return integrate(gamma, protocol, _E3, cfg, [-half, half]).states[-1]

    end = _answer(call, "t_end")
    _assert_states(end)
    exact = solve(protocol, gamma, _E3, -half).states(half)
    gap = np.max(np.abs(np.abs(end) ** 2 - np.abs(exact) ** 2))
    assert gap <= 1e-6, f"populations at the window's end off the closed form by {gap:.3g}"


def _scan_cases():
    for scan, (_, field, fixed) in _SCANS.items():
        for name in ("grid", "epoch", *fixed):
            for value in VALUES:
                yield pytest.param(scan, name, value, id=f"{scan}-{name}={value}")


@pytest.mark.parametrize("scan,name,value", _scan_cases())
def test_scan_answers_every_extreme(scan, name, value):
    # grid is set as a one-point grid at the value, and a refusal of it may
    # name the field that the swept value sets
    swept, field, fixed = _SCANS[scan]
    grid = [float(value)] if name == "grid" else [0.5]
    epoch = float(value) if name == "epoch" else 0.0
    fixed = {**fixed, name: float(value)} if name in fixed else fixed

    def call():
        result = run_scan(ScanSpec(swept, grid, fixed, _E3, epoch, ((3, 1), (3, 2))))
        solved = result.values[~result.failed]
        assert np.all(np.abs(solved) <= 1.0 + 1e-9), f"imbalances {solved}"
        assert all(result.errors[k] for k in np.flatnonzero(result.failed))
        assert np.all(np.isnan(result.values[result.failed]))

    _answer(call, *((name, field) if name == "grid" else (name,)))
