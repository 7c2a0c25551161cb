"""Numeric integrator against closed forms it never shares code with."""

import contextlib
import math
import re
import signal

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sodw.acceptance
import sodw.figures
import sodw.oracle
from sodw import _dop853_coefficients as _dop
from sodw import (
    AsyncTanhSech,
    IntegratorConfig,
    ScanSpec,
    SyncSech2,
    integrate,
    integrate_batch,
    run_scan,
    solve,
)
from sodw.acceptance import run_all
from sodw.analysis import ENGINE_ORACLE
from sodw.core import stack_drives
from sodw.figures import build_figure
from sodw.oracle import TrajectoryRecord

_E3 = (0, 0, 1, 0)


def _gap(traj, exact):
    return np.max(np.linalg.norm(traj.states - exact, axis=1))


def test_pure_detuning_gives_free_phases():
    # ups = 0: each amplitude just rotates with its own Zeeman sign, by the
    # detuning's integral (0.7/chi)*ln(cosh(chi*t)) from t = 0
    chi = 0.9
    a0 = np.array([0.5, 0.5, 0.5j, -0.5], dtype=complex)
    grid = np.linspace(0.0, 5.0, 11)
    traj = integrate(0.4, AsyncTanhSech(0.7, 0.0, chi), a0, IntegratorConfig(0.0, 5.0), grid)
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    phase = (0.7 / chi) * np.log(np.cosh(chi * grid))
    exact = a0 * np.exp(-1j * signs * phase[:, None])
    assert _gap(traj, exact) < 1e-9
    assert traj.norm_drift_max < 1e-8


def test_constant_coupling_is_a_plain_rotation():
    # gamma = 1, eps = 0: the left-up/right-up pair rotates by the pulse area
    # phi(t) = (1.6/chi)*arctan(tanh(chi*t/2)) of ups = 0.8*sech(chi*t) from t = 0
    chi = 0.6
    grid = np.linspace(0.0, 6.0, 25)
    traj = integrate(1.0, AsyncTanhSech(0.0, 0.8, chi), _E3, IntegratorConfig(0.0, 6.0), grid)
    phi = (1.6 / chi) * np.arctan(np.tanh(chi * grid / 2))
    zero = np.zeros_like(phi)
    exact = np.stack([-1j * np.sin(phi), zero, np.cos(phi), zero], axis=1)
    assert _gap(traj, exact) < 1e-9


def test_sech_pulse_endpoint_matches_two_level_formula():
    proto = SyncSech2(0.5, 0.5 * math.pi, 1.0)
    grid = np.linspace(0.0, 25.0, 81)
    traj = integrate(0.5, proto, _E3, IntegratorConfig(0.0, 25.0), grid)
    r = math.hypot(1.0, 0.5)
    p2 = math.sin(r * 0.5 * math.pi) ** 2 / r**2
    assert abs(traj.population_array[-1, 1] - p2) < 1e-8
    assert abs(traj.population_array[-1, 2] - (1.0 - p2)) < 1e-8
    assert traj.norm_drift_max < 1e-8


def test_dop853_tolerances_agree_off_branch():
    # gamma off both exact branches: the integrator is the only solver there,
    # so tightening its tolerances by two orders must not move the answer;
    # samples land exactly on an uneven grid that starts after t_start
    params = AsyncTanhSech(0.3, 1.0, 1.0)
    grid = np.concatenate([np.linspace(-9.3, 9.0, 40), [10.0]])
    rng = np.random.default_rng(31)
    a0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a0 /= np.linalg.norm(a0)
    t1 = integrate(0.3, params, a0, IntegratorConfig(-10.0, 10.0), grid)
    tight = IntegratorConfig(-10.0, 10.0, rel_tol=1e-12, abs_tol=1e-14)
    t2 = integrate(0.3, params, a0, tight, grid)
    assert np.max(np.abs(t1.states - t2.states)) < 1e-7
    assert np.array_equal(t1.times, grid)
    assert t1.solver_id == "dop853(rtol=1e-10,atol=1e-12)"
    assert t2.solver_id == "dop853(rtol=1e-12,atol=1e-14)"


def test_window_and_grid_validation():
    proto = SyncSech2(0.0, 1.0, 1.0)
    cfg = IntegratorConfig(0.0, 1.0)
    with pytest.raises(ValueError, match="exceeds window"):
        integrate(0.5, proto, _E3, cfg, np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="non-empty"):
        integrate(0.5, proto, _E3, cfg, np.array([]))
    with pytest.raises(ValueError, match="sample_grid must be strictly increasing"):
        integrate(0.5, proto, _E3, cfg, np.array([0.8, 0.2]))
    # a NaN passed every comparison and failed only after the whole solve
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^sample_grid must be finite"):
            integrate(0.5, proto, _E3, cfg, [0.5, bad, 1.0])
    # a stack failed on a shape mismatch after the whole solve, or on an ambiguous truth value
    stacks = [
        ("gamma", dict(gamma=np.array([0.5, 0.7]))),
        ("V", dict(protocol=SyncSech2(0.0, np.array([1.0, 2.0]), 1.0))),
        ("chi", dict(protocol=AsyncTanhSech(0.4, 1.0, np.array([1.0, 2.0])))),
        ("epsilon", dict(protocol=AsyncTanhSech(np.array([0.4, 0.5]), 1.0, 1.0))),
        ("t_start", dict(cfg=IntegratorConfig(np.zeros(2), 1.0))),
        ("t_end", dict(cfg=IntegratorConfig(0.0, np.ones(2)))),
    ]
    for name, stack in stacks:
        args = dict(gamma=0.5, protocol=proto, state0=_E3, cfg=cfg, sample_grid=[0.5])
        with pytest.raises(ValueError, match=f"^{name} is a stack: .* use integrate_batch"):
            integrate(**{**args, **stack})


def test_config_validation():
    with pytest.raises(ValueError, match="t_end > t_start"):
        IntegratorConfig(1.0, 1.0)
    with pytest.raises(ValueError, match="tolerances"):
        IntegratorConfig(0.0, 1.0, rel_tol=0.0)
    # a tolerance of 1 or more holds no digit of a unit-norm state: at rel_tol
    # = 1e300 the norm^2 of a sync run on [-5, 5] reached 69
    for name, value in (("rel_tol", 1e300), ("rel_tol", 1.0), ("abs_tol", 1e300), ("abs_tol", 1.0)):
        text = re.escape(f"tolerances must be > 0 and below 1, got {name}={value:g}")
        with pytest.raises(ValueError, match=f"^{text}$"):
            IntegratorConfig(0.0, 1.0, **{name: value})
        assert getattr(IntegratorConfig(0.0, 1.0, **{name: 0.5}), name) == 0.5
    # windows may be stacks, tolerances may not
    with pytest.raises(ValueError, match="t_end > t_start"):
        IntegratorConfig(np.zeros(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="rel_tol and abs_tol must be scalars"):
        IntegratorConfig(0.0, 1.0, rel_tol=np.array([1e-10, 1e-9]))


@contextlib.contextmanager
def _deadline(seconds=2.0):
    """Fail a block that runs longer than seconds, in this process (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


_CONFIG_FIELDS = ("t_start", "t_end", "rel_tol", "abs_tol")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field,stacked",
    [(field, False) for field in _CONFIG_FIELDS] + [(field, True) for field in _CONFIG_FIELDS],
    ids=list(_CONFIG_FIELDS) + [f"{field}-stacked" for field in _CONFIG_FIELDS],
)
def test_config_refuses_what_is_not_finite_by_name(field, stacked, value):
    # an infinite window used to hang the step loop (-inf) or be refused
    # as unsorted t_eval (+inf); in a stack of windows, one bad member is
    # refused among finite ones
    fields = dict(zip(_CONFIG_FIELDS, (0.0, 1.0, 1e-10, 1e-12)))
    if stacked:
        fields.update(t_start=np.array([0.0, -1.0, 0.5]), t_end=np.array([1.0, 2.0, 3.0]))
    fields[field] = np.where([False, True, False], value, fields[field]) if stacked else value
    with _deadline(), pytest.raises(ValueError, match=f"^{field} must be finite"):
        cfg = IntegratorConfig(**fields)
        integrate_batch(0.3, SyncSech2(0.0, 1.0, 1.0), _E3, cfg, [0.0, 1.0])


def test_infinite_past_window_is_refused_not_integrated():
    with _deadline(), pytest.raises(ValueError, match="t_start must be finite"):
        cfg = IntegratorConfig(-math.inf, 0.0)
        integrate(0.3, SyncSech2(0.0, 1.0, 1.0), _E3, cfg, [-1.0, 0.0])


class _FailingRate(sodw.oracle.BatchRate):
    """A one-member rate whose coefficients become value for s > s_fail."""

    def __init__(self, s_fail, value):
        super().__init__([0.5], SyncSech2(0.0, 1.0, 1.0), np.zeros(1), np.ones(1))
        self.s_fail, self.value = s_fail, value

    def __call__(self, s):
        return np.where((s > self.s_fail)[:, None, None], self.value, super().__call__(s))


@pytest.mark.parametrize(
    "s_fail,value,message",
    [
        (-1.0, math.nan, "Step size is not finite"),  # NaN from the start: the initial step is NaN
        (0.5, math.nan, "Error estimate is not finite"),
        (0.5, 1e308, "Error estimate is not finite"),  # the stages overflow
    ],
)
def test_solver_stops_on_what_is_not_finite(s_fail, value, message):
    rate = _FailingRate(s_fail, value)
    with _deadline():
        sol = sodw.oracle.solve_ivp(rate, (0.0, 1.0), _E3, t_eval=[1.0], rtol=1e-10, atol=1e-12)
    assert not sol.success
    assert message in sol.message


class _Growth:
    """The rate dy/ds = k*y: its one coefficient is k at every time."""

    def __init__(self, k):
        self.k = k

    def __call__(self, s):
        return np.full(np.shape(s), self.k)

    def rate(self, coefficients, y, out=None):
        return np.multiply(coefficients, y, out=out)


@pytest.mark.parametrize(
    "t_span,t_eval,message",
    [
        ((1.0, 0.0), [1.0], r"t_span must be finite and increasing, got \(1.0, 0.0\)"),
        ((0.0, 0.0), [0.0], r"t_span must be finite and increasing"),
        ((0.0, math.inf), [1.0], r"t_span must be finite and increasing"),
        ((math.nan, 1.0), [1.0], r"t_span must be finite and increasing"),
        ((0.0, 1.0), [0.5, 0.5], r"Values in `t_eval` are not properly sorted."),
        ((0.0, 1.0), [0.8, 0.2], r"Values in `t_eval` are not properly sorted."),
    ],
)
def test_solver_refuses_a_bad_span_or_an_unsorted_grid(t_span, t_eval, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        sodw.oracle.solve_ivp(_Growth(1.0), t_span, _E3, t_eval=t_eval, rtol=1e-10, atol=1e-12)


def test_batch_refuses_amplitudes_that_are_not_finite_from_a_solve_that_succeeded(monkeypatch):
    def solved_to_inf(fun, t_span, y0, *, t_eval, rtol, atol):
        y = np.full((np.size(y0), len(t_eval)), complex(math.inf, 0.0))
        return sodw.oracle.IvpResult(np.asarray(t_eval), y, 0, True, "")

    monkeypatch.setattr(sodw.oracle, "solve_ivp", solved_to_inf)
    with pytest.raises(RuntimeError, match="^integration produced non-finite amplitudes$"):
        integrate(0.5, SyncSech2(0.0, 1.0, 1.0), _E3, IntegratorConfig(0.0, 1.0), [0.5, 1.0])


def test_failed_solve_returns_the_samples_it_reached():
    t_eval = np.linspace(0.0, 1.0, 11)
    options = dict(t_eval=t_eval, rtol=1e-10, atol=1e-12)
    with _deadline():
        failed = sodw.oracle.solve_ivp(_FailingRate(0.5, math.nan), (0.0, 1.0), _E3, **options)
        whole = sodw.oracle.solve_ivp(_FailingRate(2.0, math.nan), (0.0, 1.0), _E3, **options)
    assert not failed.success and whole.success
    reached = failed.t.size
    assert 0 < reached < t_eval.size
    assert np.array_equal(failed.t, t_eval[:reached])
    assert np.array_equal(failed.y, whole.y[:, :reached])


def test_trajectory_record_accessors():
    times = np.array([0.0, 1.0, 2.0])
    states = np.array(
        [[1, 0, 0, 0], [0, 1j, 0, 0], [0, 0, 0.6, 0.8]],
        dtype=complex,
    )
    rec = TrajectoryRecord(times, states, "unit")
    assert rec.norm_drift_max == 0.0
    assert rec.population_array.shape == (3, 4)
    assert rec.population_array[2, 3] == pytest.approx(0.64)
    with pytest.raises(ValueError, match="strictly increasing"):
        TrajectoryRecord(times[::-1], states, "unit")
    with pytest.raises(ValueError, match="shape"):
        TrajectoryRecord(times, states[:2], "unit")
    # two members: times (K, 2), states (K, 2, 4), one drift per member
    both = np.stack([times, times + 5.0], axis=1)
    pair = TrajectoryRecord(both, np.stack([states, 0.5 * states], axis=1), "unit")
    assert_allclose(pair.norm_drift_max, [0.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="shape"):
        TrajectoryRecord(both, states, "unit")
    with pytest.raises(ValueError, match="strictly increasing"):
        TrajectoryRecord(both * [1.0, -1.0], np.stack([states, states], axis=1), "unit")


def _random_state(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def _mixed_batch(rng, n):
    """Couplings, initial states and windows that differ from member to member."""
    t_lo = -rng.uniform(3.0, 12.0, n)
    cfg = IntegratorConfig(t_lo, t_lo + rng.uniform(5.0, 20.0, n))
    states0 = np.array([_random_state(rng) for _ in range(n)])
    return rng.uniform(0.0, 2.0, n), states0, cfg


@pytest.mark.parametrize("cls", [SyncSech2, AsyncTanhSech], ids=["sync", "async"])
def test_batch_matches_member_by_member_integration(cls):
    rng = np.random.default_rng(61)
    lower = {SyncSech2: [0, 0.3, 0.5], AsyncTanhSech: [0, 0.05, 0.4]}[cls]
    fields = rng.uniform(lower, [2, 2, 2], size=(4, 3))
    gammas, states0, cfg = _mixed_batch(rng, 4)
    fractions = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 20)), [1.0]])
    record = integrate_batch(gammas, cls(*fields.T), states0, cfg, fractions)
    assert record.states.shape == (fractions.size, 4, 4)
    for i in range(4):
        times = cfg.t_start[i] + fractions * (cfg.t_end[i] - cfg.t_start[i])
        assert np.array_equal(record.times[:, i], times)
        window = IntegratorConfig(cfg.t_start[i], cfg.t_end[i])
        alone = integrate(gammas[i], cls(*fields[i]), states0[i], window, times)
        assert np.max(np.abs(record.states[:, i] - alone.states)) < 1e-9
        assert abs(record.norm_drift_max[i] - alone.norm_drift_max) < 1e-9
        assert record.solver_id == alone.solver_id


def test_batch_of_one_is_integrate():
    proto = AsyncTanhSech(0.3, 1.0, 1.0)
    cfg = IntegratorConfig(0.0, 2.0)
    fractions = np.linspace(0.0, 1.0, 11)
    rec = integrate_batch(0.3, proto, _E3, cfg, fractions)
    alone = integrate(0.3, proto, _E3, cfg, 2.0 * fractions)
    assert np.array_equal(rec.times, alone.times)
    assert np.array_equal(rec.states, alone.states)
    assert rec.solver_id == alone.solver_id
    assert rec.norm_drift_max == alone.norm_drift_max


def test_shared_drive_and_window_equal_their_stacks():
    # a figure passes one drive and one window with several starts
    rng = np.random.default_rng(67)
    drive = AsyncTanhSech(0.3, 1.0, 1.0)
    states0 = np.array([_random_state(rng) for _ in range(3)])
    fractions = np.linspace(0.0, 1.0, 11)
    shared = integrate_batch(0.3, drive, states0, IntegratorConfig(-5.0, 5.0), fractions)
    window = IntegratorConfig(np.full(3, -5.0), np.full(3, 5.0))
    drives = stack_drives([drive] * 3)
    stacked = integrate_batch(np.full(3, 0.3), drives, states0, window, fractions)
    assert np.array_equal(shared.times, stacked.times)
    assert np.array_equal(shared.states, stacked.states)


def test_batch_validation():
    cfg = IntegratorConfig(0.0, 1.0)
    drive = SyncSech2(0.0, 1.0, 1.0)
    empty = integrate_batch(0.5, SyncSech2(0.0, np.array([]), 1.0), _E3, cfg, [0.0, 1.0])
    assert empty.states.shape == (2, 0, 4)
    with pytest.raises(ValueError, match="^fractions must be a non-empty 1-d sequence$"):
        integrate_batch(0.5, drive, _E3, cfg, [])
    with pytest.raises(ValueError, match=r"^fractions \[0.5, 1.5\] exceed \[0, 1\]$"):
        integrate_batch(0.5, drive, _E3, cfg, [0.5, 1.5])
    with pytest.raises(ValueError, match=r"^fractions \[-0.5, 0.5\] exceed \[0, 1\]$"):
        integrate_batch(0.5, drive, _E3, cfg, [-0.5, 0.5])
    with pytest.raises(ValueError, match="fractions must be strictly increasing"):
        integrate_batch(0.5, drive, _E3, cfg, [0.0, 0.7, 0.3, 1.0])
    # a NaN passed every comparison and failed only after the whole solve
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^fractions must be finite"):
            integrate_batch(0.5, drive, _E3, cfg, [0.5, bad, 1.0])
    with pytest.raises(ValueError, match="broadcast"):
        integrate_batch([0.5, 0.7], SyncSech2(0.0, np.ones(3), 1.0), _E3, cfg, [1.0])


def test_driven_member_keeps_its_solo_accuracy_among_idle_ones():
    # the error norm averages over all members, so without the per-member
    # tolerance rule a lone driven member would be held sqrt(N) times looser
    driven = SyncSech2(0.5, 3.0 * math.pi, 1.0)
    cfg = IntegratorConfig(-10.0, 10.0, rel_tol=1e-6, abs_tol=1e-8)
    grid = np.linspace(-10.0, 10.0, 41)
    exact = solve(driven, 0.3, _E3, -10.0).states(grid)
    solo = integrate(0.3, driven, _E3, cfg, grid)
    solo_err = float(np.max(np.abs(solo.states - exact)))
    idle = np.arange(100) > 0
    drives = SyncSech2(np.where(idle, 0.0, 0.5), np.where(idle, 0.0, 3.0 * math.pi), 1.0)
    batch = integrate_batch(np.where(idle, 0.7, 0.3), drives, _E3, cfg, (grid + 10.0) / 20.0)
    batch_err = float(np.max(np.abs(batch.states[:, 0] - exact)))
    assert solo_err > 1e-9  # loose enough that the tolerance, not round-off, sets the error
    assert batch_err < 1.5 * solo_err
    assert np.max(np.abs(batch.states[:, 1:] - np.array(_E3))) < 1e-12


@pytest.fixture
def solver_calls(monkeypatch):
    calls = []
    solver = sodw.oracle.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        calls.append(len(y0) // 4)
        return solver(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(sodw.oracle, "solve_ivp", counted)
    return calls


def test_criterion_11_makes_one_solve_per_drive_class(solver_calls):
    # the synchronous cases, then the conserving and flip cases together
    (record,) = run_all({11})
    assert record["passed"]
    assert solver_calls == [50, 100]


def test_criterion_4_makes_one_solve(solver_calls):
    (record,) = run_all({4})
    assert record["passed"]
    assert solver_calls == [3]


@pytest.fixture
def closed_form_calls(monkeypatch):
    """Calls of analysis.solve from the figures and the acceptance criteria."""
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(sodw.figures, "solve", counted)
    monkeypatch.setattr(sodw.acceptance, "solve", counted)
    return calls


def test_multi_start_figure_makes_one_solve(solver_calls, closed_form_calls):
    build_figure("3a")
    assert solver_calls == [5]
    assert len(closed_form_calls) == 1


@pytest.mark.parametrize("criterion", [6, 8, 10])
def test_multi_start_criterion_makes_one_closed_form_solve(criterion, closed_form_calls):
    (record,) = run_all({criterion})
    assert record["passed"]
    assert len(closed_form_calls) == 1


def test_batch_builds_its_matrices_once(monkeypatch):
    # the tunnel matrices of all members and the Zeeman diagonal, whatever the member count
    calls = []
    matrix = sodw.oracle.hamiltonian_matrix

    def counted(*args):
        calls.append(args)
        return matrix(*args)

    monkeypatch.setattr(sodw.oracle, "hamiltonian_matrix", counted)
    for members in (1, 7):
        calls.clear()
        gammas = np.linspace(0.1, 0.9, members)
        integrate_batch(gammas, SyncSech2(0.5, 1.0, 1.0), _E3, IntegratorConfig(0.0, 1.0), [1.0])
        assert len(calls) <= 2


def test_scan_sends_only_off_branch_points_to_one_solve(solver_calls):
    fixed = {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0}
    spec = ScanSpec("gamma", np.linspace(0.0, 2.0, 41), fixed, _E3, observables=((3, 1),))
    res = run_scan(spec)
    oracle_rows = sum(row.engine == ENGINE_ORACLE for row in res.rows)
    assert oracle_rows == 36  # gamma = 0, 0.5, 1, 1.5, 2 have closed forms
    assert solver_calls == [oracle_rows]


@pytest.fixture
def beside_scipy(monkeypatch):
    """Every oracle solve, run again by scipy's DOP853 on the same system.

    Records (ours, scipy's, rerun) per solve; rerun(**options) repeats the
    scipy solve with more solve_ivp options.
    """
    from functools import partial

    from scipy.integrate import solve_ivp as scipy_solve_ivp

    pairs = []
    ours = sodw.oracle.solve_ivp

    def both(fun, t_span, y0, *, t_eval, rtol, atol):
        sol = ours(fun, t_span, y0, t_eval=t_eval, rtol=rtol, atol=atol)

        def rhs(s, y):
            (coefficients,) = fun(np.array([s]))
            return fun.rate(coefficients, y)

        rerun = partial(scipy_solve_ivp, rhs, t_span, y0, method="DOP853", rtol=rtol, atol=atol)
        pairs.append((sol, rerun(t_eval=t_eval), rerun))
        return sol

    monkeypatch.setattr(sodw.oracle, "solve_ivp", both)
    return pairs


def _sync_batch(rng):
    gammas, states0, cfg = _mixed_batch(rng, 3)
    drives = SyncSech2(*np.array([[0.4, 0.9, 1.2], [1.1, 0.6, 0.5], [0.9, 1.3, 1.7]]))
    integrate_batch(gammas, drives, states0, cfg, np.linspace(0.0, 1.0, 31))


def _kick():
    # a short strong pulse after a quiet stretch: long steps run into it and are rejected
    drive = AsyncTanhSech(0.1, 8.0, 10.0)
    cfg = IntegratorConfig(-10.0, 10.0, rel_tol=1e-6, abs_tol=1e-8)
    integrate(0.3, drive, _E3, cfg, [-10.0, 2.5, 10.0])


def _dense_blocks():
    # 2001 samples on 80 amplitudes: the interpolant runs in several blocks
    rng = np.random.default_rng(89)
    gammas, states0, cfg = _mixed_batch(rng, 20)
    drives = AsyncTanhSech(*rng.uniform([0.05, 0.5, 0.5], [1.0, 3.0, 2.0], size=(20, 3)).T)
    integrate_batch(gammas, drives, states0, cfg, np.linspace(0.0, 1.0, 2001))


def _too_small_step():
    # numbers near 1e16 are 2 apart, far more than the step a rate of 1e8*y asks for
    span = (1e16, 1e16 + 64)
    sodw.oracle.solve_ivp(_Growth(1e8), span, _E3, t_eval=[span[1]], rtol=1e-10, atol=1e-12)


_SCIPY_CASES = {
    "criterion-11": lambda: run_all({11}),
    "criterion-4": lambda: run_all({4}),
    "figure-3a": lambda: build_figure("3a"),
    "sync-batch": lambda: _sync_batch(np.random.default_rng(73)),
    "rel_tol=1e-12": lambda: integrate(
        0.3,
        AsyncTanhSech(0.3, 1.0, 1.0),
        _random_state(np.random.default_rng(79)),
        IntegratorConfig(-10.0, 10.0, rel_tol=1e-12, abs_tol=1e-14),
        np.linspace(-9.3, 10.0, 41),
    ),
    # below 100*eps: rtol is clamped there
    "rel_tol=1e-15": lambda: integrate(
        0.5,
        SyncSech2(0.5, 1.0, 1.0),
        _E3,
        IntegratorConfig(0.0, 2.0, rel_tol=1e-15, abs_tol=1e-16),
        [1.0, 2.0],
    ),
    "endpoint-only": lambda: run_scan(
        ScanSpec(
            "gamma",
            np.linspace(0.0, 2.0, 9),
            {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0},
            _E3,
            observables=((3, 1),),
        )
    ),
    "rejects-steps": _kick,
    "dense-blocks": _dense_blocks,
    "too-small-step": _too_small_step,
}


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
@pytest.mark.parametrize("case", list(_SCIPY_CASES))
def test_dop853_matches_scipy_step_for_step(case, beside_scipy):
    _SCIPY_CASES[case]()
    assert beside_scipy
    for ours, ref, _ in beside_scipy:
        assert ours.success == ref.success == (case != "too-small-step")
        assert ours.message == ref.message
        assert ours.nfev == ref.nfev
        assert np.array_equal(ours.t, ref.t)
        if len(ref.t):
            assert np.array_equal(ours.y, ref.y)
        else:  # scipy leaves t and y empty lists when the solve reached no sample
            assert ours.y.size == 0 and len(ref.y) == 0
    if case == "too-small-step":
        ((ours, _, _),) = beside_scipy
        assert (ours.message, ours.nfev) == (sodw.oracle._TOO_SMALL_STEP, 14)
    if case == "endpoint-only":
        assert [ours.t.tolist() for ours, _, _ in beside_scipy] == [[1.0]]
    if case == "rejects-steps":
        ((_, _, rerun),) = beside_scipy
        dense = rerun(dense_output=True)
        steps = dense.sol.ts.size - 1
        # 2 evaluations pick the first step, 12 go into every attempt, 3 into each interpolant
        assert dense.nfev - 2 - 3 * steps > 12 * steps
    if case == "dense-blocks":
        ((ours, _, rerun),) = beside_scipy
        steps = rerun(dense_output=True).sol.ts.size - 1
        terms = _dop.INTERPOLATOR_POWER * ours.y.shape[0] * ours.y.itemsize
        assert steps > 3 * (sodw.oracle._DENSE_BLOCK_BYTES // terms)
