"""Numeric integrator against closed forms it never shares code with."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sodw.oracle
from sodw import (
    ENGINE_ORACLE,
    AsyncTanhSech,
    CustomDrive,
    IntegratorConfig,
    ScanSpec,
    SyncSech2,
    TrajectoryRecord,
    build_figure,
    compare_to_analytic,
    integrate,
    integrate_batch,
    run_all,
    run_scan,
    solve,
)

_E3 = (0, 0, 1, 0)


def test_pure_detuning_gives_free_phases():
    # ups = 0: each amplitude just rotates with its own Zeeman sign
    drive = CustomDrive(lambda t: 0.0, lambda t: 0.7)
    a0 = np.array([0.5, 0.5, 0.5j, -0.5], dtype=complex)
    grid = np.linspace(0.0, 5.0, 11)
    traj = integrate(0.4, drive, a0, IntegratorConfig(0.0, 5.0), grid)
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    exact = lambda t: a0 * np.exp(-1j * 0.7 * signs * t)
    assert compare_to_analytic(traj, exact) < 1e-9
    assert traj.norm_drift_max < 1e-8


def test_constant_coupling_is_a_plain_rotation():
    # gamma = 1, eps = 0: the left-up/right-up pair rotates at the bare rate
    drive = CustomDrive(lambda t: 0.8, lambda t: 0.0)
    grid = np.linspace(0.0, 6.0, 25)
    traj = integrate(1.0, drive, _E3, IntegratorConfig(0.0, 6.0), grid)
    exact = lambda t: np.array([-1j * math.sin(0.8 * t), 0.0, math.cos(0.8 * t), 0.0])
    assert compare_to_analytic(traj, exact) < 1e-9


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
    with pytest.raises(ValueError):
        integrate(0.5, proto, _E3, cfg, np.array([0.8, 0.2]))


def test_config_validation():
    with pytest.raises(ValueError, match="t_end > t_start"):
        IntegratorConfig(1.0, 1.0)
    with pytest.raises(ValueError, match="tolerances"):
        IntegratorConfig(0.0, 1.0, rel_tol=0.0)


def test_trajectory_record_accessors():
    times = np.array([0.0, 1.0, 2.0])
    states = np.array(
        [[1, 0, 0, 0], [0, 1j, 0, 0], [0, 0, 0.6, 0.8]],
        dtype=complex,
    )
    rec = TrajectoryRecord(times, states, None, "unit")
    assert_allclose(rec.norms, 1.0, atol=1e-15)
    assert rec.norm_drift_max == 0.0
    assert rec.population_array.shape == (3, 4)
    snap = rec.snapshot(2)
    assert snap.t == 2.0 and snap.P4 == pytest.approx(0.64)
    assert len(rec.snapshots) == 3
    with pytest.raises(ValueError, match="strictly increasing"):
        TrajectoryRecord(times[::-1], states, None, "unit")
    with pytest.raises(ValueError, match="shape"):
        TrajectoryRecord(times, states[:2], None, "unit")


def test_compare_modes():
    times = np.linspace(0.0, 1.0, 5)
    states = np.tile([0.6, 0.0, 0.8j, 0.0], (5, 1)).astype(complex)
    rec = TrajectoryRecord(times, states, None, "unit")
    same = lambda t: states[0]
    assert compare_to_analytic(rec, same) == 0.0
    shifted = lambda t: states[0] * np.exp(0.3j)
    assert compare_to_analytic(rec, shifted) > 0.1
    assert compare_to_analytic(rec, shifted, "global-phase-invariant") < 1e-15
    with pytest.raises(ValueError, match="phase_mode"):
        compare_to_analytic(rec, same, "loose")


def _random_state(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return a / np.linalg.norm(a)


def _mixed_batch(rng, protocols):
    # windows, couplings and states all differ from member to member
    members = []
    for protocol in protocols:
        t_lo = -rng.uniform(3.0, 12.0)
        cfg = IntegratorConfig(t_lo, t_lo + rng.uniform(5.0, 20.0))
        members.append((rng.uniform(0.0, 2.0), protocol, _random_state(rng), cfg))
    return members


@pytest.mark.parametrize("kind", ["sync", "async", "mixed"])
def test_batch_matches_member_by_member_integration(kind):
    rng = np.random.default_rng(61)
    sync = [SyncSech2(*rng.uniform([0, 0.3, 0.5], [2, 2, 2])) for _ in range(4)]
    asyn = [AsyncTanhSech(*rng.uniform([0, 0.05, 0.4], [2, 2, 2])) for _ in range(4)]
    custom = [CustomDrive(lambda t: 0.6 / math.cosh(t), lambda t: 0.2 * math.tanh(2 * t))]
    protocols = {"sync": sync, "async": asyn, "mixed": sync[:2] + custom + asyn[:2]}[kind]
    members = _mixed_batch(rng, protocols)
    fractions = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 20)), [1.0]])
    records = integrate_batch(members, fractions)
    assert len(records) == len(members)
    for (gamma, protocol, state0, cfg), rec in zip(members, records):
        times = cfg.t_start + fractions * (cfg.t_end - cfg.t_start)
        assert np.array_equal(rec.times, times)
        alone = integrate(gamma, protocol, state0, cfg, times)
        assert np.max(np.abs(rec.states - alone.states)) < 1e-9
        assert rec.solver_id == alone.solver_id and rec.protocol is protocol


def test_batch_of_one_is_integrate():
    proto = AsyncTanhSech(0.3, 1.0, 1.0)
    cfg = IntegratorConfig(0.0, 2.0)
    fractions = np.linspace(0.0, 1.0, 11)
    (rec,) = integrate_batch([(0.3, proto, _E3, cfg)], fractions)
    alone = integrate(0.3, proto, _E3, cfg, 2.0 * fractions)
    assert np.array_equal(rec.times, alone.times)
    assert np.array_equal(rec.states, alone.states)
    assert rec.solver_id == alone.solver_id
    assert rec.norm_drift_max == alone.norm_drift_max


def test_batch_validation():
    cfg = IntegratorConfig(0.0, 1.0)
    member = (0.5, SyncSech2(0.0, 1.0, 1.0), _E3, cfg)
    assert integrate_batch([], [0.0, 1.0]) == []
    with pytest.raises(ValueError, match="non-empty"):
        integrate_batch([member], [])
    with pytest.raises(ValueError, match="exceed"):
        integrate_batch([member], [0.5, 1.5])
    loose = (0.5, SyncSech2(0.0, 1.0, 1.0), _E3, IntegratorConfig(0.0, 1.0, rel_tol=1e-6))
    with pytest.raises(ValueError, match="share rel_tol"):
        integrate_batch([member, loose], [1.0])


def test_driven_member_keeps_its_solo_accuracy_among_idle_ones():
    # the error norm averages over all members, so without the per-member
    # tolerance rule a lone driven member would be held sqrt(N) times looser
    driven = SyncSech2(0.5, 3.0 * math.pi, 1.0)
    idle = SyncSech2(0.0, 0.0, 1.0)
    cfg = IntegratorConfig(-10.0, 10.0, rel_tol=1e-6, abs_tol=1e-8)
    grid = np.linspace(-10.0, 10.0, 41)
    exact = solve(driven, 0.3, _E3, -10.0).states(grid)
    solo = integrate(0.3, driven, _E3, cfg, grid)
    solo_err = float(np.max(np.abs(solo.states - exact)))
    members = [(0.3, driven, _E3, cfg)] + [(0.7, idle, _E3, cfg)] * 99
    batch = integrate_batch(members, (grid + 10.0) / 20.0)
    batch_err = float(np.max(np.abs(batch[0].states - exact)))
    assert solo_err > 1e-9  # loose enough that the tolerance, not round-off, sets the error
    assert batch_err < 1.5 * solo_err
    assert np.max(np.abs(batch[1].states - np.array(_E3))) < 1e-12


@pytest.fixture
def solver_calls(monkeypatch):
    calls = []
    solver = sodw.oracle.solve_ivp

    def counted(fun, t_span, y0, **kwargs):
        calls.append(len(y0) // 4)
        return solver(fun, t_span, y0, **kwargs)

    monkeypatch.setattr(sodw.oracle, "solve_ivp", counted)
    return calls


def test_criterion_11_makes_one_solve_per_branch(solver_calls):
    (record,) = run_all({11})
    assert record["passed"]
    assert solver_calls == [50, 50, 50]


def test_multi_start_figure_makes_one_solve(solver_calls):
    build_figure("3a")
    assert solver_calls == [5]


def test_scan_sends_only_off_branch_points_to_one_solve(solver_calls):
    fixed = {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0}
    spec = ScanSpec("gamma", np.linspace(0.0, 2.0, 41), fixed, _E3, observables=((3, 1),))
    res = run_scan(spec)
    oracle_rows = sum(row.engine == ENGINE_ORACLE for row in res.rows)
    assert oracle_rows == 36  # gamma = 0, 0.5, 1, 1.5, 2 have closed forms
    assert solver_calls == [oracle_rows]
