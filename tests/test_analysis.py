"""Scan driver, engine routing, peak counting, asymptotic extraction."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sodw import (
    ENGINE_ASYNC,
    ENGINE_ORACLE,
    ENGINE_SYNC,
    AsyncTanhSech,
    CustomDrive,
    IntegratorConfig,
    ScanSpec,
    SyncSech2,
    asymptotic_extract,
    count_peaks,
    default_horizon,
    imbalance,
    integrate,
    off_branch_reason,
    run_scan,
    select_engine,
    solve,
)

_E3 = (0, 0, 1, 0)


def _flip_params(epsilon, chi):
    return AsyncTanhSech(epsilon, math.hypot(0.5 * chi, epsilon), chi)


def test_default_horizon():
    assert default_horizon(SyncSech2(0.0, 1.0, 0.5)) == 50.0
    assert default_horizon(SyncSech2(0.0, 1.0, 2.0)) == 25.0
    assert default_horizon(AsyncTanhSech(0.0, 1.0, 0.4)) == 62.5
    with pytest.raises(ValueError):
        default_horizon(CustomDrive(lambda t: 0.0, lambda t: 0.0))


def test_select_engine_routing():
    assert select_engine(SyncSech2(1.0, 2.0, 1.0), 0.37) == ENGINE_SYNC
    assert select_engine(AsyncTanhSech(0.3, 1.0, 1.0), 1.0) == ENGINE_ASYNC
    assert select_engine(_flip_params(0.4, 1.0), 0.5) == ENGINE_ASYNC
    # flip angle but the parameter constraint is violated
    assert select_engine(AsyncTanhSech(0.0, 1.0, 1.0), 0.5) == ENGINE_ORACLE
    assert select_engine(AsyncTanhSech(0.3, 1.0, 1.0), 0.3) == ENGINE_ORACLE


def test_off_branch_reason_strings():
    msg = off_branch_reason(AsyncTanhSech(0.0, 1.0, 1.0), 0.5)
    assert "flip-branch constraint" in msg and "residual" in msg
    msg = off_branch_reason(AsyncTanhSech(0.0, 1.0, 1.0), 0.3)
    assert "cos(pi*gamma)" in msg and "sin(pi*gamma)" in msg
    assert "protocol" in off_branch_reason(CustomDrive(lambda t: 0, lambda t: 0), 0.5)


def test_scan_spec_validation():
    ok = dict(grid=[0.0, 1.0], fixed={"gamma": 0.5, "V": 1.0, "Omega": 1.0}, state0=_E3)
    spec = ScanSpec("beta", **ok)
    assert spec.observables == ((3, 1), (3, 2))
    with pytest.raises(ValueError, match="swept"):
        ScanSpec("chi", **ok)
    with pytest.raises(ValueError, match="monotone"):
        ScanSpec("beta", [0.0, 2.0, 1.0], ok["fixed"], _E3)
    with pytest.raises(ValueError, match="non-empty"):
        ScanSpec("beta", [], ok["fixed"], _E3)
    with pytest.raises(ValueError, match="epoch"):
        ScanSpec("beta", [0.0, 1.0], ok["fixed"], _E3, epoch=math.inf)


def test_splitting_scan_matches_two_level_formula():
    spec = ScanSpec(
        "beta",
        np.array([0.0, 0.5, 1.0, 2.0]),
        {"gamma": 0.5, "V": 0.5 * math.pi, "Omega": 1.0},
        _E3,
        epoch=0.0,
    )
    res = run_scan(spec)
    assert all(row.engine == ENGINE_SYNC and row.error is None for row in res.rows)
    for row in res.rows:
        r = math.hypot(1.0, row.param)
        p2 = math.sin(r * 0.5 * math.pi) ** 2 / r**2
        assert abs(row.values[0] - (1.0 - p2)) < 1e-12
        assert abs(row.values[1] - (1.0 - 2.0 * p2)) < 1e-12


def test_pulse_area_scan_alternates_return_and_inversion():
    spec = ScanSpec(
        "V_over_Omega",
        np.array([0.5, 1.0, 1.5, 2.0]) * math.pi,
        {"gamma": 1.0, "beta": 0.0, "Omega": 1.0},
        _E3,
        epoch=0.0,
        observables=((3, 1),),
    )
    res = run_scan(spec)
    assert_allclose(res.observable_column(0), [-1.0, 1.0, -1.0, 1.0], atol=1e-9)


def test_angle_scan_sum_rule():
    # half-pi pulse area from epoch 0 always empties the left well, so the
    # two imbalances sum to -1 across the whole angle grid
    spec = ScanSpec(
        "gamma",
        np.linspace(0.0, 2.0, 9),
        {"beta": 0.0, "V": 0.5 * math.pi, "Omega": 1.0},
        _E3,
        epoch=0.0,
    )
    res = run_scan(spec)
    total = res.observable_column(0) + res.observable_column(1)
    assert_allclose(total, -1.0, atol=1e-9)


def test_angle_scan_routes_async_branches():
    spec = ScanSpec(
        "gamma",
        np.array([0.0, 0.5, 1.0, 1.3]),
        {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0},
        _E3,
        epoch=-math.inf,
    )
    res = run_scan(spec)
    engines = [row.engine for row in res.rows]
    assert engines == [ENGINE_ASYNC, ENGINE_ASYNC, ENGINE_ASYNC, ENGINE_ORACLE]
    assert all(row.error is None for row in res.rows)
    assert np.all(np.abs(res.observable_column(0)) <= 1.0 + 1e-9)


def test_pulse_ratio_scan_conserving_conditions():
    spec = ScanSpec(
        "upsilon_over_chi",
        np.array([1.0, 1.5, 2.0]),
        {"gamma": 0.0, "epsilon": 0.3, "chi": 0.8},
        _E3,
        epoch=-math.inf,
        observables=((3, 1),),
    )
    res = run_scan(spec)
    z = res.observable_column(0)
    # integer ratio returns the start value, half-integer inverts it
    assert abs(z[0] - 1.0) < 1e-9
    assert abs(z[1] + 1.0) < 1e-9
    assert abs(z[2] - 1.0) < 1e-9


def test_scan_failure_recorded_per_row():
    spec = ScanSpec("beta", [0.0, 1.0], {"gamma": 0.5, "V": 1.0}, _E3)  # Omega missing
    res = run_scan(spec)
    assert len(res.rows) == 2
    for row in res.rows:
        assert row.error is not None
        assert all(math.isnan(v) for v in row.values)


def test_oracle_point_agrees_with_manual_integration():
    fixed = {"epsilon": 0.3, "upsilon": 1.0, "chi": 1.0}
    spec = ScanSpec("gamma", [0.3], fixed, _E3, epoch=-math.inf, observables=((3, 1),))
    res = run_scan(spec)
    assert res.rows[0].engine == ENGINE_ORACLE
    proto = AsyncTanhSech(fixed["epsilon"], fixed["upsilon"], fixed["chi"])
    T = default_horizon(proto)
    grid = np.linspace(-T, T, 501)
    traj = integrate(0.3, proto, _E3, IntegratorConfig(-T, T), grid)
    z = traj.population_array[-1, 2] - traj.population_array[-1, 0]
    assert abs(res.rows[0].values[0] - z) < 1e-9


def test_count_peaks():
    t = np.linspace(-10.0, 10.0, 2001)
    assert count_peaks(t, np.ones_like(t), (-5.0, 5.0), 0.01) == 0
    v = 1.0 / np.cosh(t) ** 2
    assert count_peaks(t, v, (-5.0, 5.0), 0.01) == 1
    w = np.cos(t)  # maxima at 0, +-2pi inside the window
    assert count_peaks(t, w, (-7.0, 7.0), 0.1) == 3
    assert count_peaks(t, w, (-1.0, 1.0), 0.1) == 1
    with pytest.raises(ValueError, match="window"):
        count_peaks(t, v, (-20.0, 5.0), 0.01)
    with pytest.raises(ValueError, match="window"):
        count_peaks(t, v, (5.0, -5.0), 0.01)
    with pytest.raises(ValueError, match="prominence"):
        count_peaks(t, v, (-5.0, 5.0), 0.0)
    with pytest.raises(ValueError, match="samples"):
        count_peaks([0.0, 1.0], [0.0, 1.0], (0.0, 1.0), 0.01)


def test_count_peaks_shift_and_scale_invariance():
    rng = np.random.default_rng(41)
    t = np.linspace(-8.0, 8.0, 1601)
    v = np.exp(-((t - 1.3) ** 2)) + 0.8 * np.exp(-((t + 2.1) ** 2) / 0.5)
    base = count_peaks(t, v, (-6.0, 6.0), 0.05)
    assert base == 2
    for _ in range(5):
        shift = rng.uniform(-3.0, 3.0)
        scale = rng.uniform(0.5, 4.0)
        assert count_peaks(t + shift, v, (-6.0 + shift, 6.0 + shift), 0.05) == base
        assert count_peaks(t, scale * v, (-6.0, 6.0), 0.05 * scale) == base


def test_asymptotic_extract_settles():
    proto = SyncSech2(0.5, 0.5 * math.pi, 1.0)
    T = default_horizon(proto)
    times = np.linspace(-T, T, 801)
    states = solve(proto, 0.5, _E3, -math.inf).states(times)
    from sodw import TrajectoryRecord

    rec = TrajectoryRecord(times, states, proto, "sync-exact")
    first, last, settled = asymptotic_extract(rec)
    assert settled
    assert first.P3 == pytest.approx(1.0, abs=1e-9)
    assert first.t == -T and last.t == T
    # a window ending at the pulse peak is still moving
    mid = TrajectoryRecord(times[:401], states[:401], proto, "sync-exact")
    assert not asymptotic_extract(mid)[2]


def test_exact_trajectory_dispatch_and_refusal():
    times = np.linspace(-10.0, 10.0, 21)
    sync_states = solve(SyncSech2(0.0, 1.0, 1.0), 0.25, _E3, -math.inf).states(times)
    assert sync_states.shape == (21, 4)
    flip = _flip_params(0.4, 1.0)
    async_states = solve(flip, 0.5, _E3, -math.inf).states(times)
    assert async_states.shape == (21, 4)
    assert_allclose(np.linalg.norm(async_states, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="no closed form"):
        solve(AsyncTanhSech(0.3, 1.0, 1.0), 0.3, _E3, -math.inf)
    with pytest.raises(ValueError, match="flip-branch constraint"):
        solve(AsyncTanhSech(0.0, 1.0, 1.0), 0.5, _E3, 0.0)


def test_exact_state_fn_anchor():
    # a state given at -inf holds at -default_horizon on the async branches
    flip = _flip_params(0.3, 0.5)
    past = solve(flip, 0.5, _E3, -math.inf)
    assert np.linalg.norm(past.states(-default_horizon(flip)) - np.asarray(_E3)) < 1e-12
    center = solve(flip, 0.5, _E3, 0.0)
    assert np.linalg.norm(center.states(0.0) - np.asarray(_E3)) < 1e-12


def test_infinite_past_has_one_meaning():
    # the trajectory grid, the point-by-point states and the scan row must
    # all put a state given at t0 = -inf at the same place
    proto = AsyncTanhSech(1.0, 1.0, 1.0)
    state0 = (0.5, 0.0, math.sqrt(3.0) / 2, 0.0)
    times = np.linspace(-5.0, 5.0, 11)
    solution = solve(proto, 2.0, state0, -math.inf)
    states = solution.states(times)
    for t, row in zip(times, states):
        assert np.linalg.norm(solution.states(t) - row) <= 1e-12
    p_inf = solution.asymptotes()[1]
    fixed = {"epsilon": 1.0, "upsilon": 1.0, "chi": 1.0}
    observables = ((3, 1), (3, 2), ("L", "R"))
    spec = ScanSpec("gamma", [2.0], fixed, state0, epoch=-math.inf, observables=observables)
    (row,) = run_scan(spec).rows
    assert row.engine == ENGINE_ASYNC
    for value, (s, q) in zip(row.values, observables):
        assert abs(value - imbalance(p_inf, s, q)) <= 1e-12
    # phi_u has saturated to round-off by t = 40, so the trajectory itself
    # lands on the scan row
    p_late = np.abs(solution.states(40.0)) ** 2
    assert abs(row.values[0] - (p_late[2] - p_late[0])) <= 1e-12


def test_asymptotes_match_late_states():
    rng = np.random.default_rng(42)
    cases = [
        (SyncSech2(0.7, 1.3, 0.8), 0.37),
        (AsyncTanhSech(0.4, 1.3, 0.9), 1.0),
        (_flip_params(0.5, 0.9), 1.5),
    ]
    for proto, gamma in cases:
        state0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state0 /= np.linalg.norm(state0)
        for t0 in (-math.inf, 0.4):
            early, late = solve(proto, gamma, state0, t0).asymptotes()
            assert early.t == -math.inf and late.t == math.inf
            far = np.abs(solve(proto, gamma, state0, t0).states(np.array([-60.0, 60.0]))) ** 2
            assert_allclose(early.pvec, far[0], atol=1e-9)
            assert_allclose(late.pvec, far[1], atol=1e-9)


@pytest.mark.parametrize(
    "center,fixed",
    [
        (1.0, {"epsilon": 1.0, "upsilon": 1.0, "chi": 1.0}),
        (2.0, {"epsilon": 0.3, "upsilon": 0.7, "chi": 1.3}),
        (0.5, {"epsilon": math.sqrt(0.21), "upsilon": 0.5, "chi": 0.4}),
        (1.5, {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0}),
    ],
)
def test_scan_is_continuous_across_the_branch_gate(center, fixed):
    # the gate sits at |gamma - center| = 1e-9/pi; rows just inside come from
    # the closed form, rows just outside from the oracle
    offsets = np.array([-1e-9, -1e-10, 1e-10, 1e-9])
    rng = np.random.default_rng(45)
    state0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    spec = ScanSpec(
        "gamma",
        center + offsets,
        fixed,
        state0 / np.linalg.norm(state0),
        epoch=-math.inf,
        observables=((3, 1), (4, 2), ("L", "R")),
    )
    res = run_scan(spec)
    engines = [row.engine for row in res.rows]
    assert engines == [ENGINE_ORACLE, ENGINE_ASYNC, ENGINE_ASYNC, ENGINE_ORACLE]
    values = np.array([row.values for row in res.rows])
    assert np.max(values.max(axis=0) - values.min(axis=0)) < 1e-6


def test_failed_oracle_batch_is_recorded_in_every_oracle_row(monkeypatch):
    def failing_batch(members, fractions):
        raise RuntimeError("integration failed near window fraction 0.5: step size too small")

    monkeypatch.setattr("sodw.analysis.integrate_batch", failing_batch)
    fixed = {"epsilon": 0.3, "upsilon": 1.0, "chi": 1.0}
    spec = ScanSpec("gamma", [0.0, 0.3, 0.7, 1.0], fixed, _E3, observables=((3, 1),))
    res = run_scan(spec)
    assert [row.engine for row in res.rows] == [
        ENGINE_ASYNC, ENGINE_ORACLE, ENGINE_ORACLE, ENGINE_ASYNC
    ]
    for row in res.rows[1:3]:
        assert "step size too small" in row.error and math.isnan(row.values[0])
    assert res.rows[0].error is None and res.rows[3].error is None
