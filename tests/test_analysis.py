"""Scan driver, engine routing, peak counting, asymptotic extraction."""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sodw import (
    AsyncTanhSech,
    IntegratorConfig,
    ScanSpec,
    SyncSech2,
    integrate,
    off_branch_reason,
    run_scan,
    select_engine,
    solve,
)
from sodw.analysis import ENGINE_ASYNC, ENGINE_ORACLE, ENGINE_SYNC, count_peaks, prominent_peaks
from sodw.figures import IC_RAMP, IC_THIRD
from sodw import asynchronous, sync
from sodw.asynchronous import route as async_route
from sodw.core import default_horizon, imbalance, stack_drives

_E3 = (0, 0, 1, 0)


def _flip_params(epsilon, chi):
    return AsyncTanhSech(epsilon, math.hypot(0.5 * chi, epsilon), chi)


def test_default_horizon():
    assert default_horizon(SyncSech2(0.0, 1.0, 0.5)) == 50.0
    assert default_horizon(SyncSech2(0.0, 1.0, 2.0)) == 25.0
    assert default_horizon(AsyncTanhSech(0.0, 1.0, 0.4)) == 62.5


def test_stacked_drives_get_a_horizon_per_member():
    # min(chi, 1.0) on a stack raised "truth value of an array ... is ambiguous"
    chi = np.array([1.0, 0.5, 2.0])
    omega = np.array([0.5, 1.0, 4.0])
    assert_allclose(default_horizon(AsyncTanhSech(0.4, 1.0, chi)), [25.0, 50.0, 25.0], rtol=0)
    assert_allclose(default_horizon(SyncSech2(0.5, 1.0, omega)), [50.0, 25.0, 25.0], rtol=0)
    assert type(default_horizon(AsyncTanhSech(0.4, 1.0, 0.5))) is float
    rng = np.random.default_rng(5)
    state0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state0 /= np.linalg.norm(state0)
    times = np.linspace(-3.0, 3.0, 7)[:, None]
    stacks = [(AsyncTanhSech(0.4, 1.0, chi), 2.0), (SyncSech2(0.5, 1.0, omega), 0.3)]
    for protocol, gamma in stacks:
        stacked = solve(protocol, gamma, state0, -math.inf)
        for k in range(3):
            fields = [np.asarray(v)[k] if np.ndim(v) else v for v in astuple(protocol)]
            alone = solve(type(protocol)(*fields), gamma, state0, -math.inf)
            assert np.max(np.abs(stacked.states(times)[:, k] - alone.states(times[:, 0]))) < 1e-12


def _branch_members(branch, rng, count=12):
    """(gamma, protocol) pairs drawn on one closed-form branch, or on both async ones in turn."""
    members = []
    for k in range(count):
        kind = ("conserving", "flip")[k % 2] if branch == "mixed" else branch
        if kind == "sync":
            members.append((rng.uniform(0, 2), SyncSech2(*rng.uniform([0, 0.3, 0.5], [2, 2, 2]))))
        elif kind == "conserving":
            gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
            members.append((gamma, AsyncTanhSech(*rng.uniform([0, 0.05, 0.4], [2, 2, 2]))))
        else:
            gamma = float(rng.choice([0.5, 1.5]))
            members.append((gamma, _flip_params(rng.uniform(0, 2), rng.uniform(0.4, 2))))
    return members


@pytest.mark.parametrize("branch", ["sync", "conserving", "flip", "mixed"])
def test_stack_with_a_start_per_member_is_member_by_member(branch):
    # one stack with its own state0 and t0 per member, one of them at -inf,
    # evaluated at its own times, is bit for bit the single-member solutions
    rng = np.random.default_rng(83)
    gammas, protocols = zip(*_branch_members(branch, rng))
    states0 = rng.standard_normal((len(gammas), 4)) + 1j * rng.standard_normal((len(gammas), 4))
    states0 /= np.linalg.norm(states0, axis=1, keepdims=True)
    t0 = -rng.uniform(1.0, 20.0, len(gammas))
    t0[3] = -math.inf
    times = np.linspace(-2.0, 1.0, 9)[:, None] * rng.uniform(1.0, 20.0, len(gammas))
    stack = solve(stack_drives(protocols), np.array(gammas), states0, t0).states(times)
    for k, (gamma, protocol) in enumerate(zip(gammas, protocols)):
        alone = solve(protocol, gamma, states0[k], t0[k]).states(times[:, k])
        assert np.array_equal(stack[:, k], alone), k
    # one drive and a stack of starts: one basis serves every start
    gamma, protocol = gammas[0], protocols[0]
    starts = solve(protocol, gamma, states0, t0[0])
    stack, limits = starts.states(times[:, :1]), starts.asymptotes()
    assert stack.shape == (times.shape[0], len(gammas), 4)
    assert limits.shape == (2, len(gammas), 4)
    for k, state0 in enumerate(states0):
        alone = solve(protocol, gamma, state0, t0[0])
        assert np.array_equal(stack[:, k], alone.states(times[:, 0])), k
        assert np.array_equal(limits[:, k], alone.asymptotes()), k


@pytest.mark.parametrize(
    "protocol,gamma", [(SyncSech2(0.0, 1.0, 1.0), 0.3), (AsyncTanhSech(0.4, 1.0, 1.0), 2.0)]
)
def test_states_refuse_a_time_that_is_not_finite(protocol, gamma):
    # a NaN time gave NaN amplitudes, and t = inf on the async drive NaN after a warning
    solution = solve(protocol, gamma, _E3, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^times must be finite.*asymptotes\(\)"):
            solution.states([0.0, bad])


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
    assert msg.startswith("no closed form at gamma=0.3:")
    msg = off_branch_reason(AsyncTanhSech(0.0, 1.0, 1.0), 1.000001)
    assert msg.startswith("no closed form at gamma=1.000001:")


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
    assert_allclose(res.values[:, 0], [-1.0, 1.0, -1.0, 1.0], atol=1e-9)


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
    total = res.values[:, 0] + res.values[:, 1]
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
    assert np.all(np.abs(res.values[:, 0]) <= 1.0 + 1e-9)


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
    z = res.values[:, 0]
    # integer ratio returns the start value, half-integer inverts it
    assert abs(z[0] - 1.0) < 1e-9
    assert abs(z[1] + 1.0) < 1e-9
    assert abs(z[2] - 1.0) < 1e-9


def test_scan_spec_refuses_a_missing_fixed_value():
    with pytest.raises(ValueError, match="^missing fixed value 'Omega'$"):
        ScanSpec("beta", [0.0, 1.0], {"gamma": 0.5, "V": 1.0}, _E3)


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


def test_late_epoch_scan_integrates_a_horizon_past_its_epoch():
    # the oracle window used to end at +horizon whatever the epoch, so a scan
    # whose epoch lies past the horizon failed every oracle row
    fixed = {"epsilon": 0.4, "upsilon": 1.1, "chi": 1.0}
    grid = np.linspace(0.1, 0.9, 5)
    spec = ScanSpec("gamma", grid, fixed, _E3, epoch=30.0, observables=((3, 1),))
    res = run_scan(spec)
    proto = AsyncTanhSech(0.4, 1.1, 1.0)
    for row in res.rows:
        assert row.error is None and row.engine == ENGINE_ORACLE
        p = integrate(row.param, proto, _E3, IntegratorConfig(30.0, 55.0), [55.0]).population_array
        assert abs(row.values[0] - (p[-1, 2] - p[-1, 0])) < 1e-6


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


def _criterion_13_series():
    # the series criterion 13 counts peaks on, each with its sign flip
    times = np.linspace(-25.0, 25.0, 2001)
    p = np.abs(solve(SyncSech2(0.0, math.pi / 2, 1.0), 0.15, IC_RAMP, -25.0).states(times)) ** 2
    a = solve(AsyncTanhSech(1.0, 1.0, 1.0), 2.0, IC_THIRD, -25.0).states(times)
    b = solve(AsyncTanhSech(1.0, 1.0, 2.0), 2.0, IC_THIRD, -12.5).states(
        np.linspace(-12.5, 12.5, 2001)
    )
    z, zb = (np.abs(x[:, 2]) ** 2 - np.abs(x[:, 0]) ** 2 for x in (a, b))
    return [p[:, 0], z, -z, zb, -zb]


def test_prominent_peaks_match_scipy_find_peaks():
    from scipy.signal import find_peaks

    rng = np.random.default_rng(43)
    series = [(v, 0.01) for v in _criterion_13_series()]
    for k in range(2000):
        # rounding the walk to 0-2 decimals makes ties and flat tops
        walk = np.round(np.cumsum(rng.standard_normal(rng.integers(3, 80))), k % 3)
        series.append((walk, (0.01, 0.3, 1.0)[k // 3 % 3]))
    flat_tops = 0
    for v, prominence in series:
        expected = find_peaks(v, prominence=prominence)[0]
        assert np.array_equal(prominent_peaks(v, prominence), expected), (v, prominence)
        flat_tops += int(np.count_nonzero(v[expected] == v[expected + 1]))
    assert flat_tops > 100


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
            far = np.abs(solve(proto, gamma, state0, t0).states(np.array([-60.0, 60.0]))) ** 2
            assert_allclose(early, far[0], atol=1e-9)
            assert_allclose(late, far[1], atol=1e-9)


_EPS = np.array([0.5, -0.3, 0.8, 0.0, 1.1])
_CHI = 0.9  # one chi for the stack, as in a scan, so it has one default horizon
# (protocol, gamma) per case: every engine and branch, one member and stacked;
# a random state fills all four levels, so both pairs of a branch are covered
_ANCHOR_CASES = {
    "sync": (SyncSech2(0.7, 1.3, 0.8), 0.37),
    "sync-stack": (
        SyncSech2(np.array([-1.2, 0.0, 0.4, 2.5, 0.7]), np.array([0.3, 1.0, 2.2, 1.3, 0.9]), 1.1),
        np.array([0.37, 1.0, 2.0 + 1.01e-9, 0.5, 3.0]),
    ),
    "conserving-even": (AsyncTanhSech(0.4, 1.3, 0.9), 2.0),
    "conserving-odd": (AsyncTanhSech(-0.6, 0.7, 1.4), 1.0),
    "flip-plus": (_flip_params(0.5, 0.9), 0.5),
    "flip-minus": (_flip_params(-0.3, 1.6), 1.5),
    # flip drives, so every member may take either branch
    "async-stack": (
        AsyncTanhSech(_EPS, np.hypot(0.5 * _CHI, _EPS), _CHI),
        np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
    ),
}


@pytest.mark.parametrize("t0", [-math.inf, -1.7, 0.4], ids=["t0=-inf", "t0=-1.7", "t0=0.4"])
@pytest.mark.parametrize("case", list(_ANCHOR_CASES))
def test_solution_reproduces_anchor_and_asymptotes(case, t0):
    protocol, gamma = _ANCHOR_CASES[case]
    rng = np.random.default_rng(47)
    state0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state0 /= np.linalg.norm(state0)
    solution = solve(protocol, gamma, state0, t0)
    sync = isinstance(protocol, SyncSech2)
    shape = np.shape(gamma)
    lead = (1,) * len(shape)
    # the anchor: -inf is exact on the sync drive, -default_horizon on the async one;
    # states() takes finite times only, and tanh(Omega*t) is exactly -1 at t = -1e300
    anchor = t0 if math.isfinite(t0) else -1e300 if sync else -default_horizon(protocol)
    anchored = solution.states(anchor)
    assert anchored.shape == shape + (4,)
    assert np.max(np.abs(anchored - state0)) <= 1e-12
    T = 40.0 / min(1.0, protocol.Omega if sync else protocol.chi)
    far = np.abs(solution.states(np.reshape([-T, T], (2,) + lead))) ** 2
    p = solution.asymptotes()
    assert p.shape == (2,) + shape + (4,)
    assert np.max(np.abs(p - far)) <= 1e-10
    times = np.reshape(np.linspace(-T, T, 9), (9,) + lead)
    assert_allclose(np.sum(np.abs(solution.states(times)) ** 2, axis=-1), 1.0, atol=1e-12)


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
    # the gate sits at |gamma - center| = 1e-9/pi: of the rows at center + k*3e-10,
    # k = -1, 0, 1 come from the closed form and the five on each side from the
    # oracle; at each epoch neighbouring rows, across the gate too, agree within 1e-8
    grid = center + 3e-10 * np.arange(-6, 7)
    rng = np.random.default_rng(45)
    state0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    gaps = {}
    for epoch in (0.0, -3.0, -math.inf):
        spec = ScanSpec(
            "gamma",
            grid,
            fixed,
            state0 / np.linalg.norm(state0),
            epoch=epoch,
            observables=((3, 1), (4, 2), ("L", "R")),
        )
        res = run_scan(spec)
        engines = [row.engine for row in res.rows]
        assert engines == [ENGINE_ORACLE] * 5 + [ENGINE_ASYNC] * 3 + [ENGINE_ORACLE] * 5, epoch
        values = np.array([row.values for row in res.rows])
        gaps[epoch] = np.max(np.abs(np.diff(values, axis=0)))
    assert max(gaps.values()) < 1e-8, gaps


def test_failed_oracle_batch_is_recorded_in_every_oracle_row(monkeypatch):
    def failing_batch(*args):
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


def _point_solution(swept, x, fixed, state0, epoch):
    # one grid point built by hand, solved on its own
    p = dict(fixed)
    if swept == "V_over_Omega":
        p["V"] = x * p["Omega"]
    elif swept == "upsilon_over_chi":
        p["upsilon"] = x * p["chi"]
    else:
        p[swept] = x
    if "chi" in p:
        protocol = AsyncTanhSech(p["epsilon"], p["upsilon"], p["chi"])
    else:
        protocol = SyncSech2(p["beta"], p["V"], p["Omega"])
    return solve(protocol, p["gamma"], state0, epoch)


_FLIP_FIXED = {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0}


@pytest.mark.parametrize(
    "swept,grid,fixed,epoch,engines",
    [
        # generic sync, negative splittings included
        ("beta", np.linspace(-2.0, 3.0, 11), {"gamma": 0.37, "V": 1.3, "Omega": 0.8}, 0.0,
         {ENGINE_SYNC}),
        # integer gamma: every member on the degenerate mask
        ("V_over_Omega", np.linspace(0.1, 3.0, 9), {"gamma": 1.0, "beta": 0.4, "Omega": 1.2},
         -math.inf, {ENGINE_SYNC}),
        # gamma = k +/- 1.01e-9 beside an integer gamma in one stack
        ("gamma", [1.0 - 1.01e-9, 1.0 + 1.01e-9, 2.0 - 1.01e-9, 2.0, 2.0 + 1.01e-9],
         {"beta": 0.7, "V": 1.1, "Omega": 1.0}, 0.0, {ENGINE_SYNC}),
        ("upsilon_over_chi", np.linspace(0.0, 3.0, 13), {"gamma": 2.0, "epsilon": 0.4, "chi": 0.9},
         -math.inf, {ENGINE_ASYNC}),
        ("upsilon_over_chi", np.linspace(0.0, 3.0, 13), {"gamma": 1.0, "epsilon": 0.4, "chi": 0.9},
         0.3, {ENGINE_ASYNC}),
        ("gamma", [-0.5, 0.5, 1.5, 2.5], _FLIP_FIXED, -math.inf, {ENGINE_ASYNC}),
        # conserving, flip and oracle rows in one sweep
        ("gamma", np.linspace(0.0, 2.0, 9), _FLIP_FIXED, -math.inf,
         {ENGINE_ASYNC, ENGINE_ORACLE}),
    ],
)
def test_batched_scan_rows_match_single_solutions(swept, grid, fixed, epoch, engines):
    rng = np.random.default_rng(46)
    state0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state0 /= np.linalg.norm(state0)
    observables = ((3, 1), (4, 2), ("L", "R"))
    res = run_scan(ScanSpec(swept, grid, fixed, state0, epoch, observables))
    assert {row.engine for row in res.rows} == engines
    for row in res.rows:
        assert row.error is None
        if row.engine == ENGINE_ORACLE:
            continue
        p_inf = _point_solution(swept, row.param, fixed, state0, epoch).asymptotes()[1]
        single = [imbalance(p_inf, s, q) for s, q in observables]
        assert np.max(np.abs(np.subtract(row.values, single))) <= 1e-14, row.param


@pytest.mark.parametrize(
    "swept,fixed",
    [
        ("beta", {"gamma": 0.5, "V": math.nan, "Omega": 1.0}),
        ("upsilon_over_chi", {"gamma": 2.0, "epsilon": math.nan, "chi": 1.0}),
        # a fixed gamma used to pass, and every row came out NaN
        ("V_over_Omega", {"gamma": math.nan, "Omega": 1.0}),
    ],
)
def test_scan_spec_refuses_a_nonfinite_fixed_value(swept, fixed):
    with pytest.raises(ValueError, match="must be finite, got nan"):
        ScanSpec(swept, [0.0, 0.5, 1.0], fixed, _E3)


def test_one_scan_mixes_closed_form_oracle_and_failed_rows():
    grid = [0.0, 0.3, 0.5, 1.0, math.inf]
    res = run_scan(ScanSpec("gamma", grid, _FLIP_FIXED, _E3, -math.inf))
    # only the last row fails, with the coupling's own refusal text
    assert res.errors == (None, None, None, None, "gamma must be finite, got inf")
    assert np.all(np.isnan(res.values[4]))
    drive = AsyncTanhSech(**_FLIP_FIXED)
    for k in (0, 2, 3):
        assert res.engines[k] == ENGINE_ASYNC
        p_inf = solve(drive, grid[k], _E3, -math.inf).asymptotes()[1]
        single = [imbalance(p_inf, 3, 1), imbalance(p_inf, 3, 2)]
        assert np.array_equal(res.values[k], single), grid[k]
    assert res.engines[1] == ENGINE_ORACLE
    horizon = default_horizon(drive)
    record = integrate(0.3, drive, _E3, IntegratorConfig(-horizon, horizon), [-horizon, horizon])
    p_end = record.population_array[-1]
    reference = [imbalance(p_end, 3, 1), imbalance(p_end, 3, 2)]
    assert np.max(np.abs(res.values[1] - reference)) <= 1e-9


_CONSERVING_SCAN = {"gamma": 1.0, "epsilon": 0.3, "chi": 1.0}


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_scan(ScanSpec("upsilon_over_chi", np.linspace(0, 2, 9), _CONSERVING_SCAN, _E3)),
        # conserving, flip and oracle points at once
        lambda: run_scan(ScanSpec("gamma", np.linspace(0, 2, 9), _FLIP_FIXED, _E3, -math.inf)),
        lambda: solve(AsyncTanhSech(**_FLIP_FIXED), [0.5, 1.0], _E3, -math.inf),
    ],
    ids=["conserving-scan", "mixed-scan", "solve"],
)
def test_the_branch_gate_runs_once_per_call(call, monkeypatch):
    # a scan gated its points, then solve() gated its closed-form points again
    calls = []

    def counted(protocol, gamma):
        calls.append(gamma)
        return async_route(protocol, gamma)

    monkeypatch.setattr(asynchronous, "route", counted)
    call()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "drive,gamma",
    [(AsyncTanhSech(0.3, 1.0, 1.0), 1e8), (AsyncTanhSech(0.3, 1.0, 1.0), 1e300)]
    + [(_flip_params(0.4, 1.0), 1e8 + 0.5)],
)
def test_a_large_gamma_on_a_branch_takes_the_closed_form(drive, gamma):
    # sin(pi * 1e8) evaluated to -3.9e-8, so these points went to the oracle
    assert select_engine(drive, gamma) == ENGINE_ASYNC
    assert off_branch_reason(drive, gamma) is None


def test_a_scan_refuses_an_unphysical_imbalance(monkeypatch):
    # no engine gives one: limits that double every amplitude stand in for a broken one
    modes = sync.modes

    def doubled(*args):
        evolve, constants, limits = modes(*args)
        return evolve, constants, lambda c: 2.0 * limits(c)

    monkeypatch.setattr(sync, "modes", doubled)
    fixed = {"gamma": 0.5, "V": 1.0, "Omega": 1.0}
    with pytest.raises(ValueError, match=r"^imbalance \S+ at beta=0\.0 is unphysical$"):
        run_scan(ScanSpec("beta", [0.0, 0.5], fixed, _E3))


def test_default_horizon_refuses_a_rate_that_overflows_it():
    with pytest.raises(ValueError, match=r"^default horizon 25/min\(chi, 1\) must be finite"):
        default_horizon(AsyncTanhSech(0.3, 1.0, 1e-308))
    with pytest.raises(ValueError, match=r"^default horizon 25/min\(Omega, 1\) must be finite"):
        default_horizon(SyncSech2(0.0, 1.0, [1.0, 1e-308]))
    # an async scan fails its oracle rows under that name
    fixed = {"epsilon": 0.3, "upsilon": 1.0, "chi": 1e-308}
    res = run_scan(ScanSpec("gamma", [0.1, 0.3], fixed, _E3))
    assert res.errors == ("default horizon 25/min(chi, 1) must be finite, got inf",) * 2


def test_a_finite_start_needs_no_default_horizon():
    # the horizon 25/min(chi, 1) overflows at chi = 1e-308 and refused these
    # conserving drives, although a start at a finite t0 never reads it
    p = solve(AsyncTanhSech(0.3, 1e-10, 1e-308), 1.0, _E3, 0.0).asymptotes()[1]
    assert_allclose(p, [0.957, 0.0, 0.043, 0.0], atol=1e-3)
    assert abs(p.sum() - 1.0) < 1e-12
    fixed = {"gamma": 1.0, "epsilon": 0.3, "chi": 1e-308}
    res = run_scan(ScanSpec("upsilon_over_chi", [1e298, 2e298], fixed, _E3, 0.0))
    assert res.errors == (None, None) and not res.failed.any()
    assert tuple(res.engines) == (ENGINE_ASYNC, ENGINE_ASYNC)
    # a start at -inf still reads the horizon, and is refused by its name
    with pytest.raises(ValueError, match=r"^default horizon 25/min\(chi, 1\) must be finite"):
        solve(AsyncTanhSech(0.3, 1e-10, 1e-308), 1.0, _E3, -math.inf)


def test_a_stack_forms_the_default_horizon_only_for_its_starts_at_minus_inf():
    # a stack with mixed epochs formed every member's horizon, so the chi = 1e-308
    # member, which starts at 0, refused the chi = 1 member's start at -inf
    stack = solve(AsyncTanhSech(0.3, 1e-10, np.array([1.0, 1e-308])), 1.0, _E3, [-math.inf, 0.0])
    alone = solve(AsyncTanhSech(0.3, 1e-10, 1e-308), 1.0, _E3, 0.0)
    assert np.array_equal(stack.asymptotes()[:, 1], alone.asymptotes())
    assert np.array_equal(stack.coeffs[1], alone.coeffs)
    assert_allclose(alone.asymptotes()[1], [0.957, 0.0, 0.043, 0.0], atol=1e-3)
    # a start at -inf at chi = 1e-308 still reads the horizon, and is refused by its name
    with pytest.raises(ValueError, match=r"^default horizon 25/min\(chi, 1\) must be finite"):
        solve(AsyncTanhSech(0.3, 1e-10, np.array([1.0, 1e-308])), 1.0, _E3, [0.0, -math.inf])


def _peak_over_result(solution, times):
    """Peak traced bytes of solution.states(times), after a warm-up, over the bytes it returns."""
    solution.states(times)
    tracemalloc.start()
    try:
        states = solution.states(times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / states.nbytes


def test_states_hold_no_matrix_per_sample():
    # states() built a (samples, members, 4, 4) basis and its product with the
    # constants: 6 to 8 times the bytes of the states it returned
    rng = np.random.default_rng(29)
    n = 50
    eps, chi = rng.uniform(-2.0, 2.0, 2 * n), rng.uniform(0.1, 3.0, 2 * n)
    ups = np.concatenate([rng.uniform(-3.0, 3.0, n), np.hypot(0.5 * chi[n:], eps[n:])])
    gamma = np.concatenate([rng.integers(-4, 5, n) * 1.0, rng.integers(-4, 4, n) + 0.5])
    states0 = rng.standard_normal((2 * n, 4)) + 1j * rng.standard_normal((2 * n, 4))
    states0 /= np.linalg.norm(states0, axis=1, keepdims=True)
    beta, V, omega = rng.uniform(-3.0, 3.0, n), rng.uniform(0.1, 3.0, n), rng.uniform(0.3, 2.0, n)
    times = np.linspace(-20.0, 20.0, 121)[:, None]
    cases = [
        (solve(AsyncTanhSech(eps, ups, chi), gamma, states0, 0.0), times),
        (solve(SyncSech2(beta, V, omega), rng.uniform(-2.0, 2.0, n), states0[:n], -3.0), times),
        (solve(SyncSech2(0.4, 1.3, 0.8), 0.3, states0[0], -math.inf), np.linspace(-25, 25, 2001)),
    ]
    for k, (solution, t) in enumerate(cases):
        assert _peak_over_result(solution, t) < 3.0, k


def test_only_a_fixed_value_refuses_the_whole_scan():
    fixed = {"gamma": 0.5, "V": math.nan, "Omega": 1.0}
    with pytest.raises(ValueError, match="^V must be finite, got nan$"):
        ScanSpec("beta", [0.0, 0.5], fixed, _E3)
    # a gamma that is not finite fails its own row, even as the only point
    flip = {"epsilon": 0.4, "upsilon": math.hypot(0.5, 0.4), "chi": 1.0}
    (row,) = run_scan(ScanSpec("gamma", [math.nan], flip, _E3)).rows
    assert row.engine == ENGINE_ORACLE and math.isnan(row.values[0])
    assert "gamma must be finite" in row.error


_CONSERVING = AsyncTanhSech(0.3, 1.0, 1.0)
# flip drives with constraint residual 0, about 1e-8 and -1.84
_FLIP_DRIVES = (
    AsyncTanhSech(math.sqrt(0.21), 0.5, 0.4),
    AsyncTanhSech(0.4, math.sqrt(0.41 - 1e-8), 1.0),
    AsyncTanhSech(0.4, 1.5, 1.0),
)
_GATE_CASES = (
    [pytest.param(SyncSech2(0.5, 1.2, 1.0), 0.3, id="sync")]
    + [
        pytest.param(_CONSERVING, center + offset, id=f"conserving-{center + offset!r}")
        for center in (0.0, 1.0, 2.0)
        for offset in (0.0, -1e-10, 1e-10, -1e-6, 1e-6)
    ]
    + [
        pytest.param(drive, gamma, id=f"flip-{gamma}-residual{k}")
        for gamma in (0.5, 1.5)
        for k, drive in enumerate(_FLIP_DRIVES)
    ]
    + [pytest.param(_CONSERVING, 0.3, id="neither-0.3")]
)


@pytest.mark.parametrize("protocol,gamma", _GATE_CASES)
def test_every_entry_point_gives_the_gates_answer(protocol, gamma):
    engine = select_engine(protocol, gamma)
    reason = off_branch_reason(protocol, gamma)
    try:
        solve(protocol, gamma, _E3, 0.0)
        refusal = None
    except ValueError as exc:
        refusal = str(exc)
    assert (engine == ENGINE_ORACLE) == (reason is not None) == (refusal is not None)
    if refusal is not None:
        assert refusal == reason
        codes, direct = async_route(protocol, gamma)
        assert codes == 0 and direct == reason
    # the drive's fields are the scan's fixed values under the same names
    (row,) = run_scan(ScanSpec("gamma", [gamma], vars(protocol), _E3)).rows
    assert row.engine == engine and row.error is None
