"""Numeric integrator against closed forms it never shares code with."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sodw import (
    AsyncTanhSech,
    CustomDrive,
    IntegratorConfig,
    SyncSech2,
    TrajectoryRecord,
    compare_to_analytic,
    integrate,
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
