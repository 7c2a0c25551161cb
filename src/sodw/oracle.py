"""Independent numerical integration of the raw four-level equations.

This module never touches the analytic engines: it integrates
i*da/dt = H(t)*a directly with scipy's adaptive embedded Runge-Kutta scheme
DOP853, and is the verification oracle for every exact solution as well as
the only solver for parameters off the analytic branches.  The problem is not
stiff (the matrix entries are bounded by the drive amplitudes), so an
explicit method is the right tool.

Sampled times are exactly the requested grid values (scipy's t_eval), never
nearest-step substitutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .core import as_coupling, as_state, hamiltonian_matrix, populations

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "compare_to_analytic",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window and DOP853 tolerances."""

    t_start: float
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError(
                f"tolerances must be > 0, got rel_tol={self.rel_tol}, abs_tol={self.abs_tol}"
            )
        if not (self.t_end > self.t_start):
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectory tagged with the solver that produced it.

    states has shape (len(times), 4); norm_drift_max is the largest deviation
    of norm^2 from its initial value over the samples.
    """

    times: np.ndarray
    states: np.ndarray
    protocol: object
    solver_id: str
    norm_drift_max: float = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if states.shape != (times.size, 4):
            raise ValueError(f"states shape {states.shape} does not match {times.size} times")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        norms = np.sum(np.abs(states) ** 2, axis=1)
        drift = float(np.max(np.abs(norms - norms[0]))) if times.size else 0.0
        object.__setattr__(self, "norm_drift_max", drift)

    @cached_property
    def population_array(self):
        return np.abs(self.states) ** 2

    @cached_property
    def norms(self):
        return np.sum(self.population_array, axis=1)

    def snapshot(self, k):
        return populations(self.states[k], self.times[k])

    @property
    def snapshots(self):
        return [self.snapshot(k) for k in range(self.times.size)]


def _rhs_factory(gamma, protocol):
    g = as_coupling(gamma)
    coupling = hamiltonian_matrix(g, 1.0, 0.0)
    zeeman_signs = np.array([1.0, -1.0, 1.0, -1.0])

    def rhs(t, a):
        ups = float(protocol.upsilon(t))
        eps = float(protocol.epsilon(t))
        return -1j * (eps * zeeman_signs * a + ups * (coupling @ a))

    return rhs


def integrate(gamma, protocol, state0, cfg, sample_grid):
    """Integrate i*da/dt = H(t)*a and sample exactly on sample_grid.

    Parameters
    ----------
    gamma : SOCoupling or float
    protocol : object with upsilon(t)/epsilon(t)
    state0 : length-4 complex sequence, the state at cfg.t_start
    cfg : IntegratorConfig
    sample_grid : increasing times within [t_start, t_end]

    Returns
    -------
    TrajectoryRecord
    """
    y0 = as_state(state0)
    grid = np.asarray(sample_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("sample_grid must be a non-empty 1-d time sequence")
    if grid[0] < cfg.t_start - 1e-12 or grid[-1] > cfg.t_end + 1e-12:
        raise ValueError(
            f"sample_grid [{grid[0]}, {grid[-1]}] exceeds window [{cfg.t_start}, {cfg.t_end}]"
        )
    sol = solve_ivp(
        _rhs_factory(gamma, protocol),
        (cfg.t_start, cfg.t_end),
        y0,
        method="DOP853",
        t_eval=grid,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
    )
    if not sol.success:
        last = sol.t[-1] if sol.t.size else cfg.t_start
        raise RuntimeError(f"integration failed near t={last:g}: {sol.message}")
    states = sol.y.T
    if not np.all(np.isfinite(states)):
        raise RuntimeError("integration produced non-finite amplitudes")
    solver_id = f"dop853(rtol={cfg.rel_tol:g},atol={cfg.abs_tol:g})"
    return TrajectoryRecord(grid, states, protocol, solver_id)


def compare_to_analytic(traj, analytic_eval, phase_mode="strict"):
    """Max amplitude-vector distance between a trajectory and an analytic solution.

    analytic_eval maps a scalar time to a length-4 amplitude vector.  In
    "global-phase-invariant" mode a single phase is first chosen to maximize
    the overlap at the initial sample, then the strict distance is measured.
    """
    ana = np.array([np.asarray(analytic_eval(t), dtype=complex) for t in traj.times])
    if phase_mode == "global-phase-invariant":
        overlap = np.vdot(ana[0], traj.states[0])
        if abs(overlap) > 0:
            ana = ana * (overlap / abs(overlap))
    elif phase_mode != "strict":
        raise ValueError(f"phase_mode must be 'strict' or 'global-phase-invariant', got {phase_mode!r}")
    return float(np.max(np.linalg.norm(traj.states - ana, axis=1)))
