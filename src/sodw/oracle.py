"""Independent numerical integration of the raw four-level equations.

This module never touches the analytic engines: it integrates
i*da/dt = H(t)*a directly with scipy's adaptive embedded Runge-Kutta scheme
DOP853, and is the verification oracle for every exact solution as well as
the only solver for parameters off the analytic branches.  The problem is not
stiff (the matrix entries are bounded by the drive amplitudes), so an
explicit method is the right tool.

integrate_batch advances N independent systems (coupling, drive, initial
state and window [a_i, b_i] per member) in one solve_ivp call.  The batch
state is the N x 4 amplitude array, flattened, and the batch runs in the
normalised time s in [0, 1]: member i sits at t_i = a_i + s*(b_i - a_i) and
obeys dy_i/ds = (b_i - a_i)*f_i(t_i, y_i).  One shared, increasing fraction
grid s_k then samples every member, member i at a_i + s_k*(b_i - a_i).
Drive values come from one numpy expression per protocol class (its
drive_values over the stacked parameters); other drives, such as
CustomDrive, are evaluated member by member.  The couplings are the stacked
hamiltonian_matrix of each member.

scipy's error norm is an RMS over all 4N components, so a member's local
error weighs 1/sqrt(N) of what it would alone.  The batch divides rel_tol
and abs_tol by sqrt(N), which keeps each member's local-error test as strict
as in a solve of its own; shared step control then steps every member at
least as finely as it would be stepped alone.  integrate is the N = 1 case:
it samples exactly at the requested grid values (scipy's t_eval), never at
nearest-step substitutes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.integrate import solve_ivp

from .core import as_state, hamiltonian_matrix, populations

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "integrate_batch",
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


def _member_by_member(protocols):
    """values(t) -> (upsilon, epsilon) arrays, calling each protocol at its own time."""

    def values(t):
        ups = np.array([float(p.upsilon(tk)) for p, tk in zip(protocols, t)])
        eps = np.array([float(p.epsilon(tk)) for p, tk in zip(protocols, t)])
        return ups, eps

    return values


def _stacked_drive(protocols, start, length):
    """drive(s) -> (upsilon, epsilon) arrays over the members at fraction s.

    Members whose protocol class has drive_values share one numpy expression
    per class over their stacked parameters (in dataclass field order); other
    drives, such as CustomDrive, are evaluated member by member.
    """
    groups = {}
    for k, protocol in enumerate(protocols):
        cls = type(protocol)
        groups.setdefault(cls if hasattr(cls, "drive_values") else None, []).append(k)
    parts = []
    for cls, idx in groups.items():
        if cls is None:
            values = _member_by_member([protocols[k] for k in idx])
        else:
            params = np.array([astuple(protocols[k]) for k in idx], dtype=float).T
            values = partial(cls.drive_values, *params)
        parts.append((np.array(idx), values))
    if len(parts) == 1:
        values = parts[0][1]
        return lambda s: values(start + s * length)

    def drive(s):
        t = start + s * length
        ups = np.empty(t.size)
        eps = np.empty(t.size)
        for idx, values in parts:
            ups[idx], eps[idx] = values(t[idx])
        return ups, eps

    return drive


def _solve(gammas, protocols, states0, cfgs, fractions):
    """(K, N, 4) amplitudes of N members at the K fractions, from one DOP853 solve."""
    n = len(cfgs)
    tols = {(cfg.rel_tol, cfg.abs_tol) for cfg in cfgs}
    if len(tols) != 1:
        raise ValueError(f"batch members must share rel_tol and abs_tol, got {sorted(tols)}")
    ((rel_tol, abs_tol),) = tols
    start = np.array([cfg.t_start for cfg in cfgs])
    length = np.array([cfg.t_end - cfg.t_start for cfg in cfgs])
    # i*da/dt = (ups*H(gamma, 1, 0) + eps*H(gamma, 0, 1)) a and dt/ds = length;
    # the Zeeman part H(gamma, 0, 1) is diagonal and the same for every gamma
    rate = -1j * length
    tunnel = rate[:, None, None] * np.array([hamiltonian_matrix(g, 1.0, 0.0) for g in gammas])
    zeeman = rate[:, None] * np.diagonal(hamiltonian_matrix(0.0, 0.0, 1.0))
    drive = _stacked_drive(protocols, start, length)

    def rhs(s, y):
        ups, eps = drive(s)
        a = y.reshape(n, 4)
        da = ups[:, None] * (tunnel @ a[:, :, None])[:, :, 0] + eps[:, None] * zeeman * a
        return da.ravel()

    y0 = np.concatenate([as_state(state0) for state0 in states0])
    # scipy's error norm is an RMS over all 4N components, so a member's local
    # error weighs 1/sqrt(N); shrinking the tolerances restores its solo test
    shrink = math.sqrt(n)
    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        y0,
        method="DOP853",
        t_eval=fractions,
        rtol=rel_tol / shrink,
        atol=abs_tol / shrink,
    )
    if not sol.success:
        last = sol.t[-1] if sol.t.size else 0.0
        where = f"t={start[0] + last * length[0]:g}" if n == 1 else f"window fraction {last:g}"
        raise RuntimeError(f"integration failed near {where}: {sol.message}")
    states = sol.y.T.reshape(len(fractions), n, 4)
    if not np.all(np.isfinite(states)):
        raise RuntimeError("integration produced non-finite amplitudes")
    return states


def _solver_id(cfg):
    return f"dop853(rtol={cfg.rel_tol:g},atol={cfg.abs_tol:g})"


def integrate_batch(members, fractions):
    """Integrate N independent systems in one DOP853 solve.

    Parameters
    ----------
    members : sequence of (gamma, protocol, state0, cfg) tuples, the
        arguments of integrate without the grid; all cfgs share rel_tol and
        abs_tol, each gives its member's window [t_start, t_end]
    fractions : increasing window fractions s_k in [0, 1]

    Returns
    -------
    list of TrajectoryRecord, one per member, member i sampled at
    times t_start_i + s_k*(t_end_i - t_start_i).  Each member's tolerances
    hold as if it were integrated alone.
    """
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size < 1:
        raise ValueError("fractions must be a non-empty 1-d sequence")
    if fractions[0] < 0.0 or fractions[-1] > 1.0:
        raise ValueError(f"fractions [{fractions[0]}, {fractions[-1]}] exceed [0, 1]")
    if not members:
        return []
    gammas, protocols, states0, cfgs = zip(*members)
    states = _solve(gammas, protocols, states0, cfgs, fractions)
    return [
        TrajectoryRecord(
            cfg.t_start + fractions * (cfg.t_end - cfg.t_start),
            states[:, i],
            protocol,
            _solver_id(cfg),
        )
        for i, (protocol, cfg) in enumerate(zip(protocols, cfgs))
    ]


def integrate(gamma, protocol, state0, cfg, sample_grid):
    """Integrate i*da/dt = H(t)*a and sample exactly on sample_grid.

    The one-member case of integrate_batch.

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
    fractions = np.clip((grid - cfg.t_start) / (cfg.t_end - cfg.t_start), 0.0, 1.0)
    states = _solve((gamma,), (protocol,), (y0,), (cfg,), fractions)
    return TrajectoryRecord(grid, states[:, 0], protocol, _solver_id(cfg))


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
