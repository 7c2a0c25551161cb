"""Independent numerical integration of the raw four-level equations.

This module never touches the analytic engines: it integrates
i*da/dt = H(t)*a directly with the adaptive embedded Runge-Kutta scheme
DOP853, and is the verification oracle for every exact solution as well as
the only solver for parameters off the analytic branches.  The problem is not
stiff (the matrix entries are bounded by the drive amplitudes), so an
explicit method is the right tool.

solve_ivp is scipy's DOP853 algorithm (scipy.integrate.solve_ivp with
method="DOP853"; Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.5, II.10)
in numpy, step for step: the same tableau, initial step, step-size control,
error norm and dense output, so it takes the same steps and the same number
of right-hand-side evaluations.  What it adds is that the system is linear,
dy/ds = M(s) y: one call gives the matrices M of all stages of a step, built
from the stacked drive values, in place of one Python right-hand side per
stage.  scipy itself is not needed.

integrate_batch advances N independent systems (coupling, drive, initial
state and window [a_i, b_i] per member) in one solve_ivp call.  The batch
state is the N x 4 amplitude array, flattened, and the batch runs in the
normalised time s in [0, 1]: member i sits at t_i = a_i + s*(b_i - a_i) and
obeys dy_i/ds = (b_i - a_i)*f_i(t_i, y_i).  One shared, increasing fraction
grid s_k then samples every member, member i at a_i + s_k*(b_i - a_i).
Every member's protocol is a SyncSech2 or an AsyncTanhSech, all of one class:
the batch stacks their fields into one drive of that class, whose values(t)
gives the drive values of all members at once.  The couplings are the
stacked hamiltonian_matrix of each member.

The error norm is an RMS over all 4N components, so a member's local error
weighs 1/sqrt(N) of what it would alone.  The batch divides rel_tol and
abs_tol by sqrt(N), which keeps each member's local-error test as strict as
in a solve of its own; shared step control then steps every member at least
as finely as it would be stepped alone.  integrate is the N = 1 case: it
samples exactly at the requested grid values (t_eval), never at
nearest-step substitutes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _dop853_coefficients as _dop
from .core import as_state, hamiltonian_matrix

_EPS = np.finfo(float).eps
# step-size control of scipy's explicit Runge-Kutta solvers
_SAFETY = 0.9  # multiply steps computed from the error estimate by this
_MIN_FACTOR = 0.2  # smallest allowed decrease of a step
_MAX_FACTOR = 10  # largest allowed increase of a step
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_FINISHED = "The solver successfully reached the end of the integration interval."

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "integrate_batch",
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


class IvpResult(NamedTuple):
    """What solve_ivp reports: samples t (K,), states y (n, K) and how it went."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


def solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol):
    """DOP853 on the block-diagonal linear system dy/ds = M(s) y, sampled at t_eval.

    fun(s) maps an array of K times to the (K, B, m, m) diagonal blocks of M
    at those times; y0 holds the B*m components of y, block by block.  One
    call gives the matrices of all stages of a step, or of the three extra
    stages of its dense output.  Otherwise this is the algorithm of
    scipy.integrate.solve_ivp(method="DOP853") step for step: its initial
    step, rtol clamped to >= 100*eps, its minimum step, SAFETY, MIN_FACTOR
    and MAX_FACTOR, the 5th/3rd-order error norm, the rejection rule, and
    dense output on the steps that hold t_eval points.  nfev counts the
    products M y, which are scipy's right-hand-side evaluations.  Only
    forward integration is supported: t_span[0] < t_span[1], and t_eval is
    an increasing grid within t_span.
    """
    t, t_bound = map(float, t_span)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    y = np.asarray(y0, dtype=complex)
    rtol = max(rtol, 100 * _EPS)
    n = y.size
    (m,) = fun(np.array([t]))
    blocks = m.shape[0]
    K = np.empty((_dop.N_STAGES_EXTENDED, n), dtype=complex)

    def rate(m, y):
        return (m @ y.reshape(blocks, -1, 1)).reshape(n)

    def fill(first, matrices, y, h):
        """Stages first, first + 1, ... of the step of size h from y; the last stage's state."""
        for s, m in enumerate(matrices, start=first):
            y_s = y + np.dot(K[:s].T, _dop.A[s, :s]) * h
            K[s] = rate(m, y_s)
        return y_s

    # initial step (Hairer, Norsett & Wanner, Sec. II.4), as scipy's select_initial_step
    f = rate(m, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    (m,) = fun(np.array([t + h0]))
    d2 = _rms((rate(m, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_bound - t)
    nfev = 2

    # K[1:13] are the stages of a step; the last has the weights B, so it is the
    # new solution at t + h and K[end] = f(t + h); K[13:16] serve dense output
    end = _dop.N_STAGES
    ts, ys = [], []
    i_eval = 0
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return _result(ts, ys, n, nfev, False, _TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            y_new = fill(1, fun(t + _dop.C[1 : end + 1] * h), y, h)
            nfev += end
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K[: end + 1].T, _dop.E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K[: end + 1].T, _dop.E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        t_old, y_old, f_old = t, y, f
        t, y, f = t_new, y_new, K[end].copy()
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:
            # dense output (Sec. II.6): three more stages, then scipy's interpolant
            fill(end + 1, fun(t_old + _dop.C[end + 1 :] * h), y_old, h)
            nfev += _dop.N_STAGES_EXTENDED - end - 1
            delta_y = y - y_old
            F = np.empty((_dop.INTERPOLATOR_POWER, n), dtype=complex)
            F[0] = delta_y
            F[1] = h * f_old - delta_y
            F[2] = 2 * delta_y - h * (f + f_old)
            F[3:] = h * np.dot(_dop.D, K)
            x = ((t_eval[i_eval:i_new] - t_old) / (t - t_old))[:, None]
            y_out = np.zeros((x.size, n), dtype=complex)
            for i, f_i in enumerate(F[::-1]):
                y_out += f_i
                y_out *= x if i % 2 == 0 else 1 - x
            ts.append(t_eval[i_eval:i_new])
            ys.append((y_out + y_old).T)
            i_eval = i_new
    return _result(ts, ys, n, nfev, True, _FINISHED)


def _result(ts, ys, n, nfev, success, message):
    t = np.concatenate(ts) if ts else np.empty(0)
    y = np.hstack(ys) if ys else np.empty((n, 0), dtype=complex)
    return IvpResult(t, y, nfev, success, message)


def _stacked_drive(protocols):
    """One drive of the batch's class whose fields stack the members' fields.

    The fields are stacked in dataclass field order, which differs between
    the drive classes, so a batch that mixes them is refused.
    """
    classes = {type(protocol) for protocol in protocols}
    if len(classes) != 1:
        names = sorted(cls.__name__ for cls in classes)
        raise ValueError(f"batch members must share one drive class, got {names}")
    (cls,) = classes
    return cls(*np.array([astuple(protocol) for protocol in protocols], dtype=float).T)


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
    rate = -1j * length[:, None, None]
    tunnel = rate * np.array([hamiltonian_matrix(g, 1.0, 0.0) for g in gammas])
    zeeman = rate * hamiltonian_matrix(0.0, 0.0, 1.0)
    drive = _stacked_drive(protocols)

    def stage_matrices(s):
        """dy/ds = M y of every member at the K fractions s: M has shape (K, N, 4, 4)."""
        ups, eps = drive.values(start + s[:, None] * length)
        return ups[..., None, None] * tunnel + eps[..., None, None] * zeeman

    y0 = np.concatenate([as_state(state0) for state0 in states0])
    # the error norm is an RMS over all 4N components, so a member's local
    # error weighs 1/sqrt(N); shrinking the tolerances restores its solo test
    shrink = math.sqrt(n)
    sol = solve_ivp(
        stage_matrices,
        (0.0, 1.0),
        y0,
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
        arguments of integrate without the grid; all protocols are of one
        class, all cfgs share rel_tol and abs_tol, and each cfg gives its
        member's window [t_start, t_end]
    fractions : strictly increasing window fractions s_k in [0, 1]

    Returns
    -------
    list of TrajectoryRecord, one per member, member i sampled at
    times t_start_i + s_k*(t_end_i - t_start_i).  Each member's tolerances
    hold as if it were integrated alone.
    """
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size < 1:
        raise ValueError("fractions must be a non-empty 1-d sequence")
    if np.any(np.diff(fractions) <= 0):
        raise ValueError("fractions must be strictly increasing")
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
            _solver_id(cfg),
        )
        for i, cfg in enumerate(cfgs)
    ]


def integrate(gamma, protocol, state0, cfg, sample_grid):
    """Integrate i*da/dt = H(t)*a and sample exactly on sample_grid.

    The one-member case of integrate_batch.

    Parameters
    ----------
    gamma : float
    protocol : SyncSech2 or AsyncTanhSech
    state0 : length-4 complex sequence, the state at cfg.t_start
    cfg : IntegratorConfig
    sample_grid : strictly increasing times within [t_start, t_end]

    Returns
    -------
    TrajectoryRecord
    """
    y0 = as_state(state0)
    grid = np.asarray(sample_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("sample_grid must be a non-empty 1-d time sequence")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("sample_grid must be strictly increasing")
    if grid[0] < cfg.t_start - 1e-12 or grid[-1] > cfg.t_end + 1e-12:
        raise ValueError(
            f"sample_grid [{grid[0]}, {grid[-1]}] exceeds window [{cfg.t_start}, {cfg.t_end}]"
        )
    fractions = np.clip((grid - cfg.t_start) / (cfg.t_end - cfg.t_start), 0.0, 1.0)
    states = _solve((gamma,), (protocol,), (y0,), (cfg,), fractions)
    return TrajectoryRecord(grid, states[:, 0], _solver_id(cfg))

