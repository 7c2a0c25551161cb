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
of right-hand-side evaluations.  What it adds is that the system is linear
with fixed matrices, dy/ds = u(s)*(T y) + e(s)*(z . y): T is the tunnel
matrix and z the Zeeman diagonal, both scaled by -i times the window length,
and u, e are the drive values.  One call gives the rate coefficients of all
stages of a step from the stacked drive values, the three dense-output
stages included when the step holds samples, and each stage's rate is then
u*(T y) + e*(z . y), with T y taken from the two entries in each row of T;
no 4x4 stage matrix is built.  The interpolant is evaluated in blocks of
steps, with the same operations per sample as scipy's, so every sample is
scipy's to the bit.  scipy itself is not needed.

integrate_batch takes the stacked arguments that analysis.solve takes: a
drive whose fields may be stacks, and a coupling, an initial state and a
window [a_i, b_i] each either per member or shared, all broadcast to the
members' shape S.  It advances the N members in one solve_ivp call.  The
batch state holds the 4N amplitudes, and the batch runs in the normalised
time s in [0, 1]: member i sits at t_i = a_i + s*(b_i - a_i) and obeys
dy_i/ds = (b_i - a_i)*f_i(t_i, y_i).  One shared, increasing fraction grid
s_k then samples every member, member i at a_i + s_k*(b_i - a_i), and the
drive's values(t) gives the drive values of all members at once.  The result
is one TrajectoryRecord whose times have shape (K,) + S.

The error norm is an RMS over all 4N components, so a member's local error
weighs 1/sqrt(N) of what it would alone.  The batch divides rel_tol and
abs_tol by sqrt(N), which keeps each member's local-error test as strict as
in a solve of its own; shared step control then steps every member at least
as finely as it would be stepped alone.  So a batch's step is set by its
most demanding member, and every member takes that many steps.  integrate
is the S = () case: it samples exactly at the requested grid values (t_eval),
never at nearest-step substitutes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _dop853_coefficients as _dop
from .core import _require_finite, as_state, as_states, hamiltonian_matrix

_EPS = float(np.finfo(float).eps)
# step-size control of scipy's explicit Runge-Kutta solvers
_SAFETY = 0.9  # multiply steps computed from the error estimate by this
_MIN_FACTOR = 0.2  # smallest allowed decrease of a step
_MAX_FACTOR = 10  # largest allowed increase of a step
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_FINISHED = "The solver successfully reached the end of the integration interval."
_STEP_NOT_FINITE = "Step size is not finite."
_ERROR_NOT_FINITE = "Error estimate is not finite."

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "integrate",
    "integrate_batch",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration window and DOP853 tolerances.

    t_start and t_end may be stacks, one window per member of a batch; the
    tolerances are one pair for the whole batch.
    """

    t_start: float
    t_end: float
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("t_start", "t_end", "rel_tol", "abs_tol"):
            _require_finite(name, getattr(self, name))
        if np.ndim(self.rel_tol) or np.ndim(self.abs_tol):
            raise ValueError("rel_tol and abs_tol must be scalars, one pair for the whole batch")
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0 < tol < 1:  # a tolerance of 1 or more holds no digit of a unit-norm state
                raise ValueError(f"tolerances must be > 0 and below 1, got {name}={tol:g}")
        if not np.all(np.asarray(self.t_end) > np.asarray(self.t_start)):
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled trajectories of members of shape S, tagged with the solver that produced them.

    times has shape (K,) + S and increases along its first axis; states has
    shape times.shape + (4,).  norm_drift_max, of shape S, is each member's
    largest deviation of norm^2 from its value at the first sample.
    """

    times: np.ndarray
    states: np.ndarray
    solver_id: str
    norm_drift_max: float = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim < 1 or states.shape != times.shape + (4,):
            raise ValueError(f"states shape {states.shape} does not match times {times.shape}")
        if np.any(np.diff(times, axis=0) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        norms = np.sum(np.abs(states) ** 2, axis=-1)
        drift = np.max(np.abs(norms - norms[:1]), axis=0, initial=0.0)
        object.__setattr__(self, "norm_drift_max", drift)

    @cached_property
    def population_array(self):
        return np.abs(self.states) ** 2


class IvpResult(NamedTuple):
    """What solve_ivp reports: samples t (K,), states y (n, K) and how it went."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size**0.5


# the tableau as complex numbers, so that no product with K converts it first;
# the conversion is exact, so the products are scipy's
_A, _E5, _E3 = (x.astype(complex) for x in (_dop.A, _dop.E5, _dop.E3))
# the nodes of the stages after the first: the 11 more of a step, its end, and
# the three extra stages of dense output
_C_NODES = _dop.C[1:]
_C_STEP = _C_NODES[: _dop.N_STAGES]
# queued dense steps are interpolated together once their terms F fill this many bytes
_DENSE_BLOCK_BYTES = 256 * 1024

# each row of H(gamma, 1, 0) couples its amplitude to the same spin (_SAME) and
# to the other spin (_OTHER) in the other well; H(gamma, 0, 1) is diagonal
_LEVELS = np.arange(4)
_SAME = np.array([2, 3, 0, 1])
_OTHER = np.array([3, 2, 1, 0])


class BatchRate:
    """Right-hand side dy/ds = u(s)*(T y) + e(s)*(z . y) of a batch of B members.

    Member b has the window [start_b, start_b + length_b], so its time is
    t = start_b + s*length_b, and (u, e) are its drive values at t.  Its
    tunnel matrix T_b = -i*length_b*H(gamma_b, 1, 0) and Zeeman diagonal
    z_b = -i*length_b*diag H(0, 0, 1) stay fixed.  Every row of T_b has two
    entries: the same spin and the other spin in the other well.  So a rate
    needs no 4x4 matrix, only three coefficients per amplitude (e*z and u
    times T's two entries of its row) and the amplitudes gathered into those
    three positions.  y holds the 4B amplitudes member by member: y[4*b + k]
    is level k of member b.
    """

    def __init__(self, gammas, drive, start, length):
        tunnel = hamiltonian_matrix(gammas, 1.0, 0.0)
        zeeman = np.diag(hamiltonian_matrix(0.0, 0.0, 1.0))
        members = len(tunnel)
        # (3, B, 4): z, then T's same-spin and other-spin entries of each row
        entries = np.stack(
            [
                np.broadcast_to(zeeman, (members, 4)),
                tunnel[:, _LEVELS, _SAME],
                tunnel[:, _LEVELS, _OTHER],
            ]
        )
        # a coefficient is -i*length*entry*(drive value), so its real part is
        # zero and its imaginary part is (drive value)*fixed
        self.fixed = (-length[:, None] * entries).reshape(3, -1)
        blocks = 4 * np.arange(members)[:, None]
        self.gather = np.stack([blocks + _LEVELS, blocks + _SAME, blocks + _OTHER]).reshape(3, -1)
        # where each coefficient's drive value sits in [epsilon | upsilon] of all members
        member = np.repeat(np.arange(members), 4)
        self.values_at = np.stack([member, member + members, member + members])
        self.drive = drive
        self.start = start
        self.length = length
        self._buffer = np.zeros((len(_C_NODES),) + self.fixed.shape, dtype=complex)

    def __call__(self, s):
        """The rate's coefficients at the K <= 15 fractions s, shape (K, 3, 4B).

        They are a view of a buffer that the next call overwrites: for a large
        batch, a new array at every step would be fresh memory, paid for in
        page faults.  Only the imaginary parts are written; the real parts stay
        the zeros the buffer was made with.
        """
        ups, eps = self.drive.values(self.start + s[:, None] * self.length)
        out = self._buffer[: s.size]
        values = np.concatenate((eps, ups), axis=1).take(self.values_at, axis=1)
        np.multiply(values, self.fixed, out=out.imag)
        return out

    def rate(self, coefficients, y, out=None):
        """dy/ds from one time's coefficients (3, 4B) and the amplitudes y (4B,)."""
        return np.add.reduce(coefficients * y.take(self.gather), axis=0, out=out)


# a step size or error estimate that overflows ends the solve as a failure, not a warning
@np.errstate(all="ignore")
def solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol):
    """DOP853 on dy/ds = fun.rate(fun(s), y), sampled at t_eval.

    fun is a BatchRate: fun(s) maps an array of K times to the coefficients
    of the rate at those times, and fun.rate(coefficients, y) evaluates it.
    One call gives the coefficients of all stages of an attempted step, and of
    the three extra stages of its dense output too when the step, if
    accepted, holds t_eval points.  The interpolant of those steps is
    evaluated in blocks of steps, each sample with the operations scipy
    applies to it.  Otherwise this is the algorithm of
    scipy.integrate.solve_ivp(method="DOP853") step for step: its initial
    step, rtol clamped to >= 100*eps, its minimum step, SAFETY, MIN_FACTOR
    and MAX_FACTOR, the 5th/3rd-order error norm, the rejection rule, and
    dense output on the steps that hold t_eval points.  The stage states and
    error estimates are the same products as scipy's: the error estimate is a
    small difference of large terms, so any other summation order moves the
    step sizes.  So steps, nfev and samples are scipy's to the bit.  nfev
    counts the rate evaluations, which are scipy's right-hand-side
    evaluations.  Only forward integration over a finite
    span is supported: t_span[0] < t_span[1], and t_eval is an increasing
    grid within t_span.  A step size or error estimate that is not finite
    ends the solve with success=False.
    """
    t, t_bound = map(float, t_span)
    if not (math.isfinite(t) and math.isfinite(t_bound) and t < t_bound):
        raise ValueError(f"t_span must be finite and increasing, got {t_span}")
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("Values in `t_eval` are not properly sorted.")
    samples = t_eval.tolist()
    y = np.asarray(y0, dtype=complex)
    rtol = max(float(rtol), 100 * _EPS)
    atol = float(atol)
    n = y.size
    dense = _DenseOutput(t_eval, n)
    rate = fun.rate
    K = np.empty((_dop.N_STAGES_EXTENDED, n), dtype=complex)
    end = _dop.N_STAGES
    # stage s has the state y + (K[:s].T @ A[s, :s])*h and writes its rate to K[s]
    stages = [(K[:s].T, _A[s, :s], K[s]) for s in range(1, _dop.N_STAGES_EXTENDED)]
    step_stages, dense_stages = stages[:end], stages[end:]
    k_error = K[: end + 1].T

    def fill(stages, coefficients, y, h):
        """The stages of the step of size h from y, from their coefficients; the last's state."""
        for (k, a, k_s), c in zip(stages, coefficients):
            y_s = y + k.dot(a) * h
            rate(c, y_s, out=k_s)
        return y_s

    def result(success, message):
        dense.evaluate()
        return _result(t_eval, dense.y_eval, i_eval, nfev, success, message)

    # initial step (Hairer, Norsett & Wanner, Sec. II.4), as scipy's select_initial_step
    f = rate(fun(np.array([t]))[0], y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _rms((rate(fun(np.array([t + h0]))[0], y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t_bound - t))
    nfev = 2

    # K[1:13] are the stages of a step; the last has the weights B, so it is
    # the new solution at t + h and K[end] = f(t + h); K[13:16] serve dense output
    i_eval = 0
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not math.isfinite(h_abs):
                return result(False, _STEP_NOT_FINITE)
            if h_abs < min_step:
                return result(False, _TOO_SMALL_STEP)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            # a step that reaches a sample, if accepted, needs its dense-output
            # stages too, so one call gives their coefficients as well
            holds_samples = i_eval < len(samples) and samples[i_eval] <= t_new
            coefficients = fun(t + (_C_NODES if holds_samples else _C_STEP) * h)
            K[0] = f
            y_new = fill(step_stages, coefficients, y, h)
            nfev += end
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = float(np.linalg.norm(k_error.dot(_E5) / scale)) ** 2
            err3 = float(np.linalg.norm(k_error.dot(_E3) / scale)) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if not math.isfinite(error_norm):
                return result(False, _ERROR_NOT_FINITE)
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
        if holds_samples:
            # dense output (Sec. II.6): three more stages, then scipy's interpolant
            fill(dense_stages, coefficients[end:], y_old, h)
            nfev += _dop.N_STAGES_EXTENDED - end - 1
            i_eval = bisect.bisect_right(samples, t, i_eval)
            dense.add(i_eval, t_old, t, y_old, y, f_old, f, K)
    return result(True, _FINISHED)


class _DenseOutput:
    """scipy's DOP853 interpolant at the samples of a solve, evaluated in blocks of steps.

    add() computes a step's interpolant terms F as scipy's Dop853DenseOutput
    does and queues them.  evaluate() then runs the Horner loop over the
    samples of all queued steps at once, with the operations scipy applies to
    each sample, so every value is scipy's.  A block is evaluated once its
    terms fill _DENSE_BLOCK_BYTES, which bounds the memory it holds.
    """

    def __init__(self, t_eval, n):
        self.t_eval = t_eval
        self.y_eval = np.empty((t_eval.size, n), dtype=complex)
        capacity = max(1, _DENSE_BLOCK_BYTES // (_dop.INTERPOLATOR_POWER * max(n, 1) * 16))
        self.F = np.empty((capacity, _dop.INTERPOLATOR_POWER, n), dtype=complex)
        self.y_old = np.empty((capacity, n), dtype=complex)
        self.first = 0  # the first sample not evaluated yet
        self.ends, self.spans = [], []  # per queued step: its last sample + 1, and (t_old, t)

    def add(self, end, t_old, t, y_old, y, f_old, f, K):
        """Queue the step from (t_old, y_old, f_old) to (t, y, f) with stages K.

        Its samples are the ones not evaluated yet before sample end.
        """
        step = len(self.ends)
        h = t - t_old
        delta_y = y - y_old
        F = self.F[step]
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (f + f_old)
        F[3:] = h * np.dot(_dop.D, K)
        self.y_old[step] = y_old
        self.ends.append(end)
        self.spans.append((t_old, t))
        if step + 1 == len(self.F):
            self.evaluate()

    def evaluate(self):
        """Evaluate the interpolant at the samples of every queued step, and empty the queue."""
        if not self.ends:
            return
        first, last = self.first, self.ends[-1]
        step = np.repeat(np.arange(len(self.ends)), np.diff(self.ends, prepend=first))
        t_old, t = np.array(self.spans)[step].T
        x = ((self.t_eval[first:last] - t_old) / (t - t_old))[:, None]
        one_minus_x = 1 - x
        y_out = self.y_eval[first:last]
        y_out[...] = 0
        for i in range(_dop.INTERPOLATOR_POWER):
            y_out += self.F[step, -1 - i]
            y_out *= one_minus_x if i % 2 else x
        y_out += self.y_old[step]
        self.first = last
        self.ends.clear()
        self.spans.clear()


def _result(t_eval, y_eval, count, nfev, success, message):
    """IvpResult with the first count samples, the ones the solve reached."""
    return IvpResult(t_eval[:count], y_eval[:count].T, nfev, success, message)


def _samples(name, values):
    """values as a float array, refused by name unless 1-d, non-empty, finite and increasing."""
    v = _require_finite(name, values)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if np.any(np.diff(v) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    return v


def integrate_batch(gamma, protocol, state0, cfg, fractions):
    """Integrate the members of a stacked drive in one DOP853 solve.

    Parameters
    ----------
    gamma : float, or one coupling per member
    protocol : SyncSech2 or AsyncTanhSech, whose fields may be stacks
    state0 : one length-4 state, or S + (4,): each member's state at its t_start
    cfg : IntegratorConfig; t_start and t_end may be stacks, one window per member
    fractions : strictly increasing window fractions s_k in [0, 1]

    The members' shape S is the broadcast shape of gamma, the drive's fields,
    state0 without its last axis and the window ends.

    Returns
    -------
    TrajectoryRecord with times of shape (K,) + S, member i sampled at
    t_start_i + s_k*(t_end_i - t_start_i), and states of shape
    (K,) + S + (4,).  Each member's tolerances hold as if it were integrated
    alone.
    """
    fractions = _samples("fractions", fractions)
    if fractions[0] < 0.0 or fractions[-1] > 1.0:
        raise ValueError(f"fractions [{fractions[0]}, {fractions[-1]}] exceed [0, 1]")
    solver_id = f"dop853(rtol={cfg.rel_tol:g},atol={cfg.abs_tol:g})"
    state0 = as_states(state0)
    start = np.asarray(cfg.t_start, dtype=float)
    length = np.asarray(cfg.t_end, dtype=float) - start
    fields = astuple(protocol)
    shape = np.broadcast_shapes(
        np.shape(gamma), state0.shape[:-1], length.shape, *map(np.shape, fields)
    )

    def flat(x):
        return np.broadcast_to(x, shape).ravel()

    start, length = flat(start), flat(length)
    times = (start + np.multiply.outer(fractions, length)).reshape(fractions.shape + shape)
    n = start.size
    if n == 0:
        return TrajectoryRecord(times, np.zeros(times.shape + (4,), complex), solver_id)
    rate = BatchRate(flat(gamma), type(protocol)(*map(flat, fields)), start, length)
    y0 = np.broadcast_to(state0, shape + (4,)).ravel()
    # the error norm is an RMS over all 4N components, so a member's local
    # error weighs 1/sqrt(N); shrinking the tolerances restores its solo test
    shrink = math.sqrt(n)
    sol = solve_ivp(
        rate,
        (0.0, 1.0),
        y0,
        t_eval=fractions,
        rtol=cfg.rel_tol / shrink,
        atol=cfg.abs_tol / shrink,
    )
    if not sol.success:
        last = sol.t[-1] if sol.t.size else 0.0
        where = f"t={start[0] + last * length[0]:g}" if n == 1 else f"window fraction {last:g}"
        raise RuntimeError(f"integration failed near {where}: {sol.message}")
    states = sol.y.T.reshape(times.shape + (4,))
    if not np.all(np.isfinite(states)):
        raise RuntimeError("integration produced non-finite amplitudes")
    return TrajectoryRecord(times, states, solver_id)


def integrate(gamma, protocol, state0, cfg, sample_grid):
    """Integrate i*da/dt = H(t)*a for one member and sample exactly on sample_grid.

    The S = () case of integrate_batch: state0 holds at cfg.t_start, and the
    strictly increasing sample_grid within the window is the record's times.
    A stacked gamma, drive field or window end is refused.
    """
    state0 = as_state(state0)
    window = (("t_start", cfg.t_start), ("t_end", cfg.t_end))
    for name, value in (("gamma", gamma), *vars(protocol).items(), *window):
        if np.ndim(value):
            raise ValueError(f"{name} is a stack: integrate solves one member; use integrate_batch")
    grid = _samples("sample_grid", sample_grid)
    if grid[0] < cfg.t_start - 1e-12 or grid[-1] > cfg.t_end + 1e-12:
        raise ValueError(
            f"sample_grid [{grid[0]}, {grid[-1]}] exceeds window [{cfg.t_start}, {cfg.t_end}]"
        )
    fractions = np.clip((grid - cfg.t_start) / (cfg.t_end - cfg.t_start), 0.0, 1.0)
    record = integrate_batch(gamma, protocol, state0, cfg, fractions)
    return TrajectoryRecord(grid, record.states, record.solver_id)
