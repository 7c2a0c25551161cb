"""Parameter scans, peak counting, engine dispatch.

A protocol is a SyncSech2 or an AsyncTanhSech, whose fields may be stacks of
members.  A scan sweeps one parameter (beta, V_over_Omega, gamma or
upsilon_over_chi) of one drive class and records asymptotic population
imbalances per grid point.  Each point is routed to the cheapest engine that
is valid there: the synchronous closed form covers every synchronous
protocol, the asynchronous closed form covers the spin-conserving branch
(cos pi*gamma = +-1) and the spin-flipping branch on its parameter surface,
and everything else falls back to the numeric oracle.  The engine used is
recorded per row.  A ScanSpec builds its grid's parameters once, as a stack
of drives, and so refuses a bad fixed value; run_scan solves the stack its
ScanSpec built, taking each group of points from it by index, the stacked
fields only: its closed-form points are solved in one array pass, and its
oracle points go to integrate_batch as one stack of drives with one window
per member.

_route reads the branch gate, route(), of the drive's engine (sync or
asynchronous, keyed by its KIND): a code per member, 0 where no closed form
covers it, and the one refusal text.  solve(), run_scan, select_engine and
off_branch_reason all read it, so every entry point gives the same answer at
the same (drive, gamma), and a scan gates its points once.

solve() is the one entry point to the closed forms.  Each engine's
modes(drive, gamma, codes) takes the gate's codes and returns what acts on
states: evolve(t, c), the state a(t) of the four mode constants c;
constants(t0, a0), the exact constants of a state a0 given at t0, finite or
-inf; and limits(c), the states at -/+inf, with P(-/+inf) = |limits(c)|^2.
Solution keeps c = constants(t0, a0), with the shape of the members and the
four constants last, and builds no complex matrix per member or per sample;
the initial state may differ from member to member together with its time,
and populations are plain arrays with the four levels on their last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import asynchronous as asyn
from . import sync
from .core import AsyncTanhSech, SyncSech2, as_state, as_states, coupling_values, default_horizon
from .core import _imbalance_keys, _require_epoch, _require_finite, imbalance, start_time
from .oracle import IntegratorConfig, integrate_batch

__all__ = [
    "ENGINE_SYNC",
    "ENGINE_ASYNC",
    "ENGINE_ORACLE",
    "SWEPT_NAMES",
    "ScanSpec",
    "ScanRow",
    "ScanResult",
    "run_scan",
    "count_peaks",
    "prominent_peaks",
    "select_engine",
    "off_branch_reason",
    "Solution",
    "solve",
]

ENGINE_SYNC = "sync-exact"
ENGINE_ASYNC = "async-exact"
ENGINE_ORACLE = "oracle"

SWEPT_NAMES = ("beta", "V_over_Omega", "gamma", "upsilon_over_chi")

# the closed-form engine of each drive KIND, and its name in a scan's rows
_ENGINES = {"sync": (sync, ENGINE_SYNC), "async": (asyn, ENGINE_ASYNC)}


def _route(protocol, gamma):
    """(engine, names, codes, refusal): the drive's engine, its route() and each engine name."""
    engine, name = _ENGINES[protocol.KIND]
    codes, refusal = engine.route(protocol, gamma)
    return engine, np.where(codes != 0, name, ENGINE_ORACLE), codes, refusal


def select_engine(protocol, gamma):
    """Pick the analytic engine valid for (protocol, gamma), else the oracle."""
    return _route(protocol, coupling_values(gamma))[1].item()


def off_branch_reason(protocol, gamma):
    """Why no closed form applies at (protocol, gamma), or None where one does."""
    return _route(protocol, coupling_values(gamma))[3]


@dataclass(frozen=True)
class ScanSpec:
    """One swept parameter over a strictly monotone grid, rest held fixed.

    fixed supplies the protocol fields not being swept (sync: gamma, beta, V,
    Omega; async: gamma, epsilon, upsilon, chi).  epoch is the time at which
    state0 holds: finite or -inf.  observables are distinct (s, q) imbalance
    pairs with s, q in 1..4 or 'L'/'R'; an invalid or repeated pair is
    refused under the name observables.  The grid's stack of drives is built
    here, once, so a missing or invalid fixed value is refused here too, and
    so is a fixed value that is not finite, even one the sweep does not read.
    """

    swept: str
    grid: np.ndarray
    fixed: dict
    state0: np.ndarray
    epoch: float = 0.0
    observables: tuple = ((3, 1), (3, 2))
    # (gamma, the grid's stack of drives), built once: gamma is the grid when it is swept
    _points: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.swept not in SWEPT_NAMES:
            raise ValueError(f"swept must be one of {SWEPT_NAMES}, got {self.swept!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid must be a non-empty 1-d sequence")
        steps = np.diff(grid)
        if grid.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("grid must be strictly monotone")
        _require_epoch("epoch", self.epoch)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "state0", as_state(self.state0))
        try:
            keys = [_imbalance_keys(s, q) for s, q in self.observables]
        except ValueError as exc:
            raise ValueError(f"observables: {exc}") from None
        repeated = [pair for k, pair in enumerate(keys) if pair in keys[:k]]
        if repeated:
            raise ValueError(f"observables repeat the pair {repeated[0]}")
        object.__setattr__(self, "observables", tuple((s, q) for s, q in self.observables))
        # a fixed value that is not finite refuses the whole scan, even one the sweep does not read
        for name, value in self.fixed.items():
            _require_finite(name, value)
        try:
            gamma, protocol = _point_setup(self, grid)
        except KeyError as exc:
            raise ValueError(f"missing fixed value {exc}") from None
        object.__setattr__(self, "_points", (gamma, protocol))


class ScanRow(NamedTuple):
    """One grid point: swept value, imbalance values, engine and error text (None when solved)."""

    param: float
    values: tuple
    engine: str
    error: str | None = None


@dataclass(frozen=True)
class ScanResult:
    """A scan as columns over its grid.

    values (N, k) holds the imbalances of the spec's observables, NaN where
    a point failed; engines (N,) names the engine of every point and errors
    (N,) its error text, None when it was solved; failed (N,) is True where
    a point failed.
    """

    spec: ScanSpec
    values: np.ndarray
    engines: np.ndarray
    errors: tuple
    failed: np.ndarray

    @cached_property
    def rows(self):
        """The same result as one ScanRow per grid point, built on first use."""
        values = map(tuple, self.values.tolist())
        grid, engines = self.spec.grid.tolist(), self.engines.tolist()
        return tuple(map(ScanRow, grid, values, engines, self.errors))


def _point_setup(spec, grid):
    """gamma and protocol over the grid: the swept fields are stacks, the fixed ones as given."""
    fixed = spec.fixed
    if spec.swept == "beta":
        return fixed["gamma"], SyncSech2(grid, fixed["V"], fixed["Omega"])
    if spec.swept == "V_over_Omega":
        omega = fixed.get("Omega", 1.0)
        return fixed["gamma"], SyncSech2(fixed.get("beta", 0.0), grid * omega, omega)
    if spec.swept == "gamma":
        if "chi" in fixed:
            return grid, AsyncTanhSech(fixed["epsilon"], fixed["upsilon"], fixed["chi"])
        return grid, SyncSech2(fixed.get("beta", 0.0), fixed["V"], fixed["Omega"])
    chi = fixed["chi"]
    return fixed["gamma"], AsyncTanhSech(fixed["epsilon"], grid * chi, chi)


def run_scan(spec):
    """One result column per observable over the grid; a point that fails keeps its error.

    The scan solves the stack of drives its spec built.  The branch gate
    routes every point at once, and each engine's points are taken from the
    stack by index: the closed-form points are solved in one array pass for
    their (N, 4) populations at t = +inf, and the oracle points in one
    endpoint-only batch, each integrated from core.start_time(epoch) to a
    default horizon past max(epoch, 0).  A group that fails records its
    error in each of its rows, and a gamma that is not finite fails its own
    row.  A solved point with |Z| > 1 + 1e-9 refuses the scan, and an oracle
    point fails by its epoch where a default horizon past it rounds away.
    """
    grid, (gamma, protocol) = spec.grid, spec._points
    engine, engines, codes, _ = _route(protocol, np.broadcast_to(gamma, grid.shape))
    values = np.full((grid.size, len(spec.observables)), math.nan)
    errors = [None] * grid.size
    failed = np.zeros(grid.size, dtype=bool)
    finite, oracle = np.isfinite(gamma), codes == 0
    # a scan sweeps one drive class, so its closed-form points share one engine
    groups = [np.flatnonzero(finite & ~oracle), np.flatnonzero(finite & oracle)]
    for idx in filter(len, groups + [[k] for k in np.flatnonzero(~finite)]):
        try:
            # the points idx of the stack: each stacked field indexed, the fixed ones as given
            members_gamma = gamma[idx] if np.ndim(gamma) else gamma
            stacked = {name: value[idx] for name, value in vars(protocol).items() if np.ndim(value)}
            members = replace(protocol, **stacked)
            coupling_values(members_gamma)  # the refusal text of a gamma that is not finite
            if oracle[idx[0]]:
                t0 = start_time(members, spec.epoch)
                end = max(spec.epoch, 0.0) + default_horizon(members)
                if not np.all(end > t0):
                    raise ValueError(f"epoch {spec.epoch:g} + default horizon rounds to the epoch")
                window = IntegratorConfig(t0, end)
                batch = integrate_batch(members_gamma, members, spec.state0, window, [1.0])
                populations = batch.population_array[0]
            else:
                modes = engine.modes(members, members_gamma, codes[idx])
                populations = Solution(*modes, spec.state0, spec.epoch).asymptotes()[1]
        except Exception as exc:
            failed[idx] = True
            for k in idx:
                errors[k] = str(exc)
        else:
            for j, (s, q) in enumerate(spec.observables):
                values[idx, j] = imbalance(populations, s, q)
    bad = np.argwhere(~(np.abs(values) <= 1.0 + 1e-9) & ~failed[:, None])
    if bad.size:
        k, j = bad[0]
        v, x = float(values[k, j]), float(grid[k])
        raise ValueError(f"imbalance {v} at {spec.swept}={x} is unphysical")
    return ScanResult(spec, values, engines, tuple(errors), failed)


def count_peaks(times, values, window, prominence):
    """Number of local maxima inside window whose prominence reaches the threshold.

    Prominence is the rise of a maximum above the higher of its two flanking
    minima, each taken over the full series up to the next strictly higher
    sample; the window only selects which peaks are counted and must lie
    inside the sampled range.  The peaks and their prominences are those of
    scipy.signal.find_peaks(values, prominence=prominence).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 3:
        raise ValueError("need matching 1-d series with at least 3 samples")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window [{lo}, {hi}] is empty")
    if lo < t[0] - 1e-12 or hi > t[-1] + 1e-12:
        raise ValueError(f"window [{lo}, {hi}] outside sampled range [{t[0]}, {t[-1]}]")
    if not prominence > 0:
        raise ValueError(f"prominence must be > 0, got {prominence}")
    peaks = t[prominent_peaks(v, prominence)]
    return int(np.count_nonzero((peaks >= lo) & (peaks <= hi)))


def prominent_peaks(values, prominence):
    """Indices of the local maxima of values whose prominence is at least prominence.

    A flat top counts once, at its middle index; the first and last samples
    are never maxima.  The indices are those of
    scipy.signal.find_peaks(values, prominence=prominence).
    """
    v = np.asarray(values, dtype=float)
    diff = np.diff(v)
    steps = np.flatnonzero(diff)  # v[k + 1] != v[k]
    rises = diff[steps] > 0
    top = np.flatnonzero(rises[:-1] & ~rises[1:])  # a rise, then (after a flat run) a fall
    peaks = (steps[top] + 1 + steps[top + 1]) // 2
    bases = [max(_flank_min(v[k::-1], v[k]), _flank_min(v[k:], v[k])) for k in peaks.tolist()]
    return peaks[v[peaks] - np.array(bases, dtype=float) >= prominence]


def _flank_min(side, peak):
    """Lowest value of side (running away from a peak) before one exceeds the peak."""
    higher = np.flatnonzero(side > peak)
    return side[: higher[0] if higher.size else side.size].min()


class Solution:
    """Closed-form solution with state0 imposed at t0, held as its four mode constants.

    evolve, constants and limits are an engine's modes(): evolve(t, c) is the
    state at t of the constants c, constants(t0, a0) the exact constants of
    the state a0 given at t0, and limits(c) the states at -/+inf, shape
    (2,) + S + (4,).  coeffs = constants(t0, state0), shape S + (4,), holds
    every member's constants.  The members' shape S is the broadcast shape
    of the drive's members, state0 without its last axis and t0, so one
    drive with an (N, 4) stack of starts is N members: states(times[:, None])
    has shape (K, N, 4) and asymptotes() (2, N, 4).
    """

    def __init__(self, evolve, constants, limits, state0, t0):
        self._evolve, self._limits = evolve, limits
        self.coeffs = constants(t0, as_states(state0))

    def states(self, times):
        """Amplitudes at finite times, which broadcast against S (one member: T -> T + (4,))."""
        t = np.asarray(times, dtype=float)
        bad = t[~np.isfinite(t)]
        if bad.size:
            raise ValueError(f"times must be finite, got {bad[0]}; asymptotes() gives t = -/+inf")
        return self._evolve(t, self.coeffs)

    def asymptotes(self):
        """Populations P(-inf) and P(+inf) of every member, shape (2,) + S + (4,)."""
        return np.abs(self._limits(self.coeffs)) ** 2


def solve(protocol, gamma, state0, t0):
    """Closed-form Solution with state0 imposed at t0 (finite or -inf).

    The branch gate routes the drive once, and the drive's engine builds its
    modes from the codes; the drive's fields, gamma, state0 and t0 may be
    stacks of members, as Solution says.  Raises ValueError with the gate's
    refusal text when no closed form covers (protocol, gamma).
    """
    t0 = _require_epoch("t0", t0)
    engine, _, codes, refusal = _route(protocol, coupling_values(gamma))
    if refusal is not None:
        raise ValueError(refusal)
    return Solution(*engine.modes(protocol, gamma, codes), state0, t0)
