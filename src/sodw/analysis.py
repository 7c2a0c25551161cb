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
of drives, and so refuses a bad fixed value; run_scan routes every point
with the branch gate evaluated as a mask, and solves its closed-form points
in one array pass.  Its oracle points go to integrate_batch as they are: one
stack of drives with one window per member.

The branch gate itself is asynchronous.gate; _engines turns its answer into
an engine per member and a refusal text.  select_engine and off_branch_reason
read it for one drive, and solve() raises the same text, so every entry point
gives the same answer at the same (drive, gamma).

solve() is the one entry point to the closed forms.  Each engine is only
what differs between the drives: sync.modes and asynchronous.modes gate the
drive once and return its mode basis B(t), with a(t) = B(t) c, and limit
matrices L-/+, with P(-/+inf) = |L-/+ c|^2.  Solution fixes c from the
initial state, which may differ from member to member together with its
time, and serves every engine alike; populations are plain arrays with the
four levels on their last axis.  solve() refuses a t0 that is neither
finite nor -inf, and holds the one rule for a state given at t0 = -inf: the
synchronous engine imposes it exactly, at B(-inf) (the rescaled time
saturates at -V/Omega), and the asynchronous branches impose it at
t = -default_horizon(protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import asynchronous as asyn
from . import sync
from .core import AsyncTanhSech, SyncSech2, as_state, as_states, coupling_values, imbalance
from .core import _imbalance_keys, _require_epoch
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
    "default_horizon",
    "Solution",
    "solve",
]

ENGINE_SYNC = "sync-exact"
ENGINE_ASYNC = "async-exact"
ENGINE_ORACLE = "oracle"

SWEPT_NAMES = ("beta", "V_over_Omega", "gamma", "upsilon_over_chi")

def default_horizon(protocol):
    """Horizon T so that the drive envelope is negligible beyond |t| = T.

    A float for one drive, an array with one horizon per member for a stack.
    """
    rate = protocol.Omega if isinstance(protocol, SyncSech2) else protocol.chi
    horizon = 25.0 / np.minimum(rate, 1.0)
    return float(horizon) if horizon.ndim == 0 else horizon


def select_engine(protocol, gamma):
    """Pick the analytic engine valid for (protocol, gamma), else the oracle."""
    return _engines(protocol, coupling_values(gamma))[0].item()


def off_branch_reason(protocol, gamma):
    """Why no closed form applies at (protocol, gamma), or None where one does."""
    return _engines(protocol, coupling_values(gamma))[1]


def _engines(protocol, gamma):
    """(engines, refusal) of a (stacked) protocol: the branch gate's answer per member.

    engines holds the engine name of every member; refusal is the text for
    the first member no closed form covers, or None.  On the asynchronous
    drive a gamma that is not finite is on neither branch.
    """
    if isinstance(protocol, SyncSech2):
        shape = np.broadcast_shapes(np.shape(gamma), np.shape(protocol.beta), np.shape(protocol.V))
        return np.full(shape, ENGINE_SYNC), None
    conserving, flip, refusal = asyn.gate(protocol, gamma)
    return np.where((conserving != 0) | (flip != 0), ENGINE_ASYNC, ENGINE_ORACLE), refusal


@dataclass(frozen=True)
class ScanSpec:
    """One swept parameter over a strictly monotone grid, rest held fixed.

    fixed supplies the protocol fields not being swept (sync: gamma, beta, V,
    Omega; async: gamma, epsilon, upsilon, chi).  epoch is the time at which
    state0 holds: finite or -inf.  observables are distinct (s, q) imbalance
    pairs with s, q in 1..4 or 'L'/'R'; an invalid or repeated pair is
    refused under the name observables.  The grid's stack of drives is built
    here, once, so a missing or invalid fixed value is refused here too.
    """

    swept: str
    grid: np.ndarray
    fixed: dict
    state0: np.ndarray
    epoch: float = 0.0
    observables: tuple = ((3, 1), (3, 2))
    # (gamma of every grid point, the grid's stack of drives), built once
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
        try:
            gamma, protocol = _point_setup(self, grid)
        except KeyError as exc:
            raise ValueError(f"missing fixed value {exc}") from None
        gamma = np.broadcast_to(np.asarray(gamma, dtype=float), grid.shape)
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
    (N,) its error text, None when it was solved.
    """

    spec: ScanSpec
    values: np.ndarray
    engines: np.ndarray
    errors: tuple

    @cached_property
    def rows(self):
        """The same result as one ScanRow per grid point, built on first use."""
        values = map(tuple, self.values.tolist())
        grid, engines = self.spec.grid.tolist(), self.engines.tolist()
        return tuple(map(ScanRow, grid, values, engines, self.errors))


def _point_setup(spec, x):
    """gamma and protocol at grid value x, or a stack of drives over an array of them."""
    fixed = spec.fixed
    if spec.swept == "beta":
        return fixed["gamma"], SyncSech2(x, fixed["V"], fixed["Omega"])
    if spec.swept == "V_over_Omega":
        omega = fixed.get("Omega", 1.0)
        return fixed["gamma"], SyncSech2(fixed.get("beta", 0.0), x * omega, omega)
    if spec.swept == "gamma":
        if "chi" in fixed:
            return x, AsyncTanhSech(fixed["epsilon"], fixed["upsilon"], fixed["chi"])
        return x, SyncSech2(fixed.get("beta", 0.0), fixed["V"], fixed["Omega"])
    chi = fixed["chi"]
    return fixed["gamma"], AsyncTanhSech(fixed["epsilon"], x * chi, chi)


def run_scan(spec):
    """One result column per observable over the grid; a point that fails keeps its error.

    The branch gate routes every point of the spec's stack of drives at
    once.  The closed-form points are solved in one array pass, and the
    imbalance columns are taken from their (N, 4) populations at t = +inf.
    All oracle points go into one endpoint-only batch, each integrated from
    the epoch to a default horizon past max(epoch, 0); if it fails, each
    oracle row records the error.  A gamma that is not finite fails its own
    row; a solved point with |Z| > 1 + 1e-9 refuses the scan.
    """
    grid = spec.grid
    values = np.full((grid.size, len(spec.observables)), math.nan)
    errors = [None] * grid.size
    gamma, protocol = spec._points
    engines = _engines(protocol, gamma)[0]
    finite = np.isfinite(gamma)
    for k in np.flatnonzero(~finite):
        try:
            coupling_values(gamma[k])
        except ValueError as exc:
            errors[k] = str(exc)

    def record(idx, populations):
        for j, (s, q) in enumerate(spec.observables):
            values[idx, j] = imbalance(populations, s, q)

    # a scan sweeps one drive class, so its closed-form points share one engine
    idx = np.flatnonzero(finite & (engines != ENGINE_ORACLE))
    if idx.size:
        try:
            members_gamma, members = _point_setup(spec, grid[idx])
            solution = solve(members, members_gamma, spec.state0, spec.epoch)
            record(idx, solution.asymptotes()[1])
        except Exception as exc:
            for k in idx:
                errors[k] = str(exc)
    idx = np.flatnonzero(finite & (engines == ENGINE_ORACLE))
    if idx.size:
        try:
            members_gamma, members = _point_setup(spec, grid[idx])
            horizon = default_horizon(members)
            t0 = spec.epoch if math.isfinite(spec.epoch) else -horizon
            window = IntegratorConfig(t0, max(spec.epoch, 0.0) + horizon)
            batch = integrate_batch(members_gamma, members, spec.state0, window, [1.0])
            record(idx, batch.population_array[0])
        except Exception as exc:
            for k in idx:
                errors[k] = str(exc)
    failed = np.array([error is not None for error in errors], dtype=bool)
    values[failed] = math.nan
    bad = np.argwhere(~(np.abs(values) <= 1.0 + 1e-9) & ~failed[:, None])
    if bad.size:
        k, j = bad[0]
        v, x = float(values[k, j]), float(spec.grid[k])
        raise ValueError(f"imbalance {v} at {spec.swept}={x} is unphysical")
    return ScanResult(spec, values, engines, tuple(errors))


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
    """Closed-form solution a(t) = basis(t) @ coeffs with state0 imposed at finite t0.

    basis and limits are an engine's modes(): basis(t) of shape S_drive + (4, 4)
    over the drive's members, limits of shape (2,) + S_drive + (4, 4).  The
    coefficients solve basis(t0) @ coeffs = state0 for every member at once;
    state0 (one state, or a stack of them) and t0 may differ from member to
    member, and the members' shape S is the broadcast shape of S_drive,
    state0 without its last axis and t0.  So one drive with an (N, 4) stack of
    starts is N members that share one basis: states(times[:, None]) has
    shape (K, N, 4) and asymptotes() (2, N, 4).
    """

    def __init__(self, basis, limits, state0, t0):
        self.basis = basis
        # the limit axis next to the matrix axes, so that it broadcasts past S
        self.limits = np.moveaxis(limits, 0, -3)
        self.coeffs = np.linalg.solve(basis(t0), as_states(state0)[..., None])[..., 0]

    def states(self, times):
        """Amplitudes at finite times, which broadcast against S (one member: T -> T + (4,))."""
        t = np.asarray(times, dtype=float)
        bad = t[~np.isfinite(t)]
        if bad.size:
            raise ValueError(f"times must be finite, got {bad[0]}; asymptotes() gives t = -/+inf")
        return (self.basis(t) @ self.coeffs[..., None])[..., 0]

    def asymptotes(self):
        """Populations P(-inf) and P(+inf) of every member, shape (2,) + S + (4,)."""
        amplitudes = (self.limits @ self.coeffs[..., None, :, None])[..., 0]
        return np.moveaxis(np.abs(amplitudes) ** 2, -2, 0)


def solve(protocol, gamma, state0, t0):
    """Closed-form Solution with state0 imposed at t0 (finite or -inf).

    The drive type picks the engine, whose modes() gate the drive and build
    its basis once.  The drive's fields, gamma, state0 (shape S + (4,)) and
    t0 may be stacks of members.  One drive with an (N, 4) stack of starts
    shares its basis: states(times[:, None]) is (K, N, 4) and asymptotes()
    (2, N, 4).  Raises ValueError with the gate's refusal text when no
    closed form covers (protocol, gamma).
    """
    t0 = _require_epoch("t0", t0)
    if isinstance(protocol, SyncSech2):
        return Solution(*sync.modes(protocol, gamma), state0, t0)
    t_ref = np.where(np.isfinite(t0), t0, -default_horizon(protocol))
    return Solution(*asyn.modes(protocol, gamma), state0, t_ref)
