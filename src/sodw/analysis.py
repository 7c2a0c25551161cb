"""Parameter scans, asymptotic extraction, peak counting, engine dispatch.

A scan sweeps one parameter (beta, V_over_Omega, gamma or upsilon_over_chi)
and records asymptotic population imbalances per grid point.  Each point is
routed to the cheapest engine that is valid there: the synchronous closed
form covers every synchronous protocol, the asynchronous closed form covers
the spin-conserving branch (cos pi*gamma = +-1) and the spin-flipping branch
on its parameter surface, and everything else falls back to the numeric
oracle.  The engine used is recorded per row.

solve() is the one entry point to the closed forms.  It also holds the one
rule for a state given at t0 = -inf: the synchronous engine imposes it
exactly at the saturated rescaled time tau0 = -V/Omega, and the asynchronous
branches impose it at t = -default_horizon(protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asynchronous as asyn
from . import sync
from .core import AsyncTanhSech, SyncSech2, as_state, imbalance
from .oracle import IntegratorConfig, integrate

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
    "asymptotic_extract",
    "select_engine",
    "off_branch_reason",
    "default_horizon",
    "solve",
]

ENGINE_SYNC = "sync-exact"
ENGINE_ASYNC = "async-exact"
ENGINE_ORACLE = "oracle"

SWEPT_NAMES = ("beta", "V_over_Omega", "gamma", "upsilon_over_chi")

# populations must each vary by less than this over the final 10% of a
# trajectory for it to count as settled
SETTLE_TOL = 1e-7


def default_horizon(protocol):
    """Horizon T so that the drive envelope is negligible beyond |t| = T."""
    if isinstance(protocol, SyncSech2):
        return 25.0 / min(protocol.Omega, 1.0)
    if isinstance(protocol, AsyncTanhSech):
        return 25.0 / min(protocol.chi, 1.0)
    raise ValueError("no default horizon for custom drive protocols")


def select_engine(protocol, gamma, flip_tol=asyn.FLIP_CONSTRAINT_TOL):
    """Pick the analytic engine valid for (protocol, gamma), else the oracle."""
    if isinstance(protocol, SyncSech2):
        return ENGINE_SYNC
    if isinstance(protocol, AsyncTanhSech):
        if asyn.conserving_branch_sign(gamma) is not None:
            return ENGINE_ASYNC
        if asyn.flip_branch_sign(gamma) is not None:
            residual = asyn.check_flip_constraint(
                protocol.epsilon_amp, protocol.upsilon_amp, protocol.chi
            )
            if abs(residual) <= flip_tol:
                return ENGINE_ASYNC
    return ENGINE_ORACLE


def off_branch_reason(protocol, gamma):
    """Human-readable reason why no closed form applies."""
    if isinstance(protocol, AsyncTanhSech):
        if asyn.flip_branch_sign(gamma) is not None:
            residual = asyn.check_flip_constraint(
                protocol.epsilon_amp, protocol.upsilon_amp, protocol.chi
            )
            return (
                "flip-branch constraint chi^2/4 + epsilon^2 - upsilon^2 = 0 "
                f"violated (residual {residual:.6g})"
            )
        return (
            f"no closed form at gamma={float(gamma):g}: the drive needs "
            "|cos(pi*gamma)| = 1 (spin-conserving) or |sin(pi*gamma)| = 1 "
            "(spin-flipping) within 1e-9"
        )
    return "no closed form for this drive protocol"


@dataclass(frozen=True)
class ScanSpec:
    """One swept parameter over a strictly monotone grid, rest held fixed.

    fixed supplies the protocol fields not being swept (sync: gamma, beta, V,
    Omega; async: gamma, epsilon, upsilon, chi).  epoch is the time at which
    state0 holds: 0.0 or -inf.  observables are (s, q) imbalance pairs with
    s, q in 1..4 or 'L'/'R'.
    """

    swept: str
    grid: np.ndarray
    fixed: dict
    state0: np.ndarray
    epoch: float = 0.0
    observables: tuple = ((3, 1), (3, 2))

    def __post_init__(self):
        if self.swept not in SWEPT_NAMES:
            raise ValueError(f"swept must be one of {SWEPT_NAMES}, got {self.swept!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid must be a non-empty 1-d sequence")
        steps = np.diff(grid)
        if grid.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("grid must be strictly monotone")
        if math.isnan(self.epoch) or self.epoch == math.inf:
            raise ValueError(f"epoch must be finite or -inf, got {self.epoch}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "fixed", dict(self.fixed))
        object.__setattr__(self, "state0", as_state(self.state0))
        object.__setattr__(self, "observables", tuple((s, q) for s, q in self.observables))


@dataclass(frozen=True)
class ScanRow:
    param: float
    values: tuple
    engine: str
    error: str | None = None


@dataclass(frozen=True)
class ScanResult:
    spec: ScanSpec
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if row.error is None:
                for v in row.values:
                    if not abs(v) <= 1.0 + 1e-9:
                        raise ValueError(
                            f"imbalance {v} at {self.spec.swept}={row.param} is unphysical"
                        )

    def observable_column(self, k):
        return np.array([row.values[k] for row in self.rows])


def _point_setup(spec, x):
    """Protocol and gamma at one grid point."""
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


def _asymptotic_values(spec, gamma, protocol, engine):
    if engine == ENGINE_ORACLE:
        horizon = default_horizon(protocol)
        t0 = spec.epoch if math.isfinite(spec.epoch) else -horizon
        cfg = IntegratorConfig(t_start=t0, t_end=horizon)
        snap = integrate(gamma, protocol, spec.state0, cfg, np.array([horizon])).snapshot(0)
    else:
        snap = solve(protocol, gamma, spec.state0, spec.epoch).asymptotes()[1]
    return tuple(imbalance(snap, s, q) for s, q in spec.observables)


def run_scan(spec):
    """One row per grid point; failures are recorded in-row, the scan continues."""
    rows = []
    for x in spec.grid:
        x = float(x)
        engine = ENGINE_ORACLE
        try:
            gamma, protocol = _point_setup(spec, x)
            engine = select_engine(protocol, gamma)
            values = _asymptotic_values(spec, gamma, protocol, engine)
            rows.append(ScanRow(x, values, engine))
        except Exception as exc:
            nan_values = tuple(math.nan for _ in spec.observables)
            rows.append(ScanRow(x, nan_values, engine, error=str(exc)))
    return ScanResult(spec, tuple(rows))


def count_peaks(times, values, window, prominence):
    """Number of local maxima inside window whose prominence exceeds the threshold.

    Prominence is the rise of a maximum above the higher of its two flanking
    minima, measured over the full series; the window only selects which
    peaks are counted and must lie inside the sampled range.
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
    # imported here: scipy.signal costs most of a second, and only this needs it
    from scipy.signal import find_peaks

    idx, _ = find_peaks(v, prominence=prominence)
    return int(np.count_nonzero((t[idx] >= lo) & (t[idx] <= hi)))


def asymptotic_extract(traj):
    """Snapshots at the first and last sample plus a settled flag.

    settled is true iff every population varies by less than 1e-7 over the
    final 10% of the horizon.
    """
    first = traj.snapshot(0)
    last = traj.snapshot(traj.times.size - 1)
    t0, t1 = traj.times[0], traj.times[-1]
    tail = traj.population_array[traj.times >= t1 - 0.1 * (t1 - t0)]
    settled = bool(np.all(tail.max(axis=0) - tail.min(axis=0) < SETTLE_TOL))
    return first, last, settled


def solve(protocol, gamma, state0, t0):
    """Closed-form solution with state0 imposed at t0 (finite or -inf).

    Picks the engine once and builds the eigensystem (sync.SyncSolution) or
    the pair constants (asynchronous.AsyncSolution) once; both offer
    states(times) and asymptotes() -> (P(-inf), P(+inf)) as
    PopulationSnapshots.  Raises ValueError when neither analytic engine
    covers (protocol, gamma).
    """
    t0 = float(t0)
    if not t0 < math.inf:
        raise ValueError(f"initial conditions need t0 finite or -inf, got {t0}")
    engine = select_engine(protocol, gamma)
    if engine == ENGINE_SYNC:
        return sync.SyncSolution(protocol, gamma, state0, t0)
    if engine == ENGINE_ASYNC:
        t_ref = t0 if math.isfinite(t0) else -default_horizon(protocol)
        return asyn.AsyncSolution(protocol, gamma, state0, t_ref)
    raise ValueError(off_branch_reason(protocol, gamma))
