"""Built-in demonstration datasets, and the one owner of the output format.

Each figure id maps to a fully specified run (protocol, coupling, initial
amplitudes, epoch, horizon); _TRAJECTORIES owns the trajectory figures' runs,
which the acceptance criteria read too.  Every command that writes files
returns its result as a FigureData bundle from one builder here: build_figure
for `sodw figure`, evolve_bundle for `sodw evolve` and scan_bundle for `sodw
scan`.  A bundle is plain data (datasets of column headers plus column arrays,
a plot description dict and a meta dict); the cli module names its files and
writes them.  The columns are the solvers' own arrays, so no table is ever
copied into rows.

One runner, _run_trajectory, serves the trajectory figures and evolve_bundle
alike: one solve call for all starts and one integrate_batch call for the
oracle, which starts where the closed form holds them (core.start_time), or
under both engines at the closed form's first sample.  Its _num columns sit
next to the closed-form ones; each builder keeps its own meta and plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ScanSpec, off_branch_reason, run_scan, select_engine, solve
from .core import AsyncTanhSech, SyncSech2, _require_epoch, _require_finite, default_horizon
from .core import imbalance, start_time
from .oracle import IntegratorConfig, integrate_batch

__all__ = [
    "Dataset",
    "FIGURE_IDS",
    "figure_kind",
    "build_figure",
    "evolve_bundle",
    "observable_columns",
    "scan_bundle",
]

_SQ2 = math.sqrt(2.0)

# the named initial states of the figures and of the acceptance criteria
IC_THIRD = (0.0, 0.0, 1.0, 0.0)
IC_RAMP = (math.sqrt(0.1), math.sqrt(0.2), math.sqrt(0.3), math.sqrt(0.4))
ICS_LR_MIX = (
    (0.0, 0.0, math.sqrt(3 / 8), math.sqrt(5 / 8)),
    (math.sqrt(1 / 8), math.sqrt(1 / 8), 0.5, math.sqrt(0.5)),
    (0.5, 0.5, math.sqrt(1 / 8), math.sqrt(3 / 8)),
    (0.5, math.sqrt(0.5), math.sqrt(1 / 8), math.sqrt(1 / 8)),
    (math.sqrt(3 / 8), math.sqrt(5 / 8), 0.0, 0.0),
)
ICS_13 = (
    (0.0, 0.0, 1.0, 0.0),
    (0.5, 0.0, math.sqrt(3.0) / 2, 0.0),
    (1 / _SQ2, 0.0, 1 / _SQ2, 0.0),
    (math.sqrt(3.0) / 2, 0.0, 0.5, 0.0),
    (1.0, 0.0, 0.0, 0.0),
)
ICS_14 = (
    (0.0, 0.0, 0.0, 1.0),
    (0.5, 0.0, 0.0, math.sqrt(3.0) / 2),
    (1 / _SQ2, 0.0, 0.0, 1 / _SQ2),
    (math.sqrt(3.0) / 2, 0.0, 0.0, 0.5),
    (1.0, 0.0, 0.0, 0.0),
)

# trajectory figures as the arguments of solve: the drive, the coupling gamma,
# the initial states as one stack and the epoch at which they hold (0 = pulse
# center, -inf = infinite past)
_TRAJECTORIES = {
    "1d": (SyncSech2(0.5, math.pi / 2, 1.0), 0.5, (IC_THIRD,), 0.0),
    "1e": (SyncSech2(0.0, 2.0, 1.0), 1.0, (IC_THIRD,), 0.0),
    "1f": (SyncSech2(0.0, math.pi / 2, 1.0), 0.35, (IC_THIRD,), 0.0),
    "2a": (SyncSech2(0.0, math.pi / 2, 1.0), 0.15, (IC_RAMP,), -math.inf),
    "2b": (SyncSech2(0.0, math.pi / 4, 1.0), 0.15, ICS_LR_MIX, -math.inf),
    "2c": (SyncSech2(0.0, math.pi / 4, 1.0), 0.25, (IC_THIRD,), -math.inf),
    "3a": (AsyncTanhSech(1.0, 1.0, 1.0), 2.0, ICS_13, -math.inf),
    "3b": (AsyncTanhSech(1.0, 1.0, 2.0), 2.0, ICS_13, -math.inf),
    "3d": (AsyncTanhSech(math.sqrt(0.21), 0.5, 0.4), 0.5, ICS_14, -math.inf),
}

_SCANS = {
    "1a": dict(
        swept="beta",
        bounds=(0.0, 4.0),
        fixed=dict(gamma=0.5, V=math.pi / 2, Omega=1.0),
    ),
    "1b": dict(
        swept="V_over_Omega",
        bounds=(0.0, 8.0),
        fixed=dict(gamma=1.0, beta=0.0, Omega=1.0),
    ),
    "1c": dict(
        swept="gamma",
        bounds=(0.0, 2.0),
        fixed=dict(beta=0.0, V=math.pi / 2, Omega=1.0),
    ),
}

_SURFACE = "3c"  # the spin-flip solvability surface, the one figure of neither table
FIGURE_IDS = tuple(sorted([*_TRAJECTORIES, *_SCANS, _SURFACE]))

_TRAJ_HEADER = ("t", "P1", "P2", "P3", "P4", "Z31", "Z32", "ZLR", "norm2")
_NUM_HEADER = tuple(name + "_num" for name in _TRAJ_HEADER[1:])


@dataclass(frozen=True)
class Dataset:
    """One CSV-able table: column names plus one equal-length 1-d float or text array each."""

    name: str
    header: tuple
    columns: tuple


@dataclass(frozen=True)
class FigureData:
    """One output bundle: its datasets, plot description and meta, written under id."""

    id: str
    datasets: tuple
    plot: dict
    meta: dict


def figure_kind(fig_id):
    if fig_id in _TRAJECTORIES:
        return "trajectory"
    if fig_id in _SCANS:
        return "scan"
    if fig_id == _SURFACE:
        return "surface"
    raise ValueError(f"unknown figure id {fig_id!r}; known ids: {', '.join(FIGURE_IDS)}")


def observable_columns(states):
    """P1..P4, Z31, Z32, ZLR and norm^2 columns from an (n, 4) amplitude array."""
    p = np.abs(states) ** 2
    imbalances = [imbalance(p, s, q) for s, q in ((3, 1), (3, 2), ("L", "R"))]
    return [p[:, 0], p[:, 1], p[:, 2], p[:, 3], *imbalances, p.sum(axis=1)]


def _amplitude_text(state):
    """Flat re,im;re,im;... rendering of a length-4 amplitude vector."""
    return ";".join(f"{z.real:.17g},{z.imag:.17g}" for z in np.asarray(state, complex))


def _protocol_meta(protocol):
    """Meta entries protocol=<its KIND> and the drive's fields, 17 significant digits each."""
    fields = {key: f"{value:.17g}" for key, value in vars(protocol).items()}
    return {"protocol": protocol.KIND, **fields}


def _trajectory_times(epoch, horizon, samples):
    """Sample times of a trajectory whose start holds at epoch.

    [-horizon, horizon] for epoch -inf, else [epoch, epoch + horizon].
    Refuses an epoch of +inf or NaN, fewer than 2 samples, a horizon that
    is not finite and positive, a window whose end or span overflows, and
    one too short for its epoch to give strictly increasing times.
    """
    _require_epoch("epoch", epoch)
    if samples < 2 or not 0.0 < horizon < math.inf:
        raise ValueError(
            "a trajectory needs at least 2 samples and a finite horizon > 0, "
            f"got {samples} samples and horizon {horizon:g}"
        )
    if epoch == -math.inf:
        _require_finite("2*horizon", 2.0 * float(horizon))
        times = np.linspace(-horizon, horizon, samples)
    else:
        _require_finite("epoch + horizon", float(epoch) + float(horizon))
        times = np.linspace(epoch, epoch + horizon, samples)
    if not np.all(np.diff(times) > 0):
        raise ValueError(f"epoch {epoch:g} and horizon {horizon:g} give sample times that repeat")
    return times


def _trajectory_dataset(name, times, *solutions):
    """Times plus the observable columns of each (n, 4) array; a second's are the _num overlay."""
    columns = [times] + [column for states in solutions for column in observable_columns(states)]
    header = (_TRAJ_HEADER + _NUM_HEADER)[: len(columns)]
    return Dataset(name, header, tuple(columns))


def _trajectory_plot(title, series):
    """Plot description of trajectory datasets: the named series drawn against t."""
    return {
        "title": f"{title}: populations and imbalances vs time",
        "x_label": "t",
        "y_label": "population / imbalance",
        "series": {name: name for name in series},
    }


def _run_trajectory(name, protocol, gamma, starts, epoch, horizon, samples, engine):
    """Trajectories of a stack of starts held at epoch, at _trajectory_times' samples.

    horizon None is the drive's default_horizon.  engine "exact" is the closed
    form, "both" adds the oracle restarted from it at the first sample, and
    "oracle" is the oracle alone from start_time(epoch), led in to a later
    first sample by one endpoint-only solve.  Each engine is one call for all
    starts.  Returns a dataset per start (name, or name_ic1, ...), the state
    arrays, each (samples, len(starts), 4), the oracle's record or None, and
    the horizon.
    """
    horizon = default_horizon(protocol) if horizon is None else float(horizon)
    times = _trajectory_times(epoch, horizon, samples)
    solutions, record = [], None
    if engine != "oracle":
        solutions.append(solve(protocol, gamma, starts, epoch).states(times[:, None]))
    if engine != "exact":
        anchor = solutions[0][0] if solutions else starts
        t0 = times[0] if solutions else start_time(protocol, epoch)
        if t0 < times[0]:
            lead_in = IntegratorConfig(t_start=t0, t_end=times[0])
            anchor = integrate_batch(gamma, protocol, anchor, lead_in, [1.0]).states[0]
        ocfg = IntegratorConfig(t_start=times[0], t_end=times[-1])
        fractions = (times - times[0]) / (times[-1] - times[0])
        record = integrate_batch(gamma, protocol, anchor, ocfg, fractions)
        solutions.append(record.states)
    names = [name] if len(starts) == 1 else [f"{name}_ic{k + 1}" for k in range(len(starts))]
    datasets = tuple(
        _trajectory_dataset(label, times, *(states[:, k] for states in solutions))
        for k, label in enumerate(names)
    )
    return datasets, solutions, record, horizon


def _build_trajectory(fig_id, samples, horizon):
    protocol, gamma, ics, epoch = _TRAJECTORIES[fig_id]
    run = _run_trajectory(fig_id, protocol, gamma, ics, epoch, horizon, samples, "both")
    datasets, _, record, T = run
    plot = _trajectory_plot(f"figure {fig_id}", _TRAJ_HEADER[1:])
    plot["overlay_series"] = {name: name for name in _NUM_HEADER}
    meta = {
        "figure": fig_id,
        "kind": "trajectory",
        "engine": select_engine(protocol, gamma),
        "oracle": record.solver_id,
        "gamma": f"{gamma:.17g}",
        "epoch": f"{epoch:.17g}",
        "horizon": f"{T:.17g}",
        "samples": str(samples),
        **_protocol_meta(protocol),
        **{f"ic{k + 1}": _amplitude_text(ic) for k, ic in enumerate(ics)},
    }
    return FigureData(fig_id, datasets, plot, meta)


def evolve_bundle(label, protocol, gamma, state0, epoch, horizon, samples, engine=None):
    """Run one start under engine (exact, oracle or both) and bundle it under label.

    state0 holds at epoch, horizon None is the drive's default_horizon and
    engine None is exact where a closed form holds, else oracle.  The meta
    names the oracle's solver when it ran and, under "both", the largest
    distance between the two solutions' states as max_deviation.
    """
    engine = engine or ("exact" if off_branch_reason(protocol, gamma) is None else "oracle")
    run = _run_trajectory(label, protocol, gamma, (state0,), epoch, horizon, samples, engine)
    (dataset,), solutions, record, horizon = run
    params = _protocol_meta(protocol)
    meta = {
        "label": label,
        "engine": engine,
        "protocol": params.pop("protocol"),
        "gamma": f"{gamma:.17g}",
        **params,
        "epoch": f"{epoch:.17g}",
        "horizon": f"{horizon:.17g}",
        "grid": str(samples),
        "ic": _amplitude_text(state0),
    }
    if record is not None:
        meta["oracle"] = record.solver_id
    if engine == "both":
        deviation = float(np.max(np.linalg.norm(solutions[0] - solutions[1], axis=-1)))
        meta["max_deviation"] = f"{deviation:.17g}"
    plot = _trajectory_plot(label, dataset.header[1:])
    return FigureData(label, (dataset,), plot, meta)


def scan_bundle(key, name, title, spec, bounds):
    """Run spec and bundle its columns, plot and meta under name.

    key=name is the first meta entry and title starts the plot title; bounds
    (lo, hi) are the grid ends as given, which a one-point grid cannot show.
    A scan whose every point fails is refused with the first point's error.
    """
    result = run_scan(spec)
    failed = np.flatnonzero(result.failed).tolist()
    if len(failed) == spec.grid.size:
        raise ValueError(
            f"every point of the scan failed, the first at {spec.swept}="
            f"{spec.grid[0]:.17g}: {result.errors[0]}"
        )
    names = tuple(f"Z{s}{q}_inf" for s, q in spec.observables)
    columns = (spec.grid, *result.values.T, result.engines)
    datasets = (Dataset(name, ("param", *names, "engine"), columns),)
    plot = {
        "title": f"{title}: asymptotic imbalances vs {spec.swept}",
        "x_label": spec.swept,
        "y_label": "asymptotic imbalance",
        "series": {column: column for column in names},
    }
    lo, hi = bounds
    meta = {
        key: name,
        "kind": "scan",
        "swept": spec.swept,
        "grid": f"{lo:.17g}:{hi:.17g}:{spec.grid.size}",
        "epoch": f"{spec.epoch:.17g}",
        "ic": _amplitude_text(spec.state0),
        **{field: f"{spec.fixed[field]:.17g}" for field in sorted(spec.fixed)},
    }
    for n, k in enumerate(failed):
        meta[f"failure_{n}"] = f"{spec.grid[k]:.17g}: {result.errors[k]}"
    return FigureData(name, datasets, plot, meta)


def _build_scan(fig_id, samples):
    cfg = _SCANS[fig_id]
    if samples < 0:
        raise ValueError(f"grid must not be negative, got {samples}")
    spec = ScanSpec(cfg["swept"], np.linspace(*cfg["bounds"], samples), cfg["fixed"], IC_THIRD)
    return scan_bundle("figure", fig_id, f"figure {fig_id}", spec, cfg["bounds"])


def _build_surface(samples):
    """Spin-flip solvability surface upsilon = sqrt(chi^2/4 + epsilon^2).

    Refuses fewer than 2 samples per axis.
    """
    if samples < 2:
        raise ValueError(f"a surface needs at least 2 samples per axis, got {samples}")
    grid = np.linspace(0.0, 2.0, samples)
    chi, eps = np.repeat(grid, samples), np.tile(grid, samples)
    # math.hypot per point: np.hypot need not round the same way
    ups = np.array([math.hypot(0.5 * c, e) for c, e in zip(chi.tolist(), eps.tolist())])
    datasets = (Dataset(_SURFACE, ("chi", "epsilon", "upsilon"), (chi, eps, ups)),)
    plot = {
        "title": f"figure {_SURFACE}: spin-flip closed-form surface",
        "x_label": "chi",
        "y_label": "epsilon",
        "z_label": "upsilon",
    }
    meta = {
        "figure": _SURFACE,
        "kind": "surface",
        "grid": f"0:2:{samples} x 0:2:{samples}",
        "relation": "upsilon = sqrt(chi^2/4 + epsilon^2)",
    }
    return FigureData(_SURFACE, datasets, plot, meta)


def build_figure(fig_id, samples=None, horizon=None):
    """Assemble the dataset bundle for one figure id.

    samples defaults to 2001 for trajectories, 401 for scans and 41 per axis
    for the surface; horizon (trajectories only) overrides the default
    envelope-decay horizon.
    """
    kind = figure_kind(fig_id)
    if kind == "trajectory":
        return _build_trajectory(fig_id, 2001 if samples is None else int(samples), horizon)
    if horizon is not None:
        raise ValueError(f"figure {fig_id} has no time horizon to override")
    if kind == "scan":
        return _build_scan(fig_id, 401 if samples is None else int(samples))
    return _build_surface(41 if samples is None else int(samples))
