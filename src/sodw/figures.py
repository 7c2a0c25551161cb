"""Built-in demonstration datasets, and the one owner of the output format.

Each figure id maps to a fully specified run (protocol, coupling, initial
amplitudes, epoch, horizon).  Every command that writes files (`sodw figure`,
`sodw evolve`, `sodw scan`) returns its result as a FigureData bundle built
from the pieces here: the trajectory and scan column headers, the named
initial states, the protocol meta, the trajectory sample grid and the scan
bundle.  A bundle is plain data (datasets of column headers plus row tuples,
a plot description dict and a meta dict); the cli module writes it to files.
Trajectory figures carry a numeric-oracle overlay (columns suffixed _num)
next to the closed-form columns so the two solutions can be compared point
by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import ScanSpec, default_horizon, run_scan, select_engine, solve
from .core import AsyncTanhSech, SyncSech2
from .oracle import IntegratorConfig, integrate_batch

__all__ = [
    "Dataset",
    "FigureData",
    "FIGURE_IDS",
    "figure_kind",
    "build_figure",
    "observable_columns",
    "amplitude_text",
    "protocol_meta",
    "trajectory_times",
    "trajectory_dataset",
    "trajectory_plot",
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

# trajectory figures: coupling gamma, drive, initial states as one stack and
# the epoch at which they hold (0 = pulse center, -inf = infinite past)
_TRAJECTORIES = {
    "1d": dict(gamma=0.5, drive=SyncSech2(0.5, math.pi / 2, 1.0), epoch=0.0, ics=(IC_THIRD,)),
    "1e": dict(gamma=1.0, drive=SyncSech2(0.0, 2.0, 1.0), epoch=0.0, ics=(IC_THIRD,)),
    "1f": dict(gamma=0.35, drive=SyncSech2(0.0, math.pi / 2, 1.0), epoch=0.0, ics=(IC_THIRD,)),
    "2a": dict(gamma=0.15, drive=SyncSech2(0.0, math.pi / 2, 1.0), epoch=-math.inf, ics=(IC_RAMP,)),
    "2b": dict(gamma=0.15, drive=SyncSech2(0.0, math.pi / 4, 1.0), epoch=-math.inf, ics=ICS_LR_MIX),
    "2c": dict(
        gamma=0.25, drive=SyncSech2(0.0, math.pi / 4, 1.0), epoch=-math.inf, ics=(IC_THIRD,)
    ),
    "3a": dict(gamma=2.0, drive=AsyncTanhSech(1.0, 1.0, 1.0), epoch=-math.inf, ics=ICS_13),
    "3b": dict(gamma=2.0, drive=AsyncTanhSech(1.0, 1.0, 2.0), epoch=-math.inf, ics=ICS_13),
    "3d": dict(
        gamma=0.5, drive=AsyncTanhSech(math.sqrt(0.21), 0.5, 0.4), epoch=-math.inf, ics=ICS_14
    ),
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

FIGURE_IDS = ("1a", "1b", "1c", "1d", "1e", "1f", "2a", "2b", "2c", "3a", "3b", "3c", "3d")

_TRAJ_HEADER = ("t", "P1", "P2", "P3", "P4", "Z31", "Z32", "ZLR", "norm2")
_NUM_HEADER = tuple(name + "_num" for name in _TRAJ_HEADER[1:])


@dataclass(frozen=True)
class Dataset:
    """One CSV-able table: column names plus row tuples."""

    name: str
    header: tuple
    rows: tuple


@dataclass(frozen=True)
class FigureData:
    """One output bundle: its datasets, plot description and meta, written under id."""

    id: str
    kind: str
    datasets: tuple
    plot: dict
    meta: dict


def figure_kind(fig_id):
    if fig_id in _TRAJECTORIES:
        return "trajectory"
    if fig_id in _SCANS:
        return "scan"
    if fig_id == "3c":
        return "surface"
    raise ValueError(f"unknown figure id {fig_id!r}; known ids: {', '.join(FIGURE_IDS)}")


def observable_columns(states):
    """P1..P4, Z31, Z32, ZLR and norm^2 columns from an (n, 4) amplitude array."""
    p = np.abs(states) ** 2
    z31 = p[:, 2] - p[:, 0]
    z32 = p[:, 2] - p[:, 1]
    zlr = (p[:, 2] + p[:, 3]) - (p[:, 0] + p[:, 1])
    return [p[:, 0], p[:, 1], p[:, 2], p[:, 3], z31, z32, zlr, p.sum(axis=1)]


def amplitude_text(state):
    """Flat re,im;re,im;... rendering of a length-4 amplitude vector."""
    return ";".join(f"{z.real:.17g},{z.imag:.17g}" for z in np.asarray(state, complex))


def protocol_meta(protocol):
    """Meta entries protocol=sync|async and its three parameters, 17 significant digits each."""
    if isinstance(protocol, SyncSech2):
        kind, params = "sync", dict(beta=protocol.beta, V=protocol.V, Omega=protocol.Omega)
    else:
        kind = "async"
        params = dict(epsilon=protocol.epsilon_amp, upsilon=protocol.upsilon_amp, chi=protocol.chi)
    return {"protocol": kind, **{key: f"{value:.17g}" for key, value in params.items()}}


def trajectory_times(epoch, horizon, samples):
    """Sample times of a trajectory whose start holds at epoch.

    [-horizon, horizon] for epoch -inf, else [epoch, epoch + horizon].
    Refuses an epoch of +inf or NaN, fewer than 2 samples and a horizon that
    is not finite and positive.
    """
    if math.isnan(epoch) or epoch == math.inf:
        raise ValueError(f"epoch must be finite or -inf, got {epoch}")
    if samples < 2 or not 0.0 < horizon < math.inf:
        raise ValueError(
            "a trajectory needs at least 2 samples and a finite horizon > 0, "
            f"got {samples} samples and horizon {horizon:g}"
        )
    if epoch == -math.inf:
        return np.linspace(-horizon, horizon, samples)
    return np.linspace(epoch, epoch + horizon, samples)


def trajectory_dataset(name, times, *solutions):
    """Times plus the observable columns of each (n, 4) amplitude array.

    The columns of a second array are the _num overlay.
    """
    columns = [times] + [column for states in solutions for column in observable_columns(states)]
    header = (_TRAJ_HEADER + _NUM_HEADER)[: len(columns)]
    return Dataset(name, header, tuple(map(tuple, np.column_stack(columns))))


def trajectory_plot(title, datasets, series):
    """Plot description of trajectory datasets: the named series drawn against t."""
    return {
        "title": f"{title}: populations and imbalances vs time",
        "x_label": "t",
        "y_label": "population / imbalance",
        "series": {name: name for name in series},
        "files": [f"{d.name}_data.csv" for d in datasets],
    }


def _build_trajectory(fig_id, samples, horizon):
    cfg = _TRAJECTORIES[fig_id]
    protocol, gamma, epoch, ics = cfg["drive"], cfg["gamma"], cfg["epoch"], cfg["ics"]
    T = default_horizon(protocol) if horizon is None else float(horizon)
    times = trajectory_times(epoch, T, samples)
    engine = select_engine(protocol, gamma)

    # every start shares the drive's basis: one solve, states of shape (K, N, 4)
    exact = solve(protocol, gamma, ics, epoch).states(times[:, None])
    # the oracle is restarted from the closed-form state at the first sample so
    # both solutions share the same finite-time anchor; all starts form one batch
    ocfg = IntegratorConfig(t_start=times[0], t_end=times[-1])
    fractions = (times - times[0]) / (times[-1] - times[0])
    oracle = integrate_batch(gamma, protocol, exact[0], ocfg, fractions)

    names = [fig_id] if len(ics) == 1 else [f"{fig_id}_ic{k + 1}" for k in range(len(ics))]
    datasets = tuple(
        trajectory_dataset(name, times, exact[:, k], oracle.states[:, k])
        for k, name in enumerate(names)
    )
    plot = trajectory_plot(f"figure {fig_id}", datasets, _TRAJ_HEADER[1:])
    plot["overlay_series"] = {name: name for name in _NUM_HEADER}
    meta = {
        "figure": fig_id,
        "kind": "trajectory",
        "engine": engine,
        "oracle": oracle.solver_id,
        "gamma": f"{gamma:.17g}",
        "epoch": f"{epoch:.17g}",
        "horizon": f"{T:.17g}",
        "samples": str(samples),
        **protocol_meta(protocol),
    }
    for k, ic in enumerate(ics):
        meta[f"ic{k + 1}"] = amplitude_text(ic)
    return FigureData(fig_id, "trajectory", datasets, plot, meta)


def scan_bundle(key, name, title, spec, bounds):
    """Run spec and bundle its rows, plot and meta under name.

    key=name is the first meta entry and title starts the plot title; bounds
    (lo, hi) are the grid ends as given, which a one-point grid cannot show.
    Raises ValueError with the scan's refusal when a fixed value fails every
    row, so that nothing is written for it.
    """
    result = run_scan(spec)
    if result.refusal is not None:
        raise ValueError(result.refusal)
    names = tuple(f"Z{s}{q}_inf" for s, q in spec.observables)
    rows = tuple((row.param, *row.values, row.engine) for row in result.rows)
    datasets = (Dataset(name, ("param", *names, "engine"), rows),)
    plot = {
        "title": f"{title}: asymptotic imbalances vs {spec.swept}",
        "x_label": spec.swept,
        "y_label": "asymptotic imbalance",
        "series": {column: column for column in names},
        "files": [f"{name}_data.csv"],
    }
    lo, hi = bounds
    meta = {
        key: name,
        "kind": "scan",
        "swept": spec.swept,
        "grid": f"{lo:.17g}:{hi:.17g}:{spec.grid.size}",
        "epoch": f"{spec.epoch:.17g}",
        "ic": amplitude_text(spec.state0),
    }
    for field in sorted(spec.fixed):
        meta[field] = f"{spec.fixed[field]:.17g}"
    for k, row in enumerate(r for r in result.rows if r.error is not None):
        meta[f"failure_{k}"] = f"{row.param:.17g}: {row.error}"
    return FigureData(name, "scan", datasets, plot, meta)


def _build_scan(fig_id, samples):
    cfg = _SCANS[fig_id]
    spec = ScanSpec(
        swept=cfg["swept"],
        grid=np.linspace(*cfg["bounds"], samples),
        fixed=cfg["fixed"],
        state0=IC_THIRD,
        epoch=0.0,
        observables=((3, 1), (3, 2)),
    )
    return scan_bundle("figure", fig_id, f"figure {fig_id}", spec, cfg["bounds"])


def _build_surface(samples):
    """Spin-flip solvability surface upsilon = sqrt(chi^2/4 + epsilon^2).

    Refuses fewer than 2 samples per axis.
    """
    if samples < 2:
        raise ValueError(f"a surface needs at least 2 samples per axis, got {samples}")
    chi_grid = np.linspace(0.0, 2.0, samples)
    eps_grid = np.linspace(0.0, 2.0, samples)
    rows = []
    for chi in chi_grid:
        for eps in eps_grid:
            rows.append((chi, eps, math.hypot(0.5 * chi, eps)))
    datasets = (Dataset("3c", ("chi", "epsilon", "upsilon"), tuple(rows)),)
    plot = {
        "title": "figure 3c: spin-flip closed-form surface",
        "x_label": "chi",
        "y_label": "epsilon",
        "z_label": "upsilon",
        "files": ["3c_data.csv"],
    }
    meta = {
        "figure": "3c",
        "kind": "surface",
        "grid": f"0:2:{samples} x 0:2:{samples}",
        "relation": "upsilon = sqrt(chi^2/4 + epsilon^2)",
    }
    return FigureData("3c", "surface", datasets, plot, meta)


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
