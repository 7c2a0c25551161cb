"""Command-line front end: figure datasets, evolutions, scans, classification.

Every verb that writes files (figure, evolve, scan) builds one FigureData
bundle from the pieces in the figures module, which owns what the files hold:
column headers, named initial states, plot and meta keys.  _write_bundle is
the one writer.  It puts each dataset in `<name>_data.csv` with
17-significant-digit numbers, then a `<id>_plot.json` description (title,
axis labels, series to column map) and a `<id>_meta` key=value file naming
every parameter, engine and tolerance needed to re-run, and prints each path.
No timestamps anywhere, so identical invocations produce byte-identical files.
The default output directory is `SODW_OUT` from the environment, falling back
to the working directory.

Config files are flat key=value lines (# starts a comment); command-line
flags override config values.  Note argparse needs `--epoch=-inf` (with the
equals sign) for negative non-numeric-looking values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from .analysis import ScanSpec, default_horizon, off_branch_reason, solve
from .asynchronous import FLIP_CONSTRAINT_TOL, check_flip_constraint, classify_async_conserving
from .core import AsyncTanhSech, SyncSech2, as_state
from .figures import (
    FIGURE_IDS,
    FigureData,
    amplitude_text,
    build_figure,
    protocol_meta,
    scan_bundle,
    trajectory_dataset,
    trajectory_plot,
    trajectory_times,
)
from .oracle import IntegratorConfig, integrate
from .sync import classify_sync_condition


def _bundle_files(bundle):
    """(file name, text) of each file of a bundle, in the order they are written."""
    for ds in bundle.datasets:
        # one %-format per table: 17 significant digits per number, strings as they are
        first = ds.rows[0] if ds.rows else ()
        fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first)
        lines = [",".join(ds.header)] + [fmt % row for row in ds.rows]
        yield f"{ds.name}_data.csv", "\n".join(lines) + "\n"
    yield f"{bundle.id}_plot.json", json.dumps(bundle.plot, sort_keys=True, indent=2) + "\n"
    yield f"{bundle.id}_meta", "".join(f"{key}={value}\n" for key, value in bundle.meta.items())


def _write_bundle(out, bundle):
    """Write a bundle's files under out (else $SODW_OUT, else .) and print each path."""
    out = out or os.environ.get("SODW_OUT") or "."
    os.makedirs(out, exist_ok=True)
    for name, text in _bundle_files(bundle):
        path = os.path.join(out, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        print(path)
    return 0


def _read_config(path):
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"bad config line (expected key=value): {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _setting(cfg, args, key, default=None):
    """Config value for key, overridden by an identically named flag."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _float_setting(cfg, args, key, default=None):
    value = _setting(cfg, args, key, default)
    return value if value is None else float(value)


def _parse_amplitudes(cfg):
    amps = [
        complex(float(cfg.get(f"a{k}_re", 0.0)), float(cfg.get(f"a{k}_im", 0.0)))
        for k in (1, 2, 3, 4)
    ]
    if not any(abs(a) > 0 for a in amps):
        amps = [0j, 0j, 1 + 0j, 0j]
    state0 = as_state(amps)
    norm_gap = abs(float(np.sum(np.abs(state0) ** 2)) - 1.0)
    if norm_gap > 1e-6:
        raise SystemExit(
            f"initial amplitudes rejected: |norm^2 - 1| = {norm_gap:.3g} exceeds 1e-6"
        )
    return state0


def _cmd_figure(args):
    return _write_bundle(args.out, build_figure(args.id, samples=args.grid, horizon=args.horizon))


def _cmd_evolve(args):
    cfg = _read_config(args.config) if args.config else {}
    kind = args.protocol or cfg.get("protocol")
    if kind not in ("sync", "async"):
        raise SystemExit("evolve needs protocol=sync or protocol=async (config or --protocol)")
    gamma = _float_setting(cfg, args, "gamma")
    if gamma is None:
        raise SystemExit("evolve needs gamma (config or --gamma)")
    if kind == "sync":
        protocol = SyncSech2(
            _float_setting(cfg, args, "beta", 0.0),
            _float_setting(cfg, args, "V", math.pi / 2),
            _float_setting(cfg, args, "Omega", 1.0),
        )
    else:
        protocol = AsyncTanhSech(
            _float_setting(cfg, args, "epsilon", 0.0),
            _float_setting(cfg, args, "upsilon", 1.0),
            _float_setting(cfg, args, "chi", 1.0),
        )
    state0 = _parse_amplitudes(cfg)
    epoch = _float_setting(cfg, args, "epoch", -math.inf)
    horizon = _float_setting(cfg, args, "horizon")
    if horizon is None:
        horizon = default_horizon(protocol)
    grid_n = int(_setting(cfg, args, "grid", 2001))
    label = _setting(cfg, args, "label", "run")

    times = trajectory_times(epoch, horizon, grid_n)
    reason = off_branch_reason(protocol, gamma)
    engine = args.engine or ("exact" if reason is None else "oracle")
    if engine in ("exact", "both") and reason is not None:
        print("cannot use the exact engine: " + reason, file=sys.stderr)
        return 2

    params = protocol_meta(protocol)
    meta = {
        "label": label,
        "engine": engine,
        "protocol": params.pop("protocol"),
        "gamma": f"{gamma:.17g}",
        **params,
        "epoch": f"{epoch:.17g}",
        "horizon": f"{horizon:.17g}",
        "grid": str(grid_n),
        "ic": amplitude_text(state0),
    }
    solutions = []
    if engine in ("exact", "both"):
        solutions.append(solve(protocol, gamma, state0, epoch).states(times))
    if engine in ("oracle", "both"):
        start_state = solutions[0][0] if solutions else state0
        ocfg = IntegratorConfig(t_start=times[0], t_end=times[-1])
        traj = integrate(gamma, protocol, start_state, ocfg, times)
        meta["oracle"] = traj.solver_id
        if engine == "both":
            deviation = float(np.max(np.linalg.norm(solutions[0] - traj.states, axis=1)))
            meta["max_deviation"] = f"{deviation:.17g}"
        solutions.append(traj.states)

    dataset = trajectory_dataset(label, times, *solutions)
    plot = trajectory_plot(label, (dataset,), dataset.header[1:])
    bundle = FigureData(label, "trajectory", (dataset,), plot, meta)
    return _write_bundle(_setting(cfg, args, "out"), bundle)


def _cmd_scan(args):
    cfg = _read_config(args.config)
    if "swept" not in cfg:
        raise SystemExit("scan config needs swept=<beta|V_over_Omega|gamma|upsilon_over_chi>")
    lo = float(cfg.get("grid_lo", 0.0))
    hi = float(cfg.get("grid_hi", 1.0))
    n = int(cfg.get("grid_n", 401))
    fixed = {
        key: float(cfg[key])
        for key in ("gamma", "beta", "V", "Omega", "epsilon", "upsilon", "chi")
        if key in cfg
    }
    state0 = _parse_amplitudes(cfg)
    epoch = float(cfg.get("epoch", 0.0))
    observables = []
    for token in cfg.get("observables", "31,32").split(","):
        token = token.strip()
        if len(token) != 2:
            raise SystemExit(f"bad observable token {token!r} (want pairs like 31 or LR)")
        observables.append(tuple(int(ch) if ch.isdigit() else ch.upper() for ch in token))
    spec = ScanSpec(cfg["swept"], np.linspace(lo, hi, n), fixed, state0, epoch, tuple(observables))
    label = cfg.get("label", "scan")
    bundle = scan_bundle("label", label, label, spec, (lo, hi))
    return _write_bundle(args.out or cfg.get("out"), bundle)


def _cmd_classify(args):
    # every line is made before any is printed, so a refused argument prints none
    lines = []
    if args.V is not None and args.Omega is not None:
        cond = classify_sync_condition(args.beta or 0.0, args.V, args.Omega)
        if cond.kind == "neither":
            lines.append(
                "sync: neither CCPC nor CCPI "
                f"(pulse-area ratio {cond.ratio:.6g}, nearest residual {cond.grid_residual:.3g})"
            )
        else:
            lines.append(
                f"sync: {cond.kind} n={cond.n} "
                f"(beta residual {cond.beta_residual:.3g}, grid residual {cond.grid_residual:.3g})"
            )
    if args.upsilon is not None and args.chi is not None:
        cond = classify_async_conserving(args.upsilon, args.chi)
        if cond.kind == "neither":
            lines.append(
                "async (spin-conserving): neither CCPC nor CCPI "
                f"(sin(pi*upsilon/chi) = {cond.sin_val:.3g}, cos = {cond.cos_val:.3g})"
            )
        else:
            lines.append(f"{cond.kind} (async, spin-conserving)")
        if args.epsilon is not None:
            AsyncTanhSech(args.epsilon, args.upsilon, args.chi)
            residual = check_flip_constraint(args.epsilon, args.upsilon, args.chi)
            state = "satisfied" if abs(residual) <= FLIP_CONSTRAINT_TOL else "violated"
            residual_text = "0" if abs(residual) < 1e-12 else f"{residual:.6g}"
            lines.append(f"flip-constraint {state}, residual {residual_text}")
    if not lines:
        print(
            "nothing to classify: give --V and --Omega (sync) and/or --upsilon and --chi "
            "(async; add --epsilon for the flip constraint)",
            file=sys.stderr,
        )
        return 2
    print("\n".join(lines))
    return 0


def _cmd_verify(args):
    ids = None
    if args.criteria:
        ids = {int(token) for token in args.criteria.replace(",", " ").split()}
    records = acceptance.run_all(ids)
    if not records:
        print("no matching criteria", file=sys.stderr)
        return 2
    for record in records:
        print(acceptance.format_record(record))
    n_pass = sum(record["passed"] for record in records)
    print(f"{n_pass}/{len(records)} criteria passed")
    return 0 if n_pass == len(records) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sodw",
        description="exact and numerical dynamics of a driven four-level double well",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write a built-in demonstration dataset")
    fig.add_argument("--id", required=True, choices=FIGURE_IDS)
    fig.add_argument("--out", help="output directory (default: $SODW_OUT or .)")
    fig.add_argument("--grid", type=int, help="sample count (per axis for the surface)")
    fig.add_argument("--horizon", type=float, help="trajectory horizon override")
    fig.set_defaults(func=_cmd_figure)

    ev = sub.add_parser("evolve", help="evolve one initial state and write the trajectory")
    ev.add_argument("--config", help="flat key=value file; flags override")
    ev.add_argument("--engine", choices=("exact", "oracle", "both"))
    ev.add_argument("--protocol", choices=("sync", "async"))
    for name in ("gamma", "beta", "V", "Omega", "epsilon", "upsilon", "chi", "epoch", "horizon"):
        ev.add_argument(f"--{name}", type=float)
    ev.add_argument("--grid", type=int)
    ev.add_argument("--label")
    ev.add_argument("--out")
    ev.set_defaults(func=_cmd_evolve)

    sc = sub.add_parser("scan", help="sweep one parameter and record asymptotic imbalances")
    sc.add_argument("--config", required=True)
    sc.add_argument("--out")
    sc.set_defaults(func=_cmd_scan)

    cl = sub.add_parser("classify", help="name the transfer condition for given parameters")
    for name in ("beta", "V", "Omega", "epsilon", "upsilon", "chi"):
        cl.add_argument(f"--{name}", type=float)
    cl.set_defaults(func=_cmd_classify)

    ver = sub.add_parser("verify", help="run the acceptance checks, one line per criterion")
    ver.add_argument("--criteria", help="comma-separated criterion ids (default: all)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
