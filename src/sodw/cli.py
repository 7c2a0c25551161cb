"""Command-line front end: figure datasets, evolutions, scans, classification.

Each verb that writes files (figure, evolve, scan) parses its arguments,
makes one call to a builder of the figures module (build_figure,
evolve_bundle, scan_bundle) and hands the bundle it returns to _write_bundle,
the one writer.  The figures module owns what the files hold and runs every
trajectory; this module only parses, names the files and writes them.
_write_bundle puts each dataset in `<name>_data.csv` with 17-significant-digit
numbers, then a `<id>_plot.json` description (title, axis labels, series to
column map, and those CSV names as "files") and a `<id>_meta` key=value file
naming every parameter, engine and tolerance needed to re-run, and prints
each path.  A dataset is a set of columns; its CSV is written in blocks of
rows, each formatted from the columns by numpy with bytes equal to "%.17g" % x
for every number (the _csv module), so no table is copied into rows and no
file is held whole.  No timestamps anywhere, so identical invocations produce
byte-identical files.  The default output directory is `SODW_OUT` from the
environment, falling back to the working directory.

Config files are flat key=value lines (# starts a comment); command-line
flags override config values.  A value that does not parse as a number is
refused under its key.  Every refusal is a ValueError raised where its input
first enters (a ScanSpec refuses a scan, solve() a drive off the branches),
before any file is written; main() alone prints it as "error: <reason>" and
exits 2.  Note argparse needs `--epoch=-inf` (with the equals sign) for
negative non-numeric-looking values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from ._csv import csv_blocks
from .analysis import ScanSpec, off_branch_reason
from .asynchronous import classify_async_conserving, off_flip_constraint
from .core import AsyncTanhSech, SyncSech2, _require_finite, as_state
from .figures import FIGURE_IDS, build_figure, evolve_bundle, scan_bundle
from .sync import classify_sync_condition


def _bundle_files(bundle):
    """(file name, bytes objects) of each file of a bundle, in the order they are written."""
    files = [f"{ds.name}_data.csv" for ds in bundle.datasets]
    yield from zip(files, map(csv_blocks, bundle.datasets))
    plot = json.dumps({**bundle.plot, "files": files}, sort_keys=True, indent=2) + "\n"
    meta = "".join(f"{key}={value}\n" for key, value in bundle.meta.items())
    yield f"{bundle.id}_plot.json", [plot.encode()]
    yield f"{bundle.id}_meta", [meta.encode()]


def _write_bundle(out, bundle):
    """Write a bundle's files under out (else $SODW_OUT, else .) and print each path."""
    out = out or os.environ.get("SODW_OUT") or "."
    os.makedirs(out, exist_ok=True)
    for name, blocks in _bundle_files(bundle):
        path = os.path.join(out, name)
        with open(path, "wb") as fh:
            fh.writelines(blocks)
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
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _number(key, value, kind):
    """value (a config string or a parsed flag) as kind, float or int, refused by key."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, got {value!r}") from None


def _setting(cfg, args, key, default=None):
    """Config value for key, overridden by an identically named flag."""
    flag = getattr(args, key, None)
    return cfg.get(key, default) if flag is None else flag


def _float_setting(cfg, args, key, default=None):
    value = _setting(cfg, args, key, default)
    return value if value is None else _number(key, value, float)


def _parse_amplitudes(cfg):
    """The state of the keys a1_re..a4_im, (0, 0, 1, 0) where all are 0; refusals name keys.

    A component above sqrt(1 + 1e-6) in magnitude, in no state normalized
    within 1e-6, is refused before its square can overflow.
    """
    parts = {}
    for key in (f"a{k}_{part}" for k in (1, 2, 3, 4) for part in ("re", "im")):
        parts[key] = value = float(_require_finite(key, _number(key, cfg.get(key, 0.0), float)))
        if not abs(value) <= math.sqrt(1.0 + 1e-6):
            raise ValueError(f"{key} must be at most sqrt(1 + 1e-6) in magnitude, got {value!r}")
    amps = [complex(parts[f"a{k}_re"], parts[f"a{k}_im"]) for k in (1, 2, 3, 4)]
    if not any(abs(a) > 0 for a in amps):
        amps = [0j, 0j, 1 + 0j, 0j]
    state0 = as_state(amps)
    norm_gap = abs(float(np.sum(np.abs(state0) ** 2)) - 1.0)
    if norm_gap > 1e-6:
        given = ", ".join(key for key, value in parts.items() if value)
        raise ValueError(
            f"initial amplitudes {given} rejected: |norm^2 - 1| = {norm_gap:.3g} exceeds 1e-6"
        )
    return state0


# the drive of each evolve protocol, and the defaults of its fields
_DRIVES = {
    "sync": (SyncSech2, {"beta": 0.0, "V": math.pi / 2, "Omega": 1.0}),
    "async": (AsyncTanhSech, {"epsilon": 0.0, "upsilon": 1.0, "chi": 1.0}),
}


def _cmd_figure(args):
    return _write_bundle(args.out, build_figure(args.id, samples=args.grid, horizon=args.horizon))


def _cmd_evolve(args):
    cfg = _read_config(args.config) if args.config else {}
    kind = args.protocol or cfg.get("protocol")
    if kind not in _DRIVES:
        raise ValueError("evolve needs protocol=sync or protocol=async (config or --protocol)")
    gamma = _float_setting(cfg, args, "gamma")
    if gamma is None:
        raise ValueError("evolve needs gamma (config or --gamma)")
    drive, defaults = _DRIVES[kind]
    fields = {key: _float_setting(cfg, args, key, default) for key, default in defaults.items()}
    protocol = drive(**fields)
    state0 = _parse_amplitudes(cfg)
    epoch = _float_setting(cfg, args, "epoch", -math.inf)
    horizon = _float_setting(cfg, args, "horizon")
    grid_n = _number("grid", _setting(cfg, args, "grid", 2001), int)
    label = _setting(cfg, args, "label", "run")

    engine = args.engine or ("exact" if off_branch_reason(protocol, gamma) is None else "oracle")
    bundle = evolve_bundle(label, protocol, gamma, state0, epoch, horizon, grid_n, engine)
    return _write_bundle(_setting(cfg, args, "out"), bundle)


def _cmd_scan(args):
    cfg = _read_config(args.config)
    if "swept" not in cfg:
        raise ValueError("scan config needs swept=<beta|V_over_Omega|gamma|upsilon_over_chi>")
    lo = _number("grid_lo", cfg.get("grid_lo", 0.0), float)
    hi = _number("grid_hi", cfg.get("grid_hi", 1.0), float)
    _require_finite("grid_lo", lo)
    _require_finite("grid_hi", hi)
    n = _number("grid_n", cfg.get("grid_n", 401), int)
    if n < 0:
        raise ValueError(f"grid_n must not be negative, got {n}")
    if n == 0 or (n > 1 and lo == hi):
        raise ValueError(f"grid_lo={lo:g}, grid_hi={hi:g} and grid_n={n} make no monotone grid")
    fixed = {
        key: _number(key, cfg[key], float)
        for key in ("gamma", "beta", "V", "Omega", "epsilon", "upsilon", "chi")
        if key in cfg
    }
    state0 = _parse_amplitudes(cfg)
    epoch = _number("epoch", cfg.get("epoch", 0.0), float)
    observables = []
    for token in cfg.get("observables", "31,32").split(","):
        token = token.strip()
        if len(token) != 2:
            raise ValueError(f"bad observable token {token!r} (want pairs like 31 or LR)")
        observables.append(tuple(int(ch) if ch.isdigit() else ch.upper() for ch in token))
    spec = ScanSpec(cfg["swept"], np.linspace(lo, hi, n), fixed, state0, epoch, tuple(observables))
    label = cfg.get("label", "scan")
    bundle = scan_bundle("label", label, label, spec, (lo, hi))
    return _write_bundle(args.out or cfg.get("out"), bundle)


def _cmd_classify(args):
    # every line is made before any is printed, so a refused argument prints none
    lines = []
    if args.V is not None and args.Omega is not None:
        beta = args.beta or 0.0
        cond = classify_sync_condition(beta, args.V, args.Omega)
        if cond.kind == "neither":
            verdict = f"neither CCPC nor CCPI (pulse-area ratio {cond.area:.6g}, nearest"
        else:
            verdict = f"{cond.kind} n={cond.n} (beta residual {abs(beta):.3g}, grid"
        lines.append(f"sync: {verdict} residual {cond.residual:.3g})")
    if args.upsilon is not None and args.chi is not None:
        cond = classify_async_conserving(args.upsilon, args.chi)
        if cond.kind == "neither":
            sin, cos = math.sin(cond.area), math.cos(cond.area)
            verdict = f"neither CCPC nor CCPI (sin(pi*upsilon/chi) = {sin:.3g}, cos = {cos:.3g})"
            lines.append(f"async (spin-conserving): {verdict}")
        else:
            lines.append(f"{cond.kind} (async, spin-conserving)")
        if args.epsilon is not None:
            drive = AsyncTanhSech(args.epsilon, args.upsilon, args.chi)
            residual, off = off_flip_constraint(drive)
            if not np.isfinite(residual):
                raise ValueError(
                    "flip-constraint residual chi^2/4 + epsilon^2 - upsilon^2 overflows at "
                    f"epsilon={args.epsilon:g}, upsilon={args.upsilon:g}, chi={args.chi:g}"
                )
            state = "violated" if off else "satisfied"
            residual_text = "0" if abs(residual) < 1e-12 else f"{residual:.6g}"
            lines.append(f"flip-constraint {state}, residual {residual_text}")
    if not lines:
        raise ValueError(
            "nothing to classify: give --V and --Omega (sync) and/or --upsilon and --chi "
            "(async; add --epsilon for the flip constraint)"
        )
    print("\n".join(lines))
    return 0


def _cmd_verify(args):
    ids = None
    if args.criteria:
        ids = {_number("criteria", token, int) for token in args.criteria.replace(",", " ").split()}
    records = acceptance.run_all(ids)
    if not records:
        raise ValueError("no matching criteria")
    for record in records:
        print(acceptance.format_record(record))
    n_pass = sum(record["passed"] for record in records)
    print(f"{n_pass}/{len(records)} criteria passed")
    return 0 if n_pass == len(records) else 1


def build_parser():
    """The sodw argument parser, built once per process: parsing leaves it as it was."""
    return _parser()


@functools.cache
def _parser():
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
