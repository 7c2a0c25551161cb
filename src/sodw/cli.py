"""Command-line front end: figure datasets, evolutions, scans, classification.

Each verb that writes files (figure, evolve, scan) parses its arguments, makes
one call to a builder of the figures module (build_figure, evolve_bundle,
scan_bundle) and hands the bundle it returns to _write_bundle, the one writer.
The figures module owns what the files hold, runs every trajectory and picks
its engine; this module parses, names the files and writes them, with no
engine choice of its own.  _write_bundle puts each dataset in
`<name>_data.csv` with 17-significant-digit numbers, then a `<id>_plot.json`
description (title, axis labels, series to column map, and those CSV names as
"files") and a `<id>_meta` key=value file naming every parameter, engine and
tolerance needed to re-run, and prints each path.  A dataset is a set of
columns; its CSV is written in blocks of rows, each formatted from the columns
by numpy with bytes equal to "%.17g" % x for every number (the _csv module),
so no table is copied into rows and no file is held whole.  No timestamps
anywhere, so identical invocations produce byte-identical files.  The default
output directory is `SODW_OUT` from the environment, falling back to the
working directory.

Config files are flat key=value lines (# starts a comment).  evolve, scan
and classify read one map, _settings: the config, a key the verb does not
read refused by name, with each flag that was given laid over it.  gamma
and the drive fields are read from it by _drive_values alone, each refused
by key unless finite, whether or not the verb reads it.  A value that does
not parse as a number is refused under its key.  Every refusal is a
ValueError raised where its input first enters (a ScanSpec refuses a scan,
solve() a drive off the branches), before any file is written; main() alone
prints it as "error: <reason>" and exits 2.  Note argparse needs
`--epoch=-inf` (with the equals sign) for negative non-numeric-looking values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import acceptance
from ._csv import csv_blocks
from .analysis import SWEPT_NAMES, ScanSpec
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


_AMPLITUDES = tuple(f"a{k}_{part}" for k in (1, 2, 3, 4) for part in ("re", "im"))
_DRIVE_KEYS = ("gamma", *(f.name for drive in (SyncSech2, AsyncTanhSech) for f in fields(drive)))
# the keys a verb's config may hold, each of which it reads (engine is a flag only)
_CONFIG_KEYS = {
    "evolve": {"protocol", *_DRIVE_KEYS, *_AMPLITUDES, "epoch", "horizon", "grid", "label", "out"},
    "scan": {"swept", "grid_lo", "grid_hi", "grid_n", *_DRIVE_KEYS, *_AMPLITUDES, "epoch",
             "observables", "label", "out"},
}


def _settings(args):
    """The verb's config, a key it does not read refused by name, with the given flags over it."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    for key in cfg:
        if key not in _CONFIG_KEYS[args.command]:
            raise ValueError(f"unknown {args.command} config key {key!r}")
    return {**cfg, **{key: value for key, value in vars(args).items() if value is not None}}


def _drive_values(settings):
    """gamma and the drive fields that settings give, each refused by key unless finite."""
    given = [key for key in _DRIVE_KEYS if key in settings]
    return {key: float(_require_finite(key, _number(key, settings[key], float))) for key in given}


def _parse_amplitudes(settings):
    """The state of the keys a1_re..a4_im, (0, 0, 1, 0) where all are 0; refusals name keys.

    A component above sqrt(1 + 1e-6) in magnitude, in no state normalized
    within 1e-6, is refused before its square can overflow.
    """
    parts = {}
    for key in _AMPLITUDES:
        value = _number(key, settings.get(key, 0.0), float)
        parts[key] = value = float(_require_finite(key, value))
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


# the drive of each evolve protocol at the defaults of its fields
_DRIVES = {"sync": SyncSech2(0.0, math.pi / 2, 1.0), "async": AsyncTanhSech(0.0, 1.0, 1.0)}


def _cmd_figure(args):
    return _write_bundle(args.out, build_figure(args.id, samples=args.grid, horizon=args.horizon))


def _cmd_evolve(args):
    settings = _settings(args)
    values = _drive_values(settings)
    kind = settings.get("protocol")
    if kind not in _DRIVES:
        raise ValueError("evolve needs protocol=sync or protocol=async (config or --protocol)")
    gamma = values.get("gamma")
    if gamma is None:
        raise ValueError("evolve needs gamma (config or --gamma)")
    drive = _DRIVES[kind]
    protocol = replace(drive, **{f.name: values[f.name] for f in fields(drive) if f.name in values})
    state0 = _parse_amplitudes(settings)
    epoch = _number("epoch", settings.get("epoch", -math.inf), float)
    horizon = _number("horizon", settings["horizon"], float) if "horizon" in settings else None
    grid_n = _number("grid", settings.get("grid", 2001), int)
    label = settings.get("label", "run")
    bundle = evolve_bundle(label, protocol, gamma, state0, epoch, horizon, grid_n, args.engine)
    return _write_bundle(settings.get("out"), bundle)


def _cmd_scan(args):
    settings = _settings(args)
    swept = settings.get("swept")
    if swept is None:
        raise ValueError(f"scan config needs swept=<{'|'.join(SWEPT_NAMES)}>")
    lo = _number("grid_lo", settings.get("grid_lo", 0.0), float)
    hi = _number("grid_hi", settings.get("grid_hi", 1.0), float)
    _require_finite("grid_lo", lo)
    _require_finite("grid_hi", hi)
    n = _number("grid_n", settings.get("grid_n", 401), int)
    if n < 0:
        raise ValueError(f"grid_n must not be negative, got {n}")
    if n == 0 or (n > 1 and lo == hi):
        raise ValueError(f"grid_lo={lo:g}, grid_hi={hi:g} and grid_n={n} make no monotone grid")
    fixed = _drive_values(settings)
    state0 = _parse_amplitudes(settings)
    epoch = _number("epoch", settings.get("epoch", 0.0), float)
    observables = []
    for token in settings.get("observables", "31,32").split(","):
        token = token.strip()
        if len(token) != 2:
            raise ValueError(f"bad observable token {token!r} (want pairs like 31 or LR)")
        observables.append(tuple(int(ch) if ch.isdigit() else ch.upper() for ch in token))
    spec = ScanSpec(swept, np.linspace(lo, hi, n), fixed, state0, epoch, tuple(observables))
    label = settings.get("label", "scan")
    bundle = scan_bundle("label", label, label, spec, (lo, hi))
    return _write_bundle(settings.get("out"), bundle)


def _cmd_classify(args):
    values = _drive_values(_settings(args))
    # every line is made before any is printed, so a refused argument prints none
    lines = []
    if "V" in values and "Omega" in values:
        beta = values.get("beta", 0.0)
        cond = classify_sync_condition(beta, values["V"], values["Omega"])
        if cond.kind == "neither":
            verdict = f"neither CCPC nor CCPI (pulse-area ratio {cond.area:.6g}, nearest"
        else:
            verdict = f"{cond.kind} n={cond.n} (beta residual {abs(beta):.3g}, grid"
        lines.append(f"sync: {verdict} residual {cond.residual:.3g})")
    if "upsilon" in values and "chi" in values:
        cond = classify_async_conserving(values["upsilon"], values["chi"])
        if cond.kind == "neither":
            sin, cos = math.sin(cond.area), math.cos(cond.area)
            verdict = f"neither CCPC nor CCPI (sin(pi*upsilon/chi) = {sin:.3g}, cos = {cos:.3g})"
            lines.append(f"async (spin-conserving): {verdict}")
        else:
            lines.append(f"{cond.kind} (async, spin-conserving)")
        if "epsilon" in values:
            drive = AsyncTanhSech(values["epsilon"], values["upsilon"], values["chi"])
            residual, off = off_flip_constraint(drive)
            if not np.isfinite(residual):
                raise ValueError(
                    "flip-constraint residual chi^2/4 + epsilon^2 - upsilon^2 overflows at "
                    f"epsilon={drive.epsilon:g}, upsilon={drive.upsilon:g}, chi={drive.chi:g}"
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
    for name in (*_DRIVE_KEYS, "epoch", "horizon"):
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
    for name in _DRIVE_KEYS[1:]:
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
