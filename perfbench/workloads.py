"""The four workloads: inputs made from a seed, one pass of CLI calls, checks.

A workload is a fixed list of `sodw` command lines, run in-process through
sodw.cli.main as a user would run them from a shell.  Every pass of a run
repeats the same command lines on the same inputs, so every pass attempts
the same operations and must write the same bytes.  Checks compare the
outputs with the references in reference.py, which is imported only when
checking so that it adds nothing to set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re

import numpy as np

import sodw.cli

#: sodw puts a state given at t = -inf on the async branches at -HORIZON/min(chi, 1)
HORIZON = 25.0

EXACT_TOL = 1e-9
ORACLE_TOL = 1e-6
#: |Z| bound of a row: 1 plus the norm drift sodw itself accepts for a physical row
Z_BOUND = 1.0 + 1e-9

#: the one operation that fails on every pass: eigen_sync(1.0, 1.01e-9) divides by zero
KNOWN_FAILURE = ("gate", 1.0, "float division by zero")

#: protocol values a scan's meta file records, besides the swept one
_FIXED_KEYS = ("gamma", "beta", "V", "Omega", "epsilon", "upsilon", "chi")


def _random_state(rng, levels=(0, 1, 2, 3)):
    state = np.zeros(4, dtype=complex)
    picked = list(levels)
    state[picked] = rng.normal(size=len(picked)) + 1j * rng.normal(size=len(picked))
    return state / np.linalg.norm(state)


def _amplitude_keys(state):
    keys = {}
    for k, a in enumerate(state, start=1):
        keys[f"a{k}_re"] = repr(float(a.real))
        keys[f"a{k}_im"] = repr(float(a.imag))
    return keys


def _write_config(path, cfg):
    with open(path, "w") as fh:
        for key, value in cfg.items():
            fh.write(f"{key}={value}\n")


def read_meta(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _parse_state(text):
    pairs = (part.split(",") for part in text.split(";"))
    return np.array([complex(float(re_), float(im)) for re_, im in pairs])


def _observable(column):
    pair = column[1:3]
    return tuple(int(ch) if ch.isdigit() else ch for ch in pair)


def _epoch(text):
    return -math.inf if text == "-inf" else float(text)


class Workload:
    """Command lines of one pass, their warm-up, and the checks of their outputs."""

    name = ""
    ops_per_pass = 0

    def __init__(self, out_dir, seed):
        self.out = out_dir
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.argvs = []

    def cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = sodw.cli.main(argv)
        return rc, buf.getvalue()

    def run_pass(self):
        return [self.cli(argv) for argv in self.argvs]

    def written(self, results):
        """Paths of the files the pass wrote, as the CLI printed them."""
        return [line for _, out in results for line in out.splitlines() if line]

    def digest(self, results):
        """Hash of exit codes and written bytes; equal for every pass of a run."""
        h = hashlib.sha256(repr([rc for rc, _ in results]).encode())
        for path in self.written(results):
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def _exit_problems(self, results):
        return [
            f"{' '.join(argv)} exited {rc}" for argv, (rc, _) in zip(self.argvs, results) if rc != 0
        ]


def check_scan(csv_path, meta, rng, samples, allow_oracle):
    """Check every row of a scan; return (failed rows, problems, rows).

    Every |Z| must stay within Z_BOUND.  Sync rows and rows on the
    spin-conserving branch are compared with the closed-form references
    within EXACT_TOL; `samples` oracle rows, drawn with rng, are re-integrated
    and compared within ORACLE_TOL.  A failed row (NaN values) is a problem
    unless it is KNOWN_FAILURE.
    """
    import reference

    with open(csv_path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [(float(r[0]), [float(v) for v in r[1:-1]], r[-1]) for r in reader]
    observables = [_observable(name) for name in header[1:-1]]
    label = meta.get("label", meta.get("figure"))
    swept, epoch, state0 = meta["swept"], _epoch(meta["epoch"]), _parse_state(meta["ic"])
    fixed = {k: float(meta[k]) for k in _FIXED_KEYS if k in meta}
    failures = {float(v.split(":")[0]): v for k, v in meta.items() if k.startswith("failure_")}
    failed, problems, oracle_rows = 0, [], []
    for x, values, engine in rows:
        where = f"{label} {swept}={x!r}"
        if any(math.isnan(v) for v in values):
            failed += 1
            known = (label, x) == KNOWN_FAILURE[:2] and KNOWN_FAILURE[2] in failures.get(x, "")
            if not known:
                problems.append(f"{where}: unexpected failure {failures.get(x, 'nan row')!r}")
            continue
        if max(abs(v) for v in values) > Z_BOUND:
            problems.append(f"{where}: |Z| = {max(abs(v) for v in values)!r} > 1")
        p = dict(fixed)
        if swept == "V_over_Omega":
            p["V"] = x * p.get("Omega", 1.0)
        elif swept == "upsilon_over_chi":
            p["upsilon"] = x * p["chi"]
        else:
            p[swept] = x
        if "chi" not in p:
            beta = p.get("beta", 0.0)
            ref = reference.sync_final(beta, p["gamma"], p["V"], p["Omega"], state0, epoch)
        elif engine == "oracle":
            if not allow_oracle:
                problems.append(f"{where}: routed to the oracle")
            oracle_rows.append((x, values, p))
            continue
        else:
            anchor = epoch if math.isfinite(epoch) else -HORIZON / min(p["chi"], 1.0)
            try:
                ref = reference.conserving_final(p["gamma"], p["upsilon"], p["chi"], state0, anchor)
            except ValueError as exc:
                problems.append(f"{where}: engine {engine} off the conserving branch ({exc})")
                continue
        gap = max(abs(a - b) for a, b in zip(values, reference.imbalances(ref, observables)))
        if not gap <= EXACT_TOL:
            problems.append(f"{where}: {engine} row off its reference by {gap:.3g}")
    picks = rng.choice(len(oracle_rows), size=min(samples, len(oracle_rows)), replace=False)
    for k in sorted(picks):
        x, values, p = oracle_rows[k]
        horizon = HORIZON / min(p["chi"], 1.0)
        t0 = epoch if math.isfinite(epoch) else -horizon
        ref = reference.async_reintegrate(
            p["gamma"], p["epsilon"], p["upsilon"], p["chi"], state0, t0, horizon
        )
        gap = max(abs(a - b) for a, b in zip(values, reference.imbalances(ref, observables)))
        if not gap <= ORACLE_TOL:
            problems.append(f"{label} {swept}={x!r}: oracle row off re-integration by {gap:.3g}")
    return failed, problems, rows


class ScanWorkload(Workload):
    """`sodw scan` over a list of configurations; one operation is one scan point."""

    #: swept value of the one-point warm-up scan built from the first configuration
    warmup_value = 0.0
    reintegrations = 0
    allow_oracle = False

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.scans = self.configurations()
        for cfg in self.scans:
            path = os.path.join(self.out, f"{cfg['label']}.cfg")
            _write_config(path, cfg)
            self.argvs.append(["scan", "--config", path, "--out", self.out])
        self.ops_per_pass = sum(int(cfg["grid_n"]) for cfg in self.scans)

    def configurations(self):
        raise NotImplementedError

    def warmup(self):
        cfg = dict(self.scans[0], grid_lo=self.warmup_value, grid_n=1, label="warmup")
        path = os.path.join(self.out, "warmup.cfg")
        _write_config(path, cfg)
        return self.cli(["scan", "--config", path, "--out", self.out])

    def check(self, results):
        problems = self._exit_problems(results)
        rng = np.random.default_rng([self.seed, 1])
        failed = 0
        for cfg in self.scans:
            label = cfg["label"]
            meta = read_meta(os.path.join(self.out, f"{label}_meta"))
            n_failed, found, rows = check_scan(
                os.path.join(self.out, f"{label}_data.csv"),
                meta,
                rng,
                self.reintegrations,
                self.allow_oracle,
            )
            failed += n_failed
            problems += found
            if len(rows) != int(cfg["grid_n"]):
                problems.append(f"{label}: {len(rows)} rows, want {cfg['grid_n']}")
            problems += self.check_rows(label, rows)
        return failed, problems

    def check_rows(self, label, rows):
        return []


class ScanExact(ScanWorkload):
    """Configurations that only the closed forms serve, plus the named eigen_sync failure."""

    name = "scan_exact"

    def configurations(self):
        rng = self.rng
        obs = {"observables": "31,32,LR"}
        n = 2001
        return [
            dict(
                label="beta", swept="beta", grid_lo=0.0, grid_hi=4.0, grid_n=n,
                gamma=0.5, V=rng.uniform(1.0, 2.0), Omega=1.0, epoch="0",
                **_amplitude_keys(_random_state(rng)), **obs,
            ),
            dict(
                label="v_over_omega", swept="V_over_Omega", grid_lo=0.0, grid_hi=8.0, grid_n=n,
                gamma=1.0, beta=0.0, Omega=rng.uniform(0.5, 2.0), epoch="0",
                **_amplitude_keys(_random_state(rng)), **obs,
            ),
            dict(
                label="gamma", swept="gamma", grid_lo=0.0, grid_hi=4.0, grid_n=n,
                beta=0.5, V=rng.uniform(1.0, 2.0), Omega=1.0, epoch="-inf",
                **_amplitude_keys(_random_state(rng)), **obs,
            ),
            dict(
                label="conserving_even", swept="upsilon_over_chi", grid_lo=0.0, grid_hi=4.0,
                grid_n=n, gamma=2.0, epsilon=rng.uniform(0.2, 0.8), chi=rng.uniform(0.6, 1.4),
                epoch="-inf", **_amplitude_keys(_random_state(rng)), **obs,
            ),
            dict(
                label="conserving_odd", swept="upsilon_over_chi", grid_lo=0.0, grid_hi=4.0,
                grid_n=n, gamma=1.0, epsilon=rng.uniform(0.2, 0.8), chi=rng.uniform(0.6, 1.4),
                epoch="0", **_amplitude_keys(_random_state(rng)), **obs,
            ),
            # not seeded: beta = 1 is on the grid, where eigen_sync divides by zero
            dict(
                label="gate", swept="beta", grid_lo=0.0, grid_hi=2.0, grid_n=401,
                gamma=1.01e-9, V=math.pi / 2, Omega=1.0, epoch="0",
                a3_re=1.0, **obs,
            ),
        ]


class ScanOracle(ScanWorkload):
    """Async gamma sweeps, mostly off both exact branches; one operation is one scan point."""

    name = "scan_oracle"
    warmup_value = 0.3
    reintegrations = 4
    allow_oracle = True

    def configurations(self):
        rng = self.rng
        # a state in the (a1, a3) pair is its own image under the gamma -> 2 - gamma
        # symmetry, so rows at gamma and 2 - gamma must agree
        state = _random_state(rng, levels=(0, 2))
        jitter = rng.uniform(0.98, 1.02, size=2)
        # chi^2/4 + eps^2 - ups^2 < 0 here, so the flip gate misses the constraint
        common = dict(
            swept="gamma", grid_lo=0.0, grid_hi=2.0, grid_n=41,
            epsilon=0.4 * jitter[0], upsilon=1.1 * jitter[1], observables="31,32,LR",
            **_amplitude_keys(state),
        )
        return [
            dict(label="chi1_center", chi=1.0, epoch="0", **common),
            dict(label="chi05_past", chi=0.5, epoch="-inf", **common),
        ]

    def check_rows(self, label, rows):
        problems = []
        for (x, a, _), (y, b, _) in zip(rows, reversed(rows)):
            if abs(x + y - 2.0) > 1e-12:
                problems.append(f"{label}: grid not symmetric about 1 at {x!r}, {y!r}")
            elif max(abs(u - v) for u, v in zip(a, b)) > EXACT_TOL:
                problems.append(f"{label}: rows at gamma={x!r} and {y!r} differ")
        return problems


FIGURE_IDS = ("1a", "1b", "1c", "1d", "1e", "1f", "2a", "2b", "2c", "3a", "3b", "3c", "3d")


class Figures(Workload):
    """`sodw figure --id` for every id, in an order drawn from the seed.

    One operation is one figure bundle.
    """

    name = "figures"
    ops_per_pass = len(FIGURE_IDS)

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.order = [FIGURE_IDS[k] for k in self.rng.permutation(len(FIGURE_IDS))]
        self.argvs = [["figure", "--id", fig, "--out", self.out] for fig in self.order]
        self.warmup_dir = os.path.join(self.out, "warmup")

    def warmup(self):
        return self.cli(["figure", "--id", "1d", "--out", self.warmup_dir])

    def check(self, results):
        import reference

        problems = self._exit_problems(results)
        rng = np.random.default_rng([self.seed, 1])
        for fig in FIGURE_IDS:
            meta = read_meta(os.path.join(self.out, f"{fig}_meta"))
            kind = meta["kind"]
            if kind == "scan":
                failed, found, _ = check_scan(
                    os.path.join(self.out, f"{fig}_data.csv"), meta, rng, 0, False
                )
                problems += found + ([f"{fig}: {failed} failed rows"] if failed else [])
            elif kind == "surface":
                chi, eps, ups = np.loadtxt(
                    os.path.join(self.out, "3c_data.csv"), delimiter=",", skiprows=1, unpack=True
                )
                gap = float(np.max(np.abs(ups**2 - (chi**2 / 4 + eps**2))))
                if not gap <= 1e-12:
                    problems.append(f"3c: upsilon^2 - chi^2/4 - epsilon^2 reaches {gap:.3g}")
            else:
                problems += self._check_trajectories(fig)
        for name in ("1d_data.csv", "1d_plot.json", "1d_meta"):
            with open(os.path.join(self.out, name), "rb") as a, open(
                os.path.join(self.warmup_dir, name), "rb"
            ) as b:
                if a.read() != b.read():
                    problems.append(f"{name}: writing figure 1d twice gave different bytes")
        return 0, problems

    def _check_trajectories(self, fig):
        problems = []
        with open(os.path.join(self.out, f"{fig}_plot.json")) as fh:
            files = json.load(fh)["files"]
        for name in files:
            table = np.loadtxt(os.path.join(self.out, name), delimiter=",", skiprows=1)
            closed, numeric = table[:, 1:9], table[:, 9:17]
            gap = float(np.max(np.abs(closed - numeric)))
            drift = float(np.max(np.abs(closed[:, 7] - 1.0)))
            if not gap <= ORACLE_TOL:
                problems.append(f"{name}: closed form and _num columns differ by {gap:.3g}")
            if not drift <= EXACT_TOL:
                problems.append(f"{name}: closed-form norm2 off 1 by {drift:.3g}")
        return problems


class Verify(Workload):
    """`sodw verify`; one operation is one acceptance criterion.  It has no input to seed."""

    name = "verify"
    ops_per_pass = 13

    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.argvs = [["verify"]]

    def warmup(self):
        return self.cli(["verify", "--criteria", "1"])

    def written(self, results):
        return []

    def digest(self, results):
        # per-criterion wall times are the only part of the report that may change
        return repr([(rc, re.sub(r" \[\d+\.\d+s\]", "", out)) for rc, out in results])

    def check(self, results):
        problems = self._exit_problems(results)
        (_, out), = results
        lines = out.splitlines()
        verdicts = re.findall(r"^criterion (\d\d) (PASS|FAIL)", out, flags=re.M)
        failed = sum(v == "FAIL" for _, v in verdicts)
        if len(verdicts) != self.ops_per_pass or failed or lines[-1] != "13/13 criteria passed":
            problems.append(f"verify: {lines[-1] if lines else 'no output'}")
        return failed, problems


WORKLOADS = {w.name: w for w in (ScanExact, ScanOracle, Figures, Verify)}
