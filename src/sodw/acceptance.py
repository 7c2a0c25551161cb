"""Release gate: thirteen behavioral checks with hard tolerances.

Each criterion function returns (passed, details).  run_all executes all of
them (or a subset by id), timing each; the cli verify verb prints one line
per criterion and exits nonzero when any check fails.  Tolerances are stated
inline in the details so a failing line is self-explanatory.  Criteria 1-3,
5-10, 12 and 13 take drive, coupling and starts from figures._TRAJECTORIES,
so they check the runs the figures draw; only criteria 4 and 11 build drives.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import sync
from .analysis import count_peaks, solve
from .core import AsyncTanhSech, SyncSech2, hamiltonian_matrix, imbalance, stack_drives
from .figures import _TRAJECTORIES, IC_THIRD
from .oracle import IntegratorConfig, integrate, integrate_batch

__all__ = ["CRITERIA", "run_all", "format_record"]

#: criterion 11 draws this many random cases per branch
C11_CASES = 50
#: criterion 11 compares exact and oracle states at this many samples per case
C11_SAMPLES = 121
#: criterion 11 evaluates the closed forms in this many blocks of samples
C11_BLOCKS = 11


def _sync_endpoint_z(fig_id, targets):
    """Asymptotic (Z31, Z32) of a figure's one start, given at the pulse center."""
    drive, gamma, (start,), _ = _TRAJECTORIES[fig_id]
    p_inf = solve(drive, gamma, start, 0.0).asymptotes()[1]
    z31, z32 = imbalance(p_inf, 3, 1), imbalance(p_inf, 3, 2)
    ok = all(abs(z - target) < 2e-3 for z, target in zip((z31, z32), targets))
    return ok, z31, z32


def _criterion_01():
    ok, z31, z32 = _sync_endpoint_z("1d", (0.2272, -0.5456))
    drive, gamma, (start,), _ = _TRAJECTORIES["1d"]
    grid = np.linspace(0.0, 25.0, 251)
    cfg = IntegratorConfig(t_start=0.0, t_end=25.0, rel_tol=1e-12, abs_tol=1e-14)
    p = np.abs(integrate(gamma, drive, start, cfg, grid).states[-1]) ** 2
    gap = max(abs(z31 - (p[2] - p[0])), abs(z32 - (p[2] - p[1])))
    ok = ok and gap < 1e-9
    return ok, (
        f"Z31={z31:.6f} (want 0.2272), Z32={z32:.6f} (want -0.5456) within 2e-3; "
        f"exact-vs-oracle gap {gap:.2e} (<1e-9)"
    )


def _criterion_02():
    ok, z31, z32 = _sync_endpoint_z("1e", (-0.6536, 0.1732))
    return ok, f"Z31={z31:.6f} (want -0.6536), Z32={z32:.6f} (want 0.1732) within 2e-3"


def _criterion_03():
    ok, z31, z32 = _sync_endpoint_z("1f", (-0.2061, -0.7939))
    sum_gap = abs(z31 + z32 + 1.0)
    ok = ok and sum_gap < 1e-9
    return ok, (
        f"Z31={z31:.6f} (want -0.2061), Z32={z32:.6f} (want -0.7939) within 2e-3; "
        f"|Z31+Z32+1| = {sum_gap:.2e} (<1e-9)"
    )


def _criterion_04():
    protocols = SyncSech2(0.0, (np.arange(3) + 0.5) * math.pi, 1.0)
    cfg = IntegratorConfig(t_start=0.0, t_end=25.0)
    p_exact = solve(protocols, 1.0, IC_THIRD, 0.0).asymptotes()[1]
    p_num = integrate_batch(1.0, protocols, IC_THIRD, cfg, [1.0]).population_array[-1]
    worst_exact = float(np.max(np.abs(imbalance(p_exact, 3, 1) + 1.0)))
    worst_num = float(np.max(np.abs(imbalance(p_num, 3, 1) + 1.0)))
    ok = worst_exact < 1e-9 and worst_num < 1e-6
    return ok, (
        f"complete-transfer residual over half-integer pulse areas: "
        f"exact {worst_exact:.2e} (<1e-9), oracle {worst_num:.2e} (<1e-6)"
    )


def _ends(fig_id, T):
    """Closed form of a figure's starts given at -T, and their populations at -/+T, (2, N, 4)."""
    solution = solve(*_TRAJECTORIES[fig_id][:3], -T)
    return solution, np.abs(solution.states(np.array([[-T], [T]]))) ** 2


def _sampled(fig_id, k, T):
    """2001 times over [-T, T] and the states there of a figure's start k, given at -T."""
    drive, gamma, starts, _ = _TRAJECTORIES[fig_id]
    times = np.linspace(-T, T, 2001)
    return times, solve(drive, gamma, starts[k], -T).states(times)


def _criterion_05():
    T = 25.0
    pe = _ends("2a", T)[1]
    gap_exact = float(np.max(np.abs(pe[1] - pe[0])))
    drive, gamma, (start,), _ = _TRAJECTORIES["2a"]
    cfg = IntegratorConfig(t_start=-T, t_end=T)
    pn = np.abs(integrate(gamma, drive, start, cfg, [-T, T]).states) ** 2
    gap_num = float(np.max(np.abs(pn[1] - pn[0])))
    ok = gap_exact < 1e-6 and gap_num < 1e-6
    return ok, f"max |P(+T)-P(-T)|: exact {gap_exact:.2e}, oracle {gap_num:.2e} (<1e-6)"


def _criterion_06():
    zlr = imbalance(_ends("2b", 25.0)[1], "L", "R")
    worst = float(np.max(np.abs(zlr[1] + zlr[0])))
    return worst < 1e-6, f"max |Z_LR(+T)+Z_LR(-T)| = {worst:.2e} over five starts (<1e-6)"


def _criterion_07():
    drive, gamma, (start,), _ = _TRAJECTORIES["2c"]
    p = solve(drive, gamma, start, -math.inf).asymptotes()[1]
    gap = max(abs(p[0] - 0.5), abs(p[1] - 0.5))
    return gap < 1e-6, f"P1={p[0]:.8f}, P2={p[1]:.8f} (want 0.5 each; off by {gap:.2e}, <1e-6)"


def _criterion_08():
    z = imbalance(_ends("3a", 25.0)[1], 3, 1)
    worst_sym = float(np.max(np.abs(z[1] - z[0])))
    worst_anchor = float(np.max(np.abs(z[0] - np.array([1.0, 0.5, 0.0, -0.5, -1.0]))))
    ok = worst_sym < 1e-6 and worst_anchor < 1e-12
    return ok, (
        f"max |Z31(+T)-Z31(-T)| = {worst_sym:.2e} (<1e-6); "
        f"start-value offset {worst_anchor:.2e} (<1e-12)"
    )


def _criterion_09():
    T = 12.5
    solution, p = _ends("3b", T)
    z = imbalance(p, 3, 1)
    worst = float(np.max(np.abs(z[1] + z[0])))
    # the equal-pair start, the third, over the whole pulse
    p = np.abs(solution.states(np.linspace(-T, T, 2001)[:, None])[:, 2]) ** 2
    cdt = float(np.max(np.abs(imbalance(p, 3, 1))))
    ok = worst < 1e-6 and cdt < 1e-9
    return ok, (
        f"max |Z31(+T)+Z31(-T)| = {worst:.2e} (<1e-6); "
        f"equal-pair start keeps max |Z31| = {cdt:.2e} (<1e-9)"
    )


def _criterion_10():
    solution, p = _ends("3d", 62.5)
    z41 = imbalance(p, 4, 1)
    worst_sym = float(np.max(np.abs(z41[1] + z41[0])))
    worst_asym = float(np.max(np.abs(p[1] - solution.asymptotes()[1])[:, [0, 3]]))
    ok = worst_sym < 1e-6 and worst_asym < 1e-6
    return ok, (
        f"max |Z41(+T)+Z41(-T)| = {worst_sym:.2e}; "
        f"constant-based asymptotes off by {worst_asym:.2e} (<1e-6)"
    )


def _random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _distances(cases):
    """Largest |exact - oracle| of every case over C11_SAMPLES samples.

    cases are (gamma, protocol, state0, t_lo, t_hi), all of one drive class,
    and become one stack.  The oracle integrates it as one batch and samples
    every window at the same fractions; the closed form solves it, each member
    from its own state0 at its own t_lo, and is evaluated at the oracle's times.
    """
    gammas, protocols, states0, t_lo, t_hi = zip(*cases)
    gammas, states0, t_lo = np.array(gammas), np.array(states0), np.array(t_lo)
    drives = stack_drives(protocols)
    window = IntegratorConfig(t_start=t_lo, t_end=np.array(t_hi))
    oracle = integrate_batch(gammas, drives, states0, window, np.linspace(0.0, 1.0, C11_SAMPLES))
    solution = solve(drives, gammas, states0, t_lo)
    # states() and the gaps hold a few (samples, members, 4) temporaries: a block
    # of samples at a time keeps them, and so the peak memory of verify, small
    gaps = []
    for block in np.array_split(np.arange(C11_SAMPLES), C11_BLOCKS):
        gap = np.linalg.norm(solution.states(oracle.times[block]) - oracle.states[block], axis=-1)
        gaps.append(gap.max(axis=0))
    return np.max(gaps, axis=0)


def _criterion_11():
    rng = np.random.default_rng(20260815)
    sync, conserving, flip = [], [], []
    for _ in range(C11_CASES):
        protocol = SyncSech2(rng.uniform(0, 2), rng.uniform(0.3, 2), rng.uniform(0.5, 2))
        T = 10.0 / protocol.Omega
        sync.append((rng.uniform(0, 2), protocol, _random_state(rng), -T, T))
    for _ in range(C11_CASES):
        gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
        protocol = AsyncTanhSech(rng.uniform(0, 2), rng.uniform(0.05, 2), rng.uniform(0.4, 2))
        T = 25.0 / protocol.chi
        conserving.append((gamma, protocol, _random_state(rng), -T, T))
    for _ in range(C11_CASES):
        gamma = float(rng.choice([0.5, 1.5]))
        chi = rng.uniform(0.4, 2.0)
        eps = rng.uniform(0.0, 2.0)
        protocol = AsyncTanhSech(eps, math.hypot(0.5 * chi, eps), chi)
        T = 25.0 / chi
        flip.append((gamma, protocol, _random_state(rng), -T, T))
    # one oracle batch per drive class: the two asynchronous branches share one
    worst = {"sync": _distances(sync).max()}
    asynchronous = _distances(conserving + flip)
    worst["conserving"] = asynchronous[:C11_CASES].max()
    worst["flip"] = asynchronous[C11_CASES:].max()
    ok = all(v < 1e-6 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    return ok, f"max |exact-oracle| over {C11_CASES} random cases per branch: {detail} (<1e-6)"


def _criterion_12():
    gamma = np.array([0.0, 0.15, 0.5, 1.0, 1.3, 2.0])
    beta = np.array([0.0, 0.3, 1.0, 2.5])[:, None]
    eig = sync.eigen_sync(beta, gamma)
    h = hamiltonian_matrix(gamma, 1.0, beta)
    symmetric_ok = bool(np.array_equal(h, np.swapaxes(h, -1, -2)))
    vectors = np.swapaxes(eig.vec, -1, -2)
    worst_res = float(np.max(np.abs(h @ vectors - vectors * eig.lam[..., None, :])))
    pairing_ok = bool(np.all(eig.lam[..., 0::2] + eig.lam[..., 1::2] == 0.0))
    drifts = []
    for fig_id, k, T in (("1d", 0, 25.0), ("3a", 1, 25.0), ("3d", 1, 62.5)):
        states = _sampled(fig_id, k, T)[1]
        drifts.append(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    ana_drift = float(max(drifts))
    drive, gamma, (start,), _ = _TRAJECTORIES["1d"]
    grid = np.linspace(0.0, 25.0, 501)
    cfg = IntegratorConfig(t_start=0.0, t_end=25.0)
    num_drift = integrate(gamma, drive, start, cfg, grid).norm_drift_max
    ok = (
        worst_res < 1e-12
        and pairing_ok
        and symmetric_ok
        and ana_drift < 1e-9
        and num_drift < 1e-8
    )
    return ok, (
        f"eigen residual {worst_res:.2e} (<1e-12); "
        f"opposite-sign level pairing {'exact' if pairing_ok else 'BROKEN'}; "
        f"matrix symmetry {'exact' if symmetric_ok else 'BROKEN'}; "
        f"analytic norm drift {ana_drift:.2e} (<1e-9); numeric drift {num_drift:.2e} (<1e-8)"
    )


def _criterion_13():
    window = (-5.0, 5.0)
    times, states = _sampled("2a", 0, 25.0)
    n_return = count_peaks(times, np.abs(states[:, 0]) ** 2, window, 0.01)
    counts = []
    for fig_id, T in (("3a", 25.0), ("3b", 12.5)):
        times, states = _sampled(fig_id, 0, T)
        z = np.abs(states[:, 2]) ** 2 - np.abs(states[:, 0]) ** 2
        counts.append(count_peaks(times, z, window, 0.01) + count_peaks(times, -z, window, 0.01))
    n_cons, n_inv = counts
    ok = n_return == 1 and n_cons == 1 and n_inv == 0
    return ok, (
        f"returning-pulse P1 {n_return} (want 1), "
        f"conserving-pulse Z31 {n_cons} (want 1), inverting-pulse Z31 {n_inv} (want 0)"
    )


CRITERIA = (
    (1, "sync imbalance targets, detuned pulse", _criterion_01),
    (2, "sync imbalance targets, integer coupling angle", _criterion_02),
    (3, "sync imbalance sum rule", _criterion_03),
    (4, "complete transfer at half-integer pulse areas", _criterion_04),
    (5, "population-conserving sync pulse", _criterion_05),
    (6, "population-inverting sync pulse", _criterion_06),
    (7, "equal split at quarter coupling angle", _criterion_07),
    (8, "conserving async pulse restores imbalance", _criterion_08),
    (9, "inverting async pulse flips imbalance, CDT null", _criterion_09),
    (10, "spin-flip pulse inversion and asymptotes", _criterion_10),
    (11, "oracle equivalence sweep", _criterion_11),
    (12, "structural invariants", _criterion_12),
    (13, "prominent-extremum counts", _criterion_13),
)


def run_all(ids=None):
    """Run the acceptance checks, returning one record dict per criterion."""
    records = []
    for cid, name, fn in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        start = time.perf_counter()
        try:
            passed, details = fn()
        except Exception as exc:
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        records.append(
            {
                "id": cid,
                "name": name,
                "passed": bool(passed),
                "details": details,
                "elapsed": time.perf_counter() - start,
            }
        )
    return records


def format_record(record):
    status = "PASS" if record["passed"] else "FAIL"
    return (
        f"criterion {record['id']:02d} {status} {record['name']}: "
        f"{record['details']} [{record['elapsed']:.2f}s]"
    )
