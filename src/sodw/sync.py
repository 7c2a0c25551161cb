"""Exact solution engine for the synchronous drive epsilon(t) = beta*upsilon(t).

With upsilon(t) = V*sech^2(Omega*t) the substitution tau(t) = (V/Omega)*tanh(Omega*t)
maps the four-level problem onto a constant-coefficient one,

    i da/dtau = H_tau a,      H_tau = hamiltonian_matrix(gamma, 1, beta),

whose characteristic values come in opposite-sign pairs

    lambda_{1,2} = -/+ sqrt(1 + beta^2 - 2*beta*cos(pi*gamma)),
    lambda_{3,4} = -/+ sqrt(1 + beta^2 + 2*beta*cos(pi*gamma)),

with eigenvectors proportional to (1, alpha, 1, -alpha) for the first pair and
(1, eta, -1, eta) for the second, where

    alpha = (cos(pi*gamma) - beta + lambda) / sin(pi*gamma),
    eta   = (cos(pi*gamma) + beta - lambda) / sin(pi*gamma).

The general solution is a_k(tau) = sum_m s_m vec[m]_k exp(-i lambda_m tau); the
coefficients s_m are fixed by the state at one reference tau0.

Note on the basis: by their (1, x, 1, -x) / (1, y, -1, y) structure the four
vectors are mutually orthogonal for EVERY (beta, gamma), including at the
beta=0 spectral degeneracy lambda_1 = lambda_3 (any two vectors from different
pairs have component products that cancel in the dot product, and within a
pair alpha_plus*alpha_minus = eta_plus*eta_minus = -1).  The superposition
coefficients are nevertheless obtained from the full 4x4 linear system, which
stays correct whether or not that observation is trusted.

When |sin(pi*gamma)| < 1e-9 the alpha/eta expressions are indeterminate; H_tau
then decouples into the 2x2 blocks (a1,a3) and (a2,a4) and the engine builds
the eigensystem from the blocks' closed-form eigenpairs instead (the
csc-based constants are reported as NaN on that branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SIN_BRANCH_TOL, SOCoupling, as_coupling, as_state, populations

__all__ = [
    "EigenSystem",
    "SuperpositionCoeffs",
    "SyncCondition",
    "eigen_sync",
    "tau_sech2",
    "superposition_from_initial",
    "evolve_sync",
    "classify_sync_condition",
    "SyncSolution",
]


@dataclass(frozen=True)
class EigenSystem:
    """Characteristic values and vectors of the constant tau-frame matrix.

    lam[m] and vec[m] (rows) satisfy H_tau vec[m] = lam[m] vec[m] with
    lam[0] = -lam[1], lam[2] = -lam[3].  alpha/eta are the auxiliary
    csc(pi*gamma) constants of the closed-form branch (NaN on the degenerate
    branch, where they are not defined).
    """

    lam: np.ndarray
    vec: np.ndarray
    alpha_minus: float
    alpha_plus: float
    eta_minus: float
    eta_plus: float
    beta: float
    gamma: SOCoupling


@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Complex weights s[m] of the eigenvector expansion, anchored at tau0."""

    s: np.ndarray
    tau0: float


def _csc_roots(base, radical, sin_pg):
    """Both roots (base +/- radical)/sin_pg, avoiding cancellation.

    The two roots multiply to -1 (since radical^2 - base^2 = sin_pg^2), so the
    smaller-magnitude one is recovered from the stably computed larger one.
    """
    if base >= 0.0:
        plus = (base + radical) / sin_pg
        minus = -1.0 / plus
    else:
        minus = (base - radical) / sin_pg
        plus = -1.0 / minus
    return minus, plus


def _pair_vector(x, second_half_sign):
    """Normalized (1, x, s, s*(-x)) with s = +/-1 ... see eigen_sync."""
    n = 1.0 / math.sqrt(2.0 + 2.0 * x * x)
    if second_half_sign > 0:
        return np.array([n, x * n, n, -x * n])
    return np.array([n, x * n, -n, x * n])


def eigen_sync(beta, gamma):
    """Eigen-decomposition of H_tau = hamiltonian_matrix(gamma, 1, beta).

    Returns an EigenSystem with normalized vectors; routes to the decoupled
    2x2-block construction when |sin(pi*gamma)| < 1e-9.
    """
    g = as_coupling(gamma)
    beta = float(beta)
    s = g.sin_pg

    if abs(s) < SIN_BRANCH_TOL:
        return _eigen_sync_degenerate(beta, g)

    # 1 -/+ cos(pi*gamma) as 2 sin^2 / 2 cos^2 of pi*gamma/2: near an integer
    # gamma the direct difference loses every digit and r1 can round to 0
    half = 0.5 * math.pi * g.gamma
    one_minus_c = 2.0 * math.sin(half) ** 2
    one_plus_c = 2.0 * math.cos(half) ** 2
    d = 1.0 - beta
    r1 = math.sqrt(d * d + 2.0 * beta * one_minus_c)
    r2 = math.sqrt(d * d + 2.0 * beta * one_plus_c)
    alpha_minus, alpha_plus = _csc_roots(d - one_minus_c, r1, s)
    eta_minus, eta_plus = _csc_roots(one_plus_c - d, r2, s)

    lam = np.array([-r1, r1, -r2, r2])
    vec = np.stack(
        [
            _pair_vector(alpha_minus, +1),
            _pair_vector(alpha_plus, +1),
            _pair_vector(eta_plus, -1),
            _pair_vector(eta_minus, -1),
        ]
    )
    return EigenSystem(lam, vec, alpha_minus, alpha_plus, eta_minus, eta_plus, beta, g)


_E13_PLUS = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
_E13_MINUS = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
_E24_PLUS = np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)
_E24_MINUS = np.array([0.0, 1.0, 0.0, -1.0]) / math.sqrt(2.0)


def _eigen_sync_degenerate(beta, g):
    """Eigensystem at cos(pi*gamma) = +/-1, where H_tau splits into 2x2 blocks.

    The (a1,a3) block is [[beta, -c], [-c, beta]] and the (a2,a4) block is
    [[-beta, -c], [-c, -beta]] with c = round(cos(pi*gamma)); their eigenpairs
    are assigned to the lambda slots -|1 -/+ c*beta|, +|1 -/+ c*beta| so the
    slot formulas match the closed-form branch limits.
    """
    c = 1.0 if g.cos_pg > 0 else -1.0
    candidates = [
        [beta - c, _E13_PLUS],
        [beta + c, _E13_MINUS],
        [-beta - c, _E24_PLUS],
        [-beta + c, _E24_MINUS],
    ]
    targets = [
        -abs(1.0 - c * beta),
        abs(1.0 - c * beta),
        -abs(1.0 + c * beta),
        abs(1.0 + c * beta),
    ]
    used = [False] * 4
    lam = np.empty(4)
    vec = np.empty((4, 4))
    for slot, target in enumerate(targets):
        for k, (value, v) in enumerate(candidates):
            if not used[k] and abs(value - target) <= 1e-12 * max(1.0, abs(target)):
                used[k] = True
                lam[slot] = target
                vec[slot] = v
                break
        else:  # pragma: no cover - the multisets always coincide
            raise AssertionError("degenerate-branch eigenvalue matching failed")
    nan = float("nan")
    return EigenSystem(lam, vec, nan, nan, nan, nan, beta, g)


def tau_sech2(V, Omega, t):
    """Rescaled time tau(t) = (V/Omega)*tanh(Omega*t) for the sech^2 pulse."""
    if not (Omega > 0):
        raise ValueError(f"Omega must be > 0, got {Omega}")
    return (V / Omega) * np.tanh(Omega * np.asarray(t, dtype=float))


def superposition_from_initial(eig, state0, tau0):
    """Coefficients s with sum_m s_m vec[m] e^{-i lam_m tau0} = state0.

    Solved as a full 4x4 linear system (robust at the beta=0 eigenvalue
    degeneracy regardless of basis orthogonality).
    """
    state0 = as_state(state0)
    tau0 = float(tau0)
    basis = eig.vec.T * np.exp(-1j * eig.lam * tau0)
    s = np.linalg.solve(basis, state0)
    return SuperpositionCoeffs(s, tau0)


def evolve_sync(eig, coeffs, tau):
    """Amplitudes a_k(tau) = sum_m s_m vec[m]_k e^{-i lam_m tau}.

    tau may be a scalar (returns shape (4,)) or an array (returns (..., 4)).
    """
    tau = np.asarray(tau, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(tau, eig.lam))
    return (phases * coeffs.s) @ eig.vec


@dataclass(frozen=True)
class SyncCondition:
    """Classification of a synchronous drive against the exact return/inversion conditions."""

    kind: str  # "CCPC", "CCPI" or "neither"
    n: int | None
    ratio: float  # 2V/Omega
    beta_residual: float
    grid_residual: float


def classify_sync_condition(beta, V, Omega, tol=1e-9):
    """Classify (beta, V, Omega).

    CCPC(n): beta = 0 and 2V/Omega = n*pi (n >= 1) -- every population
    returns to its initial value.  CCPI(n): beta = 0 and
    2V/Omega = (n + 1/2)*pi (n >= 0) -- the left/right populations invert.
    Both tested within tol.
    """
    if not (Omega > 0):
        raise ValueError(f"Omega must be > 0, got {Omega}")
    if not (tol > 0):
        raise ValueError(f"tol must be > 0, got {tol}")
    ratio = 2.0 * V / Omega
    beta_res = abs(float(beta))
    n_c = round(ratio / math.pi)
    res_c = abs(ratio - n_c * math.pi)
    n_i = round(ratio / math.pi - 0.5)
    res_i = abs(ratio - (n_i + 0.5) * math.pi)
    if beta_res <= tol:
        if n_c >= 1 and res_c <= tol:
            return SyncCondition("CCPC", n_c, ratio, beta_res, res_c)
        if n_i >= 0 and res_i <= tol:
            return SyncCondition("CCPI", n_i, ratio, beta_res, res_i)
    return SyncCondition("neither", None, ratio, beta_res, min(res_c, res_i))


class SyncSolution:
    """Exact synchronous solution with the state imposed at t0.

    The eigensystem and the superposition coefficients are built once.
    t0 = -inf maps exactly to tau0 = -V/Omega, the saturated rescaled time.
    """

    def __init__(self, protocol, gamma, state0, t0):
        self.protocol = protocol
        self.tau_inf = protocol.V / protocol.Omega
        t0 = float(t0)
        if t0 == -math.inf:
            tau0 = -self.tau_inf
        else:
            tau0 = float(tau_sech2(protocol.V, protocol.Omega, t0))
        self.eig = eigen_sync(protocol.beta, gamma)
        self.coeffs = superposition_from_initial(self.eig, state0, tau0)

    def states(self, times):
        """Amplitudes at times (scalar -> shape (4,), array -> (..., 4))."""
        tau = tau_sech2(self.protocol.V, self.protocol.Omega, times)
        return evolve_sync(self.eig, self.coeffs, tau)

    def asymptotes(self):
        """PopulationSnapshots at t = -inf and t = +inf."""
        return tuple(
            populations(evolve_sync(self.eig, self.coeffs, side * self.tau_inf), side * math.inf)
            for side in (-1.0, 1.0)
        )
