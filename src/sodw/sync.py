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

The general solution is a_k(tau) = sum_m s_m vec[m]_k exp(-i lambda_m tau), so
modes() returns the basis B(t)[k, m] = vec[m]_k exp(-i lambda_m tau(t)) with
a(t) = B(t) s, and the limit matrices B(-inf), B(+inf), which are exact
because tau saturates at -/+V/Omega.  The coefficients s_m are fixed by the
state at one reference time (analysis.solve).

Note on the basis: by their (1, x, 1, -x) / (1, y, -1, y) structure the four
vectors are mutually orthogonal for EVERY (beta, gamma), including at the
beta=0 spectral degeneracy lambda_1 = lambda_3 (any two vectors from different
pairs have component products that cancel in the dot product, and within a
pair alpha_plus*alpha_minus = eta_plus*eta_minus = -1).  The superposition
coefficients are nevertheless obtained from the full 4x4 linear system, which
stays correct whether or not that observation is trusted.

When |sin(pi*gamma)| < 1e-9 (core.branch_signs puts gamma on the conserving
branch) the alpha/eta expressions are indeterminate; H_tau then decouples
into the 2x2 blocks (a1,a3) and (a2,a4), and those members take the blocks'
closed-form eigenpairs instead.

Every function works on a stack of members: beta, gamma and the pulse's V
may be arrays, and each result gains their broadcast shape S in front of its
own axes.  A single drive is the S = () case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONDITION_TOL, SyncSech2, branch_signs, coupling_values

__all__ = [
    "EigenSystem",
    "SyncCondition",
    "eigen_sync",
    "tau_sech2",
    "modes",
    "classify_sync_condition",
]


@dataclass(frozen=True)
class EigenSystem:
    """Characteristic values and vectors of the constant tau-frame matrix.

    For members of shape S, lam has shape S + (4,) and vec S + (4, 4): the
    rows vec[..., m, :] satisfy H_tau vec[..., m, :] = lam[..., m] vec[..., m, :]
    with lam[..., 0] = -lam[..., 1] and lam[..., 2] = -lam[..., 3].
    """

    lam: np.ndarray
    vec: np.ndarray


def _csc_roots(base, radical, sin_pg):
    """Both roots (base +/- radical)/sin_pg, avoiding cancellation.

    The two roots multiply to -1 (since radical^2 - base^2 = sin_pg^2), so the
    smaller-magnitude one is recovered from the stably computed larger one.
    """
    nonneg = base >= 0.0
    large = np.where(nonneg, base + radical, base - radical) / sin_pg
    small = -1.0 / large
    return np.where(nonneg, small, large), np.where(nonneg, large, small)


# eigenvectors of the decoupled blocks: (a1,a3) symmetric and antisymmetric,
# then (a2,a4) symmetric and antisymmetric, with eigenvalues beta - c,
# beta + c, -beta - c and -beta + c for c = cos(pi*gamma) = +/-1
_BLOCK_VECTORS = np.array(
    [[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, -1.0]]
) / math.sqrt(2.0)

# third component of each normalized (1, x, s, -s*x) vector, over the slots
_PAIR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def eigen_sync(beta, gamma):
    """Eigen-decomposition of H_tau = hamiltonian_matrix(gamma, 1, beta).

    beta and gamma broadcast to the member shape S.  Returns an EigenSystem
    with normalized vectors; members with |sin(pi*gamma)| < 1e-9 take the
    decoupled 2x2-block eigenpairs.
    """
    beta, gamma = np.broadcast_arrays(np.asarray(beta, dtype=float), coupling_values(gamma))
    # c = cos(pi*gamma) = +/-1 on the degenerate members, 0 elsewhere
    c = branch_signs(gamma)[0]
    degenerate = c != 0.0
    # degenerate members run the closed-form branch at gamma = 1/2, where it
    # is well defined, and take the block eigenpairs below
    g = np.where(degenerate, 0.5, gamma)

    # 1 -/+ cos(pi*gamma) as 2 sin^2 / 2 cos^2 of pi*gamma/2: near an integer
    # gamma the direct difference loses every digit and r1 can round to 0.
    # With d = 1 - |beta| both radicands are sums of non-negative terms,
    # d^2 + 2|beta|(1 -/+ c) for beta >= 0; for beta < 0 the two swap roles.
    half = 0.5 * np.pi * g
    one_minus_c = 2.0 * np.sin(half) ** 2
    one_plus_c = 2.0 * np.cos(half) ** 2
    negative = beta < 0.0
    sign = np.where(negative, -1.0, 1.0)
    first = np.where(negative, one_plus_c, one_minus_c)
    second = np.where(negative, one_minus_c, one_plus_c)
    d = 1.0 - np.abs(beta)
    r1 = np.sqrt(d * d + 2.0 * np.abs(beta) * first)
    r2 = np.sqrt(d * d + 2.0 * np.abs(beta) * second)
    sin_pg = np.sin(np.pi * g)
    alpha_minus, alpha_plus = _csc_roots(sign * (d - first), r1, sin_pg)
    eta_minus, eta_plus = _csc_roots(sign * (second - d), r2, sin_pg)

    lam = np.stack([-r1, r1, -r2, r2], axis=-1)
    slopes = np.stack([alpha_minus, alpha_plus, eta_plus, eta_minus], axis=-1)
    n = 1.0 / np.sqrt(2.0 + 2.0 * slopes * slopes)
    vec = np.stack([n, slopes * n, _PAIR_SIGNS * n, -_PAIR_SIGNS * slopes * n], axis=-1)
    if not degenerate.any():
        return EigenSystem(lam, vec)

    # degenerate members: the blocks' eigenpairs go to the lambda slots
    # -|1 -/+ c*beta|, +|1 -/+ c*beta| so the slot formulas match the
    # closed-form limits.  Slot 0 holds beta - c (the (a1,a3) symmetric
    # vector) when beta <= c and c - beta ((a2,a4) antisymmetric) otherwise,
    # slot 1 the other one; slots 2 and 3 likewise with beta + c and -beta - c.
    low = np.abs(1.0 - c * beta)
    high = np.abs(1.0 + c * beta)
    order = np.concatenate(
        [
            np.where((beta <= c)[..., None], (0, 3), (3, 0)),
            np.where((beta <= -c)[..., None], (1, 2), (2, 1)),
        ],
        axis=-1,
    )
    lam = np.where(degenerate[..., None], np.stack([-low, low, -high, high], axis=-1), lam)
    vec = np.where(degenerate[..., None, None], _BLOCK_VECTORS[order], vec)
    return EigenSystem(lam, vec)


def tau_sech2(V, Omega, t):
    """Rescaled time tau(t) = (V/Omega)*tanh(Omega*t) for the sech^2 pulse."""
    if not np.all(np.asarray(Omega) > 0):
        raise ValueError(f"Omega must be > 0, got {Omega}")
    return (V / Omega) * np.tanh(Omega * np.asarray(t, dtype=float))


def modes(protocol, gamma):
    """(basis, limits) of a SyncSech2 drive, with a(t) = basis(t) @ s.

    basis(t)[..., k, m] = vec[m]_k exp(-i lam_m tau(t)) has shape S + (4, 4)
    for members of shape S (t broadcasts against S; one member: T + (4, 4)).
    limits = basis(-/+inf), shape (2,) + S + (4, 4), so P(-/+inf) = |limits @ s|^2.
    """
    eig = eigen_sync(protocol.beta, gamma)
    vectors = np.swapaxes(eig.vec, -1, -2)

    def basis(t):
        tau = tau_sech2(protocol.V, protocol.Omega, t)
        return vectors * np.exp(-1j * eig.lam * tau[..., None])[..., None, :]

    shape = np.broadcast_shapes(eig.lam.shape[:-1], np.shape(protocol.V), np.shape(protocol.Omega))
    return basis, basis(np.reshape([-math.inf, math.inf], (2,) + (1,) * len(shape)))


@dataclass(frozen=True)
class SyncCondition:
    """Classification of a synchronous drive against the exact return/inversion conditions."""

    kind: str  # "CCPC", "CCPI" or "neither"
    n: int | None
    ratio: float  # 2V/Omega
    beta_residual: float
    grid_residual: float


def classify_sync_condition(beta, V, Omega):
    """Classify (beta, V, Omega).

    CCPC(n): beta = 0 and 2V/Omega = n*pi (n >= 1) -- every population
    returns to its initial value.  CCPI(n): beta = 0 and
    2V/Omega = (n + 1/2)*pi (n >= 0) -- the left/right populations invert.
    Both tested within 1e-9.  Refuses an Omega that is not > 0 and any
    argument that is not finite, as the drive does.
    """
    SyncSech2(beta, V, Omega)
    ratio = 2.0 * V / Omega
    beta_res = abs(float(beta))
    n_c = round(ratio / math.pi)
    res_c = abs(ratio - n_c * math.pi)
    n_i = round(ratio / math.pi - 0.5)
    res_i = abs(ratio - (n_i + 0.5) * math.pi)
    if beta_res <= CONDITION_TOL:
        if n_c >= 1 and res_c <= CONDITION_TOL:
            return SyncCondition("CCPC", n_c, ratio, beta_res, res_c)
        if n_i >= 0 and res_i <= CONDITION_TOL:
            return SyncCondition("CCPI", n_i, ratio, beta_res, res_i)
    return SyncCondition("neither", None, ratio, beta_res, min(res_c, res_i))
