"""Exact solution engine for the synchronous drive epsilon(t) = beta*upsilon(t).

H(t) = upsilon(t) T + epsilon(t) Z commutes with itself at all times on this
drive, H(t) = upsilon(t) H_tau, and on the asynchronous drive's
spin-conserving branch, where sin(pi*gamma) = 0 gives [T, Z] = 0.  Both then
take one closed form, a(t) = V exp(-i (Lambda_u phi_u(t) + Lambda_e phi_e(t)))
V^T a(0), over orthonormal eigenvectors V and the pulse areas phi_u, phi_e
of the drive's areas(t); _commuting_modes builds it for modes() here and
for asynchronous.modes().  On this drive phi_u = tau(t) =
(V/Omega)*tanh(Omega*t) gives a constant-coefficient problem,

    i da/dtau = H_tau a,      H_tau = hamiltonian_matrix(gamma, 1, beta),

so Lambda_u holds its characteristic values, in opposite-sign pairs

    lambda_{1,2} = -/+ sqrt(1 + beta^2 - 2*beta*cos(pi*gamma)),
    lambda_{3,4} = -/+ sqrt(1 + beta^2 + 2*beta*cos(pi*gamma)),

with eigenvectors proportional to (1, alpha, 1, -alpha) for the first pair and
(1, eta, -1, eta) for the second, where

    alpha = (cos(pi*gamma) - beta + lambda) / sin(pi*gamma),
    eta   = (cos(pi*gamma) + beta - lambda) / sin(pi*gamma).

modes() returns the basis B(t)[k, m] = vec[m]_k exp(-i lambda_m tau(t)), with
a(t) = B(t) s and s fixed at one reference time (analysis.solve), and the
exact limits B(-/+inf) at tau = -/+V/Omega.  An eigenvalue or a phase
lambda*V/Omega that overflows is refused by name.

The four vectors are orthogonal for EVERY (beta, gamma), the beta=0
degeneracy lambda_1 = lambda_3 included: within a pair alpha_plus*alpha_minus
= eta_plus*eta_minus = -1, which _csc_roots imposes by construction.  So
B(t)^-1 = diag(exp(i lambda tau(t))) vec, with no linear system to solve; a
seeded property test (tests/test_sync.py) holds it within 1e-14 of the
inverse over thousands of members near beta = +/-1 and integer gamma.

When |sin(pi*gamma)| < 1e-9 (core.branch_signs puts gamma on the conserving
branch) alpha and eta are indeterminate; H_tau decouples into the blocks
(a1,a3) and (a2,a4), whose eigenvectors, _BLOCK_VECTORS, those members take.

Every function works on a stack of members: beta, gamma and the pulse's V
may be arrays, and each result gains their broadcast shape S in front of its
own axes.  A single drive is the S = () case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONDITION_TOL, SyncSech2, _require_finite, _require_fraction, branch_signs
from .core import coupling_angle, coupling_values

__all__ = [
    "EigenSystem",
    "SyncCondition",
    "eigen_sync",
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
    # the terms in gamma alone keep gamma's own shape; beta broadcasts them to S
    beta = np.asarray(beta, dtype=float)
    gamma = coupling_angle(coupling_values(gamma))
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
    with np.errstate(over="ignore"):
        r1 = np.sqrt(d * d + 2.0 * np.abs(beta) * first)
        r2 = np.sqrt(d * d + 2.0 * np.abs(beta) * second)
    for r in (r1, r2):
        _require_finite("eigenvalue sqrt((1 - |beta|)^2 + 2|beta|(1 -/+ cos(pi*gamma)))", r)
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


def _commuting_modes(vectors, drive, lam_u, lam_e=None):
    """(basis, inverse, limits) of a drive whose H(t) commutes with itself at all times.

    The rows of vectors are real orthonormal eigenvectors, lam_u (and lam_e)
    their eigenvalues, with slots 1 and 3 the negated slots 0 and 2.
    """
    columns = np.swapaxes(vectors, -1, -2)
    lam_u = lam_u[..., ::2, None]
    lam_e = None if lam_e is None else lam_e[..., ::2, None]

    def pairs(theta):
        # exp(-i theta) of slots 0 and 2, then of slots 1 and 3 as their conjugates
        pair = np.exp(-1j * theta)
        return np.concatenate([pair, np.conj(pair)], axis=-1).reshape(pair.shape[:-2] + (4,))

    def basis(t):
        phi_u, phi_e = drive.areas(t)
        theta = lam_u * phi_u[..., None, None]
        if lam_e is not None:
            theta = theta + lam_e * phi_e[..., None, None]
        return columns * pairs(theta)[..., None, :]

    def inverse(t):
        return np.conj(np.swapaxes(basis(t), -1, -2))

    # the largest phase of every mode, at phi_u(-inf) = -phi_u(+inf); +inf conjugates it
    with np.errstate(over="ignore"):
        theta = lam_u * -drive.saturated_area()[..., None, None]
    past = pairs(_require_finite("mode phase lambda*phi_u(+inf)", theta))
    return basis, inverse, columns * np.stack([past, np.conj(past)])[..., None, :]


def modes(protocol, gamma):
    """(basis, inverse, limits) of a SyncSech2 drive, with a(t) = basis(t) @ s.

    basis(t)[..., k, m] = vec[m]_k exp(-i lam_m tau(t)) has shape S + (4, 4)
    for members of shape S (t broadcasts against S; one member: T + (4, 4)).
    inverse(t) is its conjugate transpose; both take t = -inf, as tau saturates.
    limits = basis(-/+inf), shape (2,) + S + (4, 4), so P(-/+inf) = |limits @ s|^2.
    """
    eig = eigen_sync(protocol.beta, gamma)
    return _commuting_modes(eig.vec, protocol, eig.lam)


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
    argument that is not finite, as the drive does, and a ratio 2V/Omega
    that overflows or reaches 2**52, where no fractional digits are left.
    """
    SyncSech2(beta, V, Omega)
    ratio = _require_fraction("2V/Omega", 2.0 * float(V) / float(Omega))
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
