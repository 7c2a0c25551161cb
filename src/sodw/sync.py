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

so Lambda_u holds its characteristic values.  With c, s = cos, sin(pi*gamma),
H_tau leaves two planes invariant and acts on each as a symmetric 2x2 block
[[p, q], [q, -p]]:

    on (1, 0, 1, 0)/sqrt2, (0, 1, 0, -1)/sqrt2:   p = beta - c,  q = s,
    on (1, 0, -1, 0)/sqrt2, (0, 1, 0, 1)/sqrt2:   p = beta + c,  q = -s.

Each block has the eigenvalues -/+ r, r = hypot(p, q), and is diagonalised
by one plane rotation (Golub & Van Loan, Matrix Computations, 8.5): the +r
vector is (cos h, sin h) with the half angle h = atan2(q, p)/2, the -r vector
that one turned by pi/2, signed so its first component is >= 0.  So

    lambda_{1,2} = -/+ sqrt(1 + beta^2 - 2*beta*cos(pi*gamma)),
    lambda_{3,4} = -/+ sqrt(1 + beta^2 + 2*beta*cos(pi*gamma)),

with eigenvectors of the layout (1, x, 1, -x) for the first pair and
(1, x, -1, x) for the second.  One formula holds for every (beta, gamma): at
sin(pi*gamma) = 0 the rotation is by 0 or pi/2, hypot cannot overflow on
finite input, and the vectors are orthonormal to round-off, the beta = 0
degeneracy lambda_1 = lambda_3 included.

modes() returns the basis B(t)[k, m] = vec[m]_k exp(-i lambda_m tau(t)), with
a(t) = B(t) s and s fixed at one reference time (analysis.solve), and the
exact limits B(-/+inf) at tau = -/+V/Omega.  A phase lambda*V/Omega that
overflows is refused by name.  As the vectors are orthonormal,
B(t)^-1 = diag(exp(i lambda tau(t))) vec, with no linear system to solve; a
seeded property test (tests/test_sync.py) holds it within 1e-14 of the
inverse over thousands of members near beta = +/-1 and integer gamma.

Every function works on a stack of members: beta, gamma and the pulse's V
may be arrays, and each result gains their broadcast shape S in front of its
own axes.  A single drive is the S = () case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONDITION_TOL, SyncSech2, _require_finite, _require_fraction
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
    with lam[..., 0] = -lam[..., 1] and lam[..., 2] = -lam[..., 3].  Each row
    is normalized and has its first component >= 0.
    """

    lam: np.ndarray
    vec: np.ndarray


# third component of each normalized (1, x, s, -s*x) vector, over the slots
_PAIR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def eigen_sync(beta, gamma):
    """Eigen-decomposition of H_tau = hamiltonian_matrix(gamma, 1, beta).

    beta and gamma broadcast to the member shape S.  Returns an EigenSystem
    with normalized vectors, one formula for every member.
    """
    beta = np.asarray(beta, dtype=float)
    # c and s as hamiltonian_matrix forms them, so the vectors are those of its H
    x = np.pi * coupling_angle(coupling_values(gamma))
    c, s = np.cos(x), np.sin(x)
    # [[p, q], [q, -p]] on each invariant plane, the last axis
    p = np.stack([beta - c, beta + c], axis=-1)
    q = np.stack([s, -s], axis=-1)
    r = np.hypot(p, q)
    half = 0.5 * np.arctan2(q, p)
    # scaled by 1/sqrt2, the norm of the plane's basis vectors in the layout below
    cos_h, sin_h = math.sqrt(0.5) * np.cos(half), math.sqrt(0.5) * np.sin(half)
    # per plane the -r vector, (cos h, sin h) turned by pi/2 with first component >= 0, then +r
    shape = r.shape[:-1] + (4,)
    lam = np.stack([-r, r], axis=-1).reshape(shape)
    first = np.stack([np.abs(sin_h), cos_h], axis=-1).reshape(shape)
    second = np.stack([-np.copysign(cos_h, sin_h), sin_h], axis=-1).reshape(shape)
    vec = np.stack([first, second, _PAIR_SIGNS * first, -_PAIR_SIGNS * second], axis=-1)
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
