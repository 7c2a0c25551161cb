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

modes() acts on states and never forms the matrix exponential, nor any
complex matrix per member or per sample (the eigenvector method; Moler & Van
Loan, SIAM Rev. 45, 3 (2003)).  The state of the four mode constants c at t
is a(t) = V (exp(-i lambda tau(t)) * c), and the constants of a state a0
given at t0 are c = exp(i lambda tau(t0)) * (V^T a0), exact with no linear
system to solve as V is orthonormal.  Only slots 0 and 2 are exponentiated;
slots 1 and 3 are their conjugates.  Each member's sums run elementwise in a
fixed order, so a stack computes every member bit for bit as it would alone.
The limit states are those at tau = -/+V/Omega.  A phase lambda*V/Omega that
overflows is refused by name.  A seeded property test (tests/test_sync.py)
holds the constants of the state evolved from each unit constant within
1e-14 of it over thousands of members near beta = +/-1 and integer gamma.

Every function works on a stack of members: beta, gamma and the pulse's V
may be arrays, and each result gains their broadcast shape S in front of its
own axes.  A single drive is the S = () case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SyncSech2, _require_finite, _require_fraction, area_condition
from .core import coupling_angle, coupling_values

__all__ = [
    "EigenSystem",
    "eigen_sync",
    "route",
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


def _project(terms, members, a):
    """V^T a, slot first: the weight of every eigenvector in the states a.

    terms[m] lists the components k of eigenvector m with their entries
    V[m, k] over the members, each member's sum in a fixed order.
    """
    a = np.asarray(a, dtype=complex)
    weights = np.zeros((4,) + np.broadcast_shapes(a.shape[:-1], members), dtype=complex)
    for m, entries in enumerate(terms):
        for k, entry in entries:
            weights[m] += entry * a[..., k]
    return weights


def _superpose(terms, members, pair, c):
    """The states sum_m V[m] e_m c_m, e = (p0, conj p0, p2, conj p2) from pair = (p0, p2).

    terms[m] lists the components k of eigenvector m with their entries
    V[m, k] over the members.  Each member's sum runs over the slots in a
    fixed order, one component at a time, and the amplitudes come back on
    the last axis.
    """
    c = np.asarray(c, dtype=complex)
    out = np.zeros((4,) + np.broadcast_shapes(np.shape(pair[0]), c.shape[:-1], members), complex)
    for m, entries in enumerate(terms):
        phase = pair[m // 2]
        # c[..., m] keeps one member a 0-d array, never a numpy complex scalar,
        # whose product with another scalar rounds apart from an array's
        weight = (np.conj(phase) if m % 2 else phase) * c[..., m]
        for k, entry in entries:
            out[k] += entry * weight
    return np.moveaxis(out, 0, -1)


def _commuting_modes(vectors, drive, lam_u, lam_e=None):
    """(evolve, constants, limits) of a drive whose H(t) commutes with itself at all times.

    The rows of vectors are real orthonormal eigenvectors, lam_u (and lam_e)
    their eigenvalues, with slots 1 and 3 the negated slots 0 and 2.  The
    work runs slot first: each entry V[m, k] is one contiguous array over the
    members, an entry that is zero on every member takes no part, and each
    slot and amplitude is one contiguous array over the members and samples.
    """
    members = np.shape(vectors)[:-2]
    rows = np.ascontiguousarray(np.moveaxis(vectors, (-2, -1), (0, 1)))
    nonzero = np.any(rows, axis=tuple(range(2, rows.ndim)))
    terms = [[(k, rows[m, k]) for k in range(4) if nonzero[m, k]] for m in range(4)]
    lam_u = np.moveaxis(lam_u, -1, 0)[::2]
    lam_e = None if lam_e is None else np.moveaxis(lam_e, -1, 0)[::2]

    def phases(t):
        # exp(-i theta(t)) of slots 0 and 2; slots 1 and 3 are their conjugates
        phi_u, phi_e = drive.areas(t)
        theta = [lam_u[j] * phi_u for j in (0, 1)]
        if lam_e is not None:
            theta = [theta[j] + lam_e[j] * phi_e for j in (0, 1)]
        return [np.exp(-1j * x) for x in theta]

    def evolve(t, c):
        return _superpose(terms, members, phases(t), c)

    def constants(t0, a0):
        # exp(+i theta(t0)) of every slot times the weight of its eigenvector in a0
        p0, p2 = phases(t0)
        weights = _project(terms, members, a0)
        c = np.empty((4,) + np.broadcast_shapes(np.shape(p0), weights.shape[1:]), dtype=complex)
        for m, back in enumerate((np.conj(p0), p0, np.conj(p2), p2)):
            c[m] = back * weights[m, ...]
        return np.moveaxis(c, 0, -1)

    # the largest phase of every mode, at phi_u(-inf) = -phi_u(+inf); +inf conjugates it
    area = drive.saturated_area()
    with np.errstate(over="ignore"):
        theta = [lam_u[j] * -area for j in (0, 1)]
    past = [np.exp(-1j * _require_finite(f"mode phase lambda*{drive.AREA_NAME}", x)) for x in theta]
    ends = [np.stack([p, np.conj(p)]) for p in past]

    def limits(c):
        # both limits at once: -inf and +inf on a leading axis, past every member axis of c
        lead = (2,) + (1,) * (np.ndim(c) - ends[0].ndim)
        pair = [end.reshape(lead + end.shape[1:]) for end in ends]
        return _superpose(terms, members, pair, c)

    return evolve, constants, limits


def route(protocol, gamma):
    """(codes, None) of a SyncSech2 drive: code 1 for every member of gamma and the fields."""
    shape = np.broadcast_shapes(np.shape(gamma), *map(np.shape, vars(protocol).values()))
    return np.ones(shape), None


def modes(protocol, gamma, codes):
    """(evolve, constants, limits) of a SyncSech2 drive: its closed form, acting on states.

    codes, route()'s, are all ones, as one formula holds for every (beta, gamma).
    With vec the rows of eigen_sync, the state of the constants c at t is
    evolve(t, c) = sum_m vec[m] exp(-i lam_m tau(t)) c_m, and the constants of
    a state a0 given at t0 are constants(t0, a0) = exp(i lam tau(t0)) (vec a0),
    exact as the rows are orthonormal.  For members of shape S, t broadcasts
    against S and c, a0 have shape S + (4,) (one member: T + (4,)); both take
    t = -inf, as tau saturates.  limits(c) holds the states at -/+inf, shape
    (2,) + S + (4,), at tau = -/+V/Omega.
    """
    eig = eigen_sync(protocol.beta, gamma)
    return _commuting_modes(eig.vec, protocol, eig.lam)


def classify_sync_condition(beta, V, Omega):
    """(beta, V, Omega) under core.area_condition, with the pulse area A = 2V/Omega.

    CCPC(n): beta = 0 and |A| = n*pi, every population returns.  CCPI(n):
    beta = 0 and |A| = (n + 1/2)*pi, the two wells trade populations.
    Refuses what the drive refuses, and a 2V/Omega that overflows or
    reaches 2**52.
    """
    SyncSech2(beta, V, Omega)
    area = _require_fraction("2V/Omega", 2.0 * float(V) / float(Omega))
    return area_condition(area, abs(area) / math.pi, float(beta))
