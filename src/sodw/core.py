"""Domain types for a spin-orbit-coupled boson in a driven double well.

The system is a four-level time-dependent Schrodinger problem.  States are
vectors of four complex probability amplitudes in the fixed basis order

    (a1, a2, a3, a4)  =  (|0,up>, |0,down>, |up,0>, |down,0>)

i.e. a1/a2 are the right-well spin components and a3/a4 the left-well spin
components.  Throughout the package an amplitude vector is a plain numpy
array of shape (4,) and dtype complex, and populations P_m = |a_m|^2 are
float arrays with the four levels on their last axis; all matrices and
output files use the basis order above.

The amplitudes obey i*da/dt = H(t)*a with the real symmetric matrix H built
by :func:`hamiltonian_matrix` from the instantaneous Zeeman splitting
``epsilon(t)``, the tunneling rate ``upsilon(t)`` and the dimensionless
spin-orbit coupling strength ``gamma`` (which enters only through sin(pi*gamma)
and cos(pi*gamma)).

Which closed form holds is decided in one place.  :func:`branch_signs` is the
only test of gamma against the two coupling branches (|sin(pi*gamma)| < 1e-9
or |cos(pi*gamma)| < 1e-9); the synchronous eigensystem takes its degenerate
members from it, and ``asynchronous.gate`` adds the flip-branch parameter
constraint and the refusal text to it.  A drive is a SyncSech2 or an
AsyncTanhSech, the two drives the closed forms solve; both refuse every
parameter that is not finite, and values(t) gives both drive values at once.
stack_drives makes one drive of several of one class, whose fields are stacks.

Everything here is dimensionless and immutable; all functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

__all__ = [
    "SyncSech2",
    "AsyncTanhSech",
    "as_state",
    "as_states",
    "branch_signs",
    "hamiltonian_matrix",
    "imbalance",
    "stack_drives",
]

#: branch threshold on |sin(pi*gamma)| and |cos(pi*gamma)|, used by branch_signs
SIN_BRANCH_TOL = 1e-9

#: residual within which the CCPC/CCPI classifications of both drives hold
CONDITION_TOL = 1e-9


def _require_finite(name, value):
    """value as a float array; refused unless every member is finite."""
    v = np.asarray(value, dtype=float)
    bad = v[~np.isfinite(v)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    return v


def _require_epoch(name, value):
    """value as a float array; refused unless every member is finite or -inf."""
    v = np.asarray(value, dtype=float)
    bad = v[~(v < np.inf)]
    if bad.size:
        raise ValueError(f"{name} must be finite or -inf, got {float(bad[0])!r}")
    return v


def coupling_values(gamma):
    """gamma as a float array; refused unless all finite."""
    return _require_finite("gamma", gamma)


def branch_signs(gamma):
    """Coupling signs (conserving, flip) of every gamma: +/-1 on a branch, 0 off it.

    This is the one test of gamma against the branches.  conserving is the
    sign of cos(pi*gamma) where |sin(pi*gamma)| < 1e-9 (the coupling is
    spin-conserving; the synchronous eigensystem decouples there) and flip
    the sign of sin(pi*gamma) where |cos(pi*gamma)| < 1e-9.  A gamma that is
    not finite lies on neither branch.
    """
    g = np.asarray(gamma, dtype=float)
    # a gamma that is not finite is evaluated at 1/4, which is on neither branch
    x = np.pi * np.where(np.isfinite(g), g, 0.25)
    sin_pg, cos_pg = np.sin(x), np.cos(x)
    conserving = np.where(np.abs(sin_pg) < SIN_BRANCH_TOL, np.copysign(1.0, cos_pg), 0.0)
    flip = np.where(np.abs(cos_pg) < SIN_BRANCH_TOL, np.copysign(1.0, sin_pg), 0.0)
    return conserving, flip


@dataclass(frozen=True)
class SyncSech2:
    """Synchronous drive: upsilon(t) = V*sech^2(Omega*t), epsilon(t) = beta*upsilon(t).

    beta, V and Omega may be arrays of one shape: a stack of drives, such as
    the points of a scan.
    """

    beta: float
    V: float
    Omega: float

    def __post_init__(self):
        if not np.all(np.asarray(self.Omega) > 0):
            raise ValueError(f"Omega must be > 0, got {self.Omega}")
        for name, value in vars(self).items():
            _require_finite(name, value)

    # far from the pulse cosh overflows to inf, which gives the limit sech -> 0
    @np.errstate(over="ignore")
    def values(self, t):
        """(upsilon, epsilon) at t; t broadcasts against the fields, which may be stacked."""
        ups = self.V / np.cosh(self.Omega * t) ** 2
        return ups, self.beta * ups


@dataclass(frozen=True)
class AsyncTanhSech:
    """Asynchronous drive: upsilon(t) = upsilon*sech(chi*t), epsilon(t) = epsilon*tanh(chi*t).

    epsilon, upsilon and chi may be arrays of one shape: a stack of drives,
    such as the points of a scan.
    """

    epsilon: float
    upsilon: float
    chi: float

    def __post_init__(self):
        if not np.all(np.asarray(self.chi) > 0):
            raise ValueError(f"chi must be > 0, got {self.chi}")
        for name, value in vars(self).items():
            _require_finite(name, value)

    @np.errstate(over="ignore")
    def values(self, t):
        """(upsilon, epsilon) at t; t broadcasts against the fields, which may be stacked."""
        x = self.chi * t
        return self.upsilon / np.cosh(x), self.epsilon * np.tanh(x)


def as_state(amplitudes):
    """Coerce a length-4 sequence to a complex amplitude vector, checking finiteness."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape != (4,):
        raise ValueError(f"amplitude vector must have shape (4,), got {a.shape}")
    return as_states(a)


def as_states(amplitudes):
    """Coerce one amplitude vector or a stack of them, shape S + (4,), checking finiteness."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape[-1:] != (4,):
        raise ValueError(f"amplitude vectors must have 4 levels on the last axis, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"amplitude vector must be finite, got {a!r}")
    return a


def stack_drives(protocols):
    """One drive of the protocols' class whose fields stack theirs, member by member.

    The fields are stacked in dataclass field order, which differs between
    the drive classes, so protocols of mixed classes are refused.
    """
    classes = {type(protocol) for protocol in protocols}
    if len(classes) != 1:
        names = sorted(cls.__name__ for cls in classes)
        raise ValueError(f"protocols must share one drive class, got {names}")
    (cls,) = classes
    return cls(*np.array([astuple(protocol) for protocol in protocols], dtype=float).T)


def hamiltonian_matrix(gamma, upsilon_val, epsilon_val):
    """Coefficient matrix H of i*da/dt = H*a for instantaneous drive values.

    Parameters
    ----------
    gamma : float or array
        Spin-orbit coupling strength.
    upsilon_val, epsilon_val : float or array
        Instantaneous tunneling rate and Zeeman splitting.

    The three arguments broadcast against each other to the members' shape S.

    Returns
    -------
    S + (4, 4) float ndarray, real symmetric (hence Hermitian):
        diag(eps, -eps, eps, -eps) with tunneling couplings
        H13 = H31 = -ups*cos(pi*gamma), H14 = H41 = -ups*sin(pi*gamma),
        H23 = H32 = +ups*sin(pi*gamma), H24 = H42 = -ups*cos(pi*gamma).
    """
    g = coupling_values(gamma)
    ups = _require_finite("upsilon", upsilon_val)
    eps = _require_finite("epsilon", epsilon_val)
    uc = ups * np.cos(np.pi * g)
    us = ups * np.sin(np.pi * g)
    uc, us, eps = np.broadcast_arrays(uc, us, eps)
    zero = np.zeros_like(eps)
    rows = [
        [eps, zero, -uc, -us],
        [zero, -eps, us, -uc],
        [-uc, us, eps, zero],
        [-us, -uc, zero, -eps],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _imbalance_keys(s, q):
    """(s, q) as imbalance indices 1..4, 'L' or 'R'; refused unless both are valid and distinct."""
    ks, kq = (key.upper() if isinstance(key, str) else int(key) for key in (s, q))
    if ks == kq:
        raise ValueError(f"imbalance requires distinct indices, got s={s!r}, q={q!r}")
    for key in (ks, kq):
        if key not in (1, 2, 3, 4, "L", "R"):
            raise ValueError(f"imbalance index must be 1..4, 'L' or 'R', got {key!r}")
    return ks, kq


def _component(p, key):
    if key == "L":
        return p[..., 2] + p[..., 3]
    if key == "R":
        return p[..., 0] + p[..., 1]
    return p[..., key - 1]


def imbalance(p, s, q):
    """Population imbalance Z_sq = P_s - P_q; s and q in {1,2,3,4,'L','R'}, s != q.

    p holds the four populations P_m = |a_m|^2 on its last axis; the result
    drops that axis.
    """
    ks, kq = _imbalance_keys(s, q)
    p = np.asarray(p, dtype=float)
    return _component(p, ks) - _component(p, kq)
