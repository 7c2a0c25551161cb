"""Domain types for a spin-orbit-coupled boson in a driven double well.

The system is a four-level time-dependent Schrodinger problem.  States are
vectors of four complex probability amplitudes in the fixed basis order

    (a1, a2, a3, a4)  =  (|0,up>, |0,down>, |up,0>, |down,0>)

i.e. a1/a2 are the right-well spin components and a3/a4 the left-well spin
components.  Throughout the package an amplitude vector is a plain numpy
array of shape (4,) and dtype complex; all matrices and output files use the
basis order above.

The amplitudes obey i*da/dt = H(t)*a with the real symmetric matrix H built
by :func:`hamiltonian_matrix` from the instantaneous Zeeman splitting
``epsilon(t)``, the tunneling rate ``upsilon(t)`` and the dimensionless
spin-orbit coupling strength ``gamma`` (which enters only through sin(pi*gamma)
and cos(pi*gamma)).

Everything here is dimensionless and immutable; all functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SOCoupling",
    "as_coupling",
    "SyncSech2",
    "AsyncTanhSech",
    "CustomDrive",
    "PopulationSnapshot",
    "as_state",
    "norm2",
    "is_normalized",
    "hamiltonian_matrix",
    "populations",
    "imbalance",
]

#: tolerance below which a state counts as normalized
NORMALIZED_TOL = 1e-9

#: branch threshold for singular-limit tests on sin(pi*gamma)
SIN_BRANCH_TOL = 1e-9


@dataclass(frozen=True)
class SOCoupling:
    """Effective spin-orbit coupling strength gamma.

    sin(pi*gamma) and cos(pi*gamma) are precomputed once so that every module
    branches on the same evaluation point.
    """

    gamma: float
    sin_pg: float = field(init=False)
    cos_pg: float = field(init=False)

    def __post_init__(self):
        g = float(self.gamma)
        if not math.isfinite(g):
            raise ValueError(f"gamma must be finite, got {g!r}")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "sin_pg", math.sin(math.pi * g))
        object.__setattr__(self, "cos_pg", math.cos(math.pi * g))


def as_coupling(gamma):
    """Coerce a float (or SOCoupling) to an SOCoupling."""
    if isinstance(gamma, SOCoupling):
        return gamma
    return SOCoupling(float(gamma))


@dataclass(frozen=True)
class SyncSech2:
    """Synchronous drive: upsilon(t) = V*sech^2(Omega*t), epsilon(t) = beta*upsilon(t)."""

    beta: float
    V: float
    Omega: float

    def __post_init__(self):
        if not (self.Omega > 0):
            raise ValueError(f"Omega must be > 0, got {self.Omega}")

    @staticmethod
    def drive_values(beta, V, Omega, t):
        """(upsilon, epsilon) at t; the parameters may be stacked arrays broadcasting with t."""
        ups = V / np.cosh(Omega * t) ** 2
        return ups, beta * ups

    def upsilon(self, t):
        return self.drive_values(self.beta, self.V, self.Omega, np.asarray(t, dtype=float))[0]

    def epsilon(self, t):
        return self.drive_values(self.beta, self.V, self.Omega, np.asarray(t, dtype=float))[1]


@dataclass(frozen=True)
class AsyncTanhSech:
    """Asynchronous drive: upsilon(t) = upsilon*sech(chi*t), epsilon(t) = epsilon*tanh(chi*t)."""

    epsilon_amp: float
    upsilon_amp: float
    chi: float

    def __post_init__(self):
        if not (self.chi > 0):
            raise ValueError(f"chi must be > 0, got {self.chi}")

    @staticmethod
    def drive_values(epsilon_amp, upsilon_amp, chi, t):
        """(upsilon, epsilon) at t; the parameters may be stacked arrays broadcasting with t."""
        x = chi * t
        return upsilon_amp / np.cosh(x), epsilon_amp * np.tanh(x)

    def upsilon(self, t):
        args = (self.epsilon_amp, self.upsilon_amp, self.chi, np.asarray(t, dtype=float))
        return self.drive_values(*args)[0]

    def epsilon(self, t):
        args = (self.epsilon_amp, self.upsilon_amp, self.chi, np.asarray(t, dtype=float))
        return self.drive_values(*args)[1]


@dataclass(frozen=True)
class CustomDrive:
    """Arbitrary drive given by two callables upsilon(t), epsilon(t); oracle only."""

    upsilon_fn: object
    epsilon_fn: object

    def upsilon(self, t):
        return self.upsilon_fn(t)

    def epsilon(self, t):
        return self.epsilon_fn(t)


@dataclass(frozen=True)
class PopulationSnapshot:
    """Occupation probabilities P_m = |a_m|^2 at one instant.

    PL = P3 + P4 (left well), PR = P1 + P2 (right well) and norm2 is the sum
    of all four, so sum(P) == norm2 holds exactly by construction.
    """

    t: float
    P1: float
    P2: float
    P3: float
    P4: float

    @property
    def PL(self):
        return self.P3 + self.P4

    @property
    def PR(self):
        return self.P1 + self.P2

    @property
    def norm2(self):
        return self.P1 + self.P2 + self.P3 + self.P4

    @property
    def pvec(self):
        return np.array([self.P1, self.P2, self.P3, self.P4])


def as_state(amplitudes):
    """Coerce a length-4 sequence to a complex amplitude vector, checking finiteness."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape != (4,):
        raise ValueError(f"amplitude vector must have shape (4,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"amplitude vector must be finite, got {a!r}")
    return a


def norm2(state):
    """Squared norm |a1|^2 + |a2|^2 + |a3|^2 + |a4|^2."""
    a = np.asarray(state)
    return float(np.sum(np.abs(a) ** 2))


def is_normalized(state, tol=NORMALIZED_TOL):
    return abs(norm2(state) - 1.0) < tol


def hamiltonian_matrix(gamma, upsilon_val, epsilon_val):
    """Coefficient matrix H of i*da/dt = H*a for instantaneous drive values.

    Parameters
    ----------
    gamma : SOCoupling or float
        Spin-orbit coupling strength.
    upsilon_val, epsilon_val : float
        Instantaneous tunneling rate and Zeeman splitting.

    Returns
    -------
    (4, 4) float ndarray, real symmetric (hence Hermitian):
        diag(eps, -eps, eps, -eps) with tunneling couplings
        H13 = H31 = -ups*cos(pi*gamma), H14 = H41 = -ups*sin(pi*gamma),
        H23 = H32 = +ups*sin(pi*gamma), H24 = H42 = -ups*cos(pi*gamma).
    """
    g = as_coupling(gamma)
    ups = float(upsilon_val)
    eps = float(epsilon_val)
    if not (math.isfinite(ups) and math.isfinite(eps)):
        raise ValueError(
            f"drive values must be finite, got upsilon={upsilon_val!r}, epsilon={epsilon_val!r}"
        )
    uc = ups * g.cos_pg
    us = ups * g.sin_pg
    return np.array(
        [
            [eps, 0.0, -uc, -us],
            [0.0, -eps, us, -uc],
            [-uc, us, eps, 0.0],
            [-us, -uc, 0.0, -eps],
        ]
    )


def populations(state, t=0.0):
    """PopulationSnapshot of a state at time t."""
    a = np.asarray(state, dtype=complex)
    p = np.abs(a) ** 2
    return PopulationSnapshot(float(t), float(p[0]), float(p[1]), float(p[2]), float(p[3]))


_WELL_KEYS = {"L", "R"}


def _component(snap, key):
    if isinstance(key, str):
        k = key.upper()
        if k == "L":
            return snap.PL
        if k == "R":
            return snap.PR
        raise ValueError(f"imbalance index must be 1..4, 'L' or 'R', got {key!r}")
    k = int(key)
    if k not in (1, 2, 3, 4):
        raise ValueError(f"imbalance index must be 1..4, 'L' or 'R', got {key!r}")
    return getattr(snap, f"P{k}")


def imbalance(snap, s, q):
    """Population imbalance Z_sq = P_s - P_q; s and q in {1,2,3,4,'L','R'}, s != q."""
    ks = s.upper() if isinstance(s, str) else int(s)
    kq = q.upper() if isinstance(q, str) else int(q)
    if ks == kq:
        raise ValueError(f"imbalance requires distinct indices, got s={s!r}, q={q!r}")
    return _component(snap, ks) - _component(snap, kq)
