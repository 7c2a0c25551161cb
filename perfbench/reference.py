"""Reference answers built from the equations of motion, independent of sodw.

The four amplitudes (a1, a2, a3, a4) = (right up, right down, left up, left
down) obey i da/dt = H(t) a with

    H(t) = eps(t) * diag(1, -1, 1, -1) + ups(t) * C(gamma),

where C is the unit tunneling matrix below.  Nothing here imports sodw: each
reference follows from H directly.

* Synchronous drive (eps = beta*ups, ups = V sech^2(Omega t)): H(t) is
  ups(t) times a constant matrix M, so the propagator from t0 to +inf is the
  matrix exponential exp(-i M * int ups dt).
* Spin-conserving branch (cos(pi gamma) = +-1): the pairs (a1, a3) and
  (a2, a4) each see eps times the identity plus -c*ups times sigma_x; the two
  terms commute, so populations follow a sigma_x rotation by int ups dt.
* Anything else: a re-integration of the same equations at tighter
  tolerances than sodw's oracle uses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

ZEEMAN = np.array([1.0, -1.0, 1.0, -1.0])

#: tolerances of the re-integration; sodw's oracle defaults to 1e-10 / 1e-12
REINTEGRATE_RTOL = 1e-12
REINTEGRATE_ATOL = 1e-14


def tunneling(gamma):
    """Unit tunneling matrix C(gamma): right and left wells coupled by a spin rotation."""
    c, s = math.cos(math.pi * gamma), math.sin(math.pi * gamma)
    return np.array(
        [
            [0.0, 0.0, -c, -s],
            [0.0, 0.0, s, -c],
            [-c, s, 0.0, 0.0],
            [-s, -c, 0.0, 0.0],
        ]
    )


def imbalances(state, observables):
    """Z_sq = P_s - P_q for (s, q) pairs with s, q in 1..4 or 'L'/'R'."""
    p = np.abs(np.asarray(state)) ** 2
    level = {1: p[0], 2: p[1], 3: p[2], 4: p[3], "L": p[2] + p[3], "R": p[0] + p[1]}
    return tuple(level[s] - level[q] for s, q in observables)


def sync_final(beta, gamma, V, Omega, state0, t0):
    """State at t = +inf under the sech^2 pulse, started from state0 at t0 (may be -inf)."""
    m = tunneling(gamma) + beta * np.diag(ZEEMAN)
    lower = -1.0 if t0 == -math.inf else math.tanh(Omega * t0)
    area = (V / Omega) * (1.0 - lower)
    return expm(-1j * area * m) @ np.asarray(state0, dtype=complex)


def conserving_final(gamma, upsilon, chi, state0, t0):
    """State at t = +inf on the spin-conserving branch, up to a phase per pair.

    int_{t0}^{inf} ups sech(chi t) dt = (ups/chi) (pi/2 - gd(chi t0)) with the
    Gudermannian gd(x) = 2 arctan(tanh(x/2)).  Each pair rotates as
    exp(i c theta sigma_x); the eps(t) phase is common to a pair and drops
    out of every population.
    """
    c = round(math.cos(math.pi * gamma))
    if abs(c) != 1 or abs(math.cos(math.pi * gamma) - c) > 1e-9:
        raise ValueError(f"gamma={gamma} is not on the spin-conserving branch")
    lower = -0.5 * math.pi if t0 == -math.inf else 2.0 * math.atan(math.tanh(0.5 * chi * t0))
    theta = (upsilon / chi) * (0.5 * math.pi - lower)
    co, si = math.cos(theta), 1j * c * math.sin(theta)
    a = np.asarray(state0, dtype=complex)
    return np.array(
        [co * a[0] + si * a[2], co * a[1] + si * a[3], si * a[0] + co * a[2], si * a[1] + co * a[3]]
    )


def async_reintegrate(gamma, epsilon, upsilon, chi, state0, t0, t1):
    """State at t1 for the tanh/sech drive, integrated from state0 at finite t0."""
    coupling = tunneling(gamma)

    def rhs(t, a):
        x = chi * t
        eps, ups = epsilon * math.tanh(x), upsilon / math.cosh(x)
        return -1j * (eps * ZEEMAN * a + ups * (coupling @ a))

    sol = solve_ivp(
        rhs,
        (t0, t1),
        np.asarray(state0, dtype=complex),
        method="DOP853",
        rtol=REINTEGRATE_RTOL,
        atol=REINTEGRATE_ATOL,
    )
    if not sol.success:
        raise RuntimeError(f"re-integration failed: {sol.message}")
    return sol.y[:, -1]
