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
and cos(pi*gamma)); every sine and cosine of it is taken of
:func:`coupling_angle`, gamma reduced exactly modulo 4.

Which closed form holds is decided in one place.  :func:`branch_signs` is the
only test of gamma against the two coupling branches (|sin(pi*gamma)| < 1e-9
or |cos(pi*gamma)| < 1e-9), and ``asynchronous.route`` adds the flip-branch
parameter constraint and the refusal text to it; the synchronous eigensystem
has one formula for every gamma.  A drive is a SyncSech2 or an AsyncTanhSech,
the two drives the closed forms solve.  Each names its RATE (Omega, chi),
all that start_time reads to put a state given at -inf at -default_horizon
for the async closed form and the oracle, and its KIND (sync, async), which
picks its engine, so no module tests a drive's class.  Both refuse every
parameter that is not finite, and values(t) gives both drive values at once.
areas(t) gives the pulse areas (phi_u, phi_e), both values integrated from 0
to t, and saturated_area() phi_u(+inf): all that the synchronous engine and
the spin-conserving branch read of a drive.  Each refuses an overflow by name.
The tunnelling pulse area A = 2*phi_u(+inf) decides both drives' return and
inversion by one rule, area_condition: CCPC where |A| = n*pi, CCPI where
|A| = (n + 1/2)*pi, zero and negative A too, and beta = 0 on the sync drive.
stack_drives makes one drive of several of one class, whose fields are stacks.

Everything here is dimensionless and immutable; all functions are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

__all__ = [
    "AreaCondition",
    "SyncSech2",
    "AsyncTanhSech",
    "area_condition",
    "as_state",
    "as_states",
    "branch_signs",
    "coupling_angle",
    "default_horizon",
    "hamiltonian_matrix",
    "imbalance",
    "stack_drives",
    "start_time",
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


def _require_fraction(name, value):
    """value as a float; refused unless finite and below 2**52, where fractions are left."""
    v = float(_require_finite(name, value))
    if not abs(v) < 2.0**52:
        raise ValueError(f"{name} must be below 2**52 in magnitude to classify, got {v!r}")
    return v


@dataclass(frozen=True)
class AreaCondition:
    """The verdict of area_condition: kind CCPC, CCPI or neither (n None), and its residual."""

    kind: str
    n: int | None
    area: float
    residual: float


def area_condition(area, turns, beta=0.0):
    """The CCPC/CCPI rule of both drives, on the tunnelling pulse area A = integral of upsilon dt.

    turns is r = |A|/pi as exactly as the drive gives it.  CCPC(n) holds iff
    pi*|r - n| <= CONDITION_TOL and CCPI(n) iff pi*|r - n - 1/2| <= it, and
    each only where the synchronous Zeeman ratio beta is within it of 0.
    The residual, the nearer of the two distances, is formed from r, so it
    does not cancel at a large n.
    """
    n, m = round(turns), round(turns - 0.5)
    to_c, to_i = math.pi * abs(turns - n), math.pi * abs(turns - m - 0.5)
    kind, n, residual = ("CCPC", n, to_c) if to_c <= to_i else ("CCPI", m, to_i)
    if not (abs(beta) <= CONDITION_TOL and residual <= CONDITION_TOL):
        kind, n = "neither", None
    return AreaCondition(kind, n, area, residual)


def coupling_values(gamma):
    """gamma as a float array; refused unless all finite."""
    return _require_finite("gamma", gamma)


def coupling_angle(gamma):
    """gamma reduced exactly into (-4, 4), bit for bit unchanged where |gamma| < 4.

    H reads gamma only through sin(pi*gamma) and cos(pi*gamma), whose period
    2 divides 4.  np.fmod is exact, whereas np.pi * gamma loses the
    reduction for a large gamma: every float above 2**53 is an even integer,
    yet sin(np.pi * 1e8) is -3.9e-8.  Every trigonometric call on gamma
    reads it reduced here, once it is finite.
    """
    return np.fmod(np.asarray(gamma, dtype=float), 4.0)


def branch_signs(gamma):
    """Coupling signs (conserving, flip) of every gamma: +/-1 on a branch, 0 off it.

    This is the one test of gamma against the branches.  conserving is the
    sign of cos(pi*gamma) where |sin(pi*gamma)| < 1e-9 (the coupling is
    spin-conserving) and flip the sign of sin(pi*gamma) where
    |cos(pi*gamma)| < 1e-9.  A gamma that is not finite lies on neither
    branch.
    """
    g = np.asarray(gamma, dtype=float)
    # a gamma that is not finite is evaluated at 1/4, which is on neither branch
    x = np.pi * coupling_angle(np.where(np.isfinite(g), g, 0.25))
    sin_pg, cos_pg = np.sin(x), np.cos(x)
    conserving = np.where(np.abs(sin_pg) < SIN_BRANCH_TOL, np.copysign(1.0, cos_pg), 0.0)
    flip = np.where(np.abs(cos_pg) < SIN_BRANCH_TOL, np.copysign(1.0, sin_pg), 0.0)
    return conserving, flip


def _log_cosh(x):
    # |x| - ln 2 + log1p(e^{-2|x|}) == ln cosh(x): no overflow in cosh, and
    # exactly the |x| - ln 2 asymptote once |x| > 40, where log1p underflows
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


class _Drive:
    """A drive's checks: its RATE field > 0 and every field finite, a stacked one as an array."""

    def __post_init__(self):
        rate = getattr(self, self.RATE)
        if not np.all(np.asarray(rate) > 0):
            raise ValueError(f"{self.RATE} must be > 0, got {rate}")
        for name, value in vars(self).items():
            stack = _require_finite(name, value)
            if stack.ndim:  # a list then computes as its array does; a scalar stays as given
                object.__setattr__(self, name, stack)


@dataclass(frozen=True)
class SyncSech2(_Drive):
    """Synchronous drive: upsilon(t) = V*sech^2(Omega*t), epsilon(t) = beta*upsilon(t).

    beta, V and Omega may be arrays of one shape: a stack of drives, such as
    the points of a scan.
    """

    beta: float
    V: float
    Omega: float
    AREA_NAME = "V/Omega"  # saturated_area(), phi_u(+inf), as refusals name it
    RATE, KIND = "Omega", "sync"  # the field default_horizon reads, and the engine's key

    # far from the pulse cosh overflows to inf, which gives the limit sech -> 0
    @np.errstate(over="ignore")
    def values(self, t):
        """(upsilon, epsilon) at t; t broadcasts against the fields, which may be stacked."""
        ups = self.V / np.cosh(self.Omega * t) ** 2
        return ups, self.beta * ups

    @np.errstate(over="ignore")
    def saturated_area(self):
        """phi_u(+inf) = V/Omega, refused by name unless every member's is finite."""
        return _require_finite(self.AREA_NAME, self.V / self.Omega)

    @np.errstate(over="ignore")
    def areas(self, t):
        """(phi_u, phi_e) at t: the rescaled time tau = (V/Omega) tanh(Omega t) and beta*tau."""
        tau = self.saturated_area() * np.tanh(self.Omega * np.asarray(t, dtype=float))
        return tau, self.beta * tau


@dataclass(frozen=True)
class AsyncTanhSech(_Drive):
    """Asynchronous drive: upsilon(t) = upsilon*sech(chi*t), epsilon(t) = epsilon*tanh(chi*t).

    epsilon, upsilon and chi may be arrays of one shape: a stack of drives,
    such as the points of a scan.
    """

    epsilon: float
    upsilon: float
    chi: float
    AREA_NAME = "pi*upsilon/(2*chi)"  # saturated_area(), phi_u(+inf), as refusals name it
    RATE, KIND = "chi", "async"  # the field default_horizon reads, and the engine's key

    @np.errstate(over="ignore")
    def values(self, t):
        """(upsilon, epsilon) at t; t broadcasts against the fields, which may be stacked."""
        x = self.chi * t
        return self.upsilon / np.cosh(x), self.epsilon * np.tanh(x)

    @np.errstate(over="ignore")
    def saturated_area(self):
        """phi_u(+inf) = pi*upsilon/(2 chi), refused by name unless every member's is finite."""
        return _require_finite(self.AREA_NAME, 0.5 * math.pi * self.upsilon / self.chi)

    @np.errstate(over="ignore", invalid="ignore")
    def areas(self, t):
        """(phi_u, phi_e) at finite t; phi_e grows without bound and is refused where it overflows.

        phi_u = (2 ups/chi) arctan(tanh(chi t/2)) and phi_e = (eps/chi) ln cosh(chi t).
        """
        x = self.chi * np.asarray(t, dtype=float)
        phi_u = _require_finite("2*upsilon/chi", 2.0 * self.upsilon / self.chi)
        phi_u = phi_u * np.arctan(np.tanh(0.5 * x))
        phi_e = (self.epsilon / self.chi) * _log_cosh(x)
        return phi_u, _require_finite("phi_e = (epsilon/chi)*ln cosh(chi*t)", phi_e)


def default_horizon(protocol):
    """Horizon T = 25/min(rate, 1), beyond which the drive envelope is negligible.

    rate is the drive's RATE field, Omega or chi.  T = -start_time(protocol,
    -inf): a float for one drive, one horizon per member for a stack.
    """
    horizon = -start_time(protocol, -math.inf)
    return float(horizon) if horizon.ndim == 0 else horizon


def start_time(protocol, t0):
    """t0 as a float array, each member given at -inf moved to -default_horizon.

    The one place a state at -inf gets a finite time, for the async closed
    form and the oracle alike.  The horizon is formed for those members
    alone, and refused by name where it overflows.
    """
    t0 = np.asarray(t0, dtype=float)
    if np.isneginf(t0).any():
        rate, t0 = np.broadcast_arrays(getattr(protocol, protocol.RATE), t0)
        past, t0 = np.isneginf(t0), t0.copy()
        with np.errstate(over="ignore"):
            horizon = 25.0 / np.minimum(rate[past], 1.0)
        t0[past] = -_require_finite(f"default horizon 25/min({protocol.RATE}, 1)", horizon)
    return t0


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
    g = coupling_angle(coupling_values(gamma))
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
