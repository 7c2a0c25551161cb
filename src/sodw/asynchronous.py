"""Exact solution engines for the asynchronous drive.

Here epsilon(t) = eps*tanh(chi*t) and upsilon(t) = ups*sech(chi*t) are
modulated independently, and exact solutions exist on two coupling branches:

Spin-conserving branch, cos(pi*gamma) = +/-1.  The equations decouple into
the pairs (a1, a3) and (a2, a4), solved by phase superpositions

    a1(t) = A+ e^{ i(phi_u - phi_e)} + A- e^{-i(phi_u + phi_e)},
    a3(t) = A+ e^{ i(phi_u - phi_e)} - A- e^{-i(phi_u + phi_e)},

(and the analogous B-pair forms with phi_e's sign flipped) where phi_u, phi_e
are the antiderivatives of upsilon(t), epsilon(t) vanishing at t=0.  The
normative asymptotic-imbalance form used throughout is

    Z31(t) = -4 Re(A+ conj(A-) e^{2i phi_u(t)}),

which is constant at t -> +/-inf because phi_u saturates at +/-pi*ups/(2 chi);
population conservation (CCPC) holds iff sin(pi ups/chi) = 0 and inversion
(CCPI) iff cos(pi ups/chi) = 0.  The odd-integer branch cos(pi*gamma) = -1 is
handled by an explicit sign flip of the effective coupling (equivalent to
relabeling the +/- constants).

Spin-flipping branch, sin(pi*gamma) = +/-1.  The pairs are (a1, a4) and
(a2, a3); closed forms exist when the parameters satisfy the constraint

    chi^2/4 + epsilon^2 - upsilon^2 = 0,

and read (C pair; the D pair is analogous)

    a4(t) = sqrt(sech(chi t)) [C+ e^{(i eps + chi/2) t} + C- e^{-(i eps + chi/2) t}],
    a1(t) = ((eps - i chi/2)/ups) sqrt(sech(chi t))
            [C+ e^{-chi t/2} e^{i eps t} - C- e^{chi t/2} e^{-i eps t}].

Every sqrt(sech(chi t))*e^{+/-chi t/2} product is computed through the
analytically reduced grouping sqrt(2)*e^{(s*x-|x|)/2}/sqrt(1+e^{-2|x|})
(s = +/-1, x = chi t), whose exponent is never positive, so nothing overflows
at any |t|; in particular the a2 form, whose textbook prefactor contains
1/sqrt(sech), is evaluated only in this reduced bounded form.  Populations
always cross over antisymmetrically on this branch:
P1(-inf) = P4(+inf) = 2|C+|^2 and P4(-inf) = P1(+inf) = 2|C-|^2.

gate() is the one branch gate of this drive.  A gamma counts as on a branch
when the coupling component that branch's closed form drops is below 1e-9:
|sin(pi*gamma)| on the conserving branch, |cos(pi*gamma)| on the flip branch
(core.branch_signs, the only test of gamma).  gate() adds the flip-branch
constraint and returns the one refusal text for a drive that neither branch
covers; AsyncSolution, the engine selection and the CLI all read it.

Constants are always anchored at a finite reference time t_ref; the phase
phi_e diverges at large |t| but only as a common phase, so populations and
imbalances never depend on it.

Every function works on a stack of members: the drive amplitudes, chi, the
pair amplitudes, t_ref and the coupling sign may be arrays that broadcast
against each other (and against t), such as the points of a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AsyncTanhSech, as_state, asymptote_snapshots, branch_signs, coupling_values

__all__ = [
    "PhasePair",
    "AsyncBranchConstants",
    "AsyncConservingCondition",
    "AsyncSolution",
    "phase_integrals",
    "gate",
    "conserving_constants",
    "evolve_async_conserving",
    "conserving_asymptotic_imbalance",
    "classify_async_conserving",
    "check_flip_constraint",
    "flip_constants",
    "evolve_async_flip",
]

#: gating tolerance on the flip-branch parameter constraint chi^2/4 + eps^2 - ups^2
FLIP_CONSTRAINT_TOL = 1e-9

_CONSERVING_PAIRS = {"A": (0, 2), "B": (1, 3)}
_FLIP_PAIRS = {"C": (0, 3), "D": (1, 2)}


@dataclass(frozen=True)
class PhasePair:
    """Antiderivatives (vanishing at t=0) of the two drive components.

    phi_u(t) = (2 ups/chi) arctan(tanh(chi t/2)), odd, saturating at
    +/- pi*ups/(2 chi); phi_e(t) = (eps/chi) ln cosh(chi t), even, >= 0.
    """

    phi_u: object
    phi_e: object


def _log_cosh(x):
    # |x| - ln 2 + log1p(e^{-2|x|}) == ln cosh(x); stable for all x, no
    # overflow in cosh, and identical to the |x| - ln 2 asymptote once
    # |x| > 40 where the log1p term underflows.
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


def phase_integrals(epsilon, upsilon, chi, t):
    """PhasePair at time t; the arguments broadcast against each other."""
    if not np.all(np.asarray(chi) > 0):
        raise ValueError(f"chi must be > 0, got {chi}")
    x = chi * np.asarray(t, dtype=float)
    phi_u = (2.0 * upsilon / chi) * np.arctan(np.tanh(0.5 * x))
    phi_e = (epsilon / chi) * _log_cosh(x)
    return PhasePair(phi_u, phi_e)


@dataclass(frozen=True)
class AsyncBranchConstants:
    """Complex pair of superposition constants fixing one exact branch solution.

    kind "A"/"B" are the conserving pairs (a1,a3)/(a2,a4); "C"/"D" the flip
    pairs (a1,a4)/(a2,a3).  coupling_sign carries the sign of the effective
    coupling (cos(pi*gamma) for conserving, sin(pi*gamma) for flip, rounded
    to +/-1) so evolution uses the same convention the constants were built
    with.  plus, minus, t_ref and coupling_sign may be arrays over members.
    """

    kind: str
    plus: complex | np.ndarray
    minus: complex | np.ndarray
    t_ref: float | np.ndarray
    coupling_sign: float | np.ndarray = 1.0


def _require_finite_t_ref(t_ref):
    t_ref = np.asarray(t_ref, dtype=float)
    bad = t_ref[~np.isfinite(t_ref)]
    if bad.size:
        raise ValueError(f"constants must be anchored at finite t_ref, got {float(bad[0])}")
    return t_ref


def _conserving_phases(kind, params, sign, t):
    """The two unit phase factors (e1, e2) with pair = (e1*plus + e2*minus, e1*plus - e2*minus)."""
    phases = phase_integrals(params.epsilon_amp, params.upsilon_amp, params.chi, t)
    pu = sign * phases.phi_u
    pe = phases.phi_e
    if kind == "A":
        return np.exp(1j * (pu - pe)), np.exp(-1j * (pu + pe))
    if kind == "B":
        return np.exp(1j * (pu + pe)), np.exp(-1j * (pu - pe))
    raise ValueError(f"conserving pair id must be 'A' or 'B', got {kind!r}")


def conserving_constants(pair0, pair_id, params, t_ref, coupling_sign=1.0):
    """Constants (plus, minus) reproducing the two amplitudes pair0 at t_ref.

    pair_id "A" takes pair0 = (a1, a3), "B" takes (a2, a4).  For pair A:
    plus = (a1+a3)/2 * e^{-i(phi_u-phi_e)(t_ref)} and
    minus = (a1-a3)/2 * e^{+i(phi_u+phi_e)(t_ref)}; pair B analogous with the
    sign of phi_e flipped.
    """
    t_ref = _require_finite_t_ref(t_ref)
    b1, b2 = np.asarray(pair0[0], dtype=complex), np.asarray(pair0[1], dtype=complex)
    e1, e2 = _conserving_phases(pair_id, params, coupling_sign, t_ref)
    plus = 0.5 * (b1 + b2) / e1
    minus = 0.5 * (b1 - b2) / e2
    return AsyncBranchConstants(pair_id, plus, minus, t_ref, coupling_sign)


def evolve_async_conserving(consts, params, t):
    """Pair amplitudes at t (scalar -> shape (2,), array -> (..., 2))."""
    e1, e2 = _conserving_phases(consts.kind, params, consts.coupling_sign, t)
    common = e1 * consts.plus
    split = e2 * consts.minus
    return np.stack([common + split, common - split], axis=-1)


def conserving_asymptotic_imbalance(consts, params, side):
    """Imbalance limit at t -> side*inf (side = +1 or -1), from the saturated phi_u."""
    pu_inf = side * consts.coupling_sign * 0.5 * math.pi * params.upsilon_amp / params.chi
    return -4.0 * np.real(consts.plus * np.conj(consts.minus) * np.exp(2j * pu_inf))


@dataclass(frozen=True)
class AsyncConservingCondition:
    """Classification of a conserving-branch drive by its pulse area ratio ups/chi.

    imbalance_sign resolves the sign convention of the asymptotic imbalance:
    for CCPC, Z31(+/-inf) = sign * 4 Re(A+ conj(A-)) (sign = -cos(pi ups/chi)
    rounded); for CCPI, Z31(+inf) = sign * 4 Im(A+ conj(A-)) = -Z31(-inf)
    (sign = sin(pi ups/chi) rounded).  Both follow from the normative form
    Z31 = -4 Re(A+ conj(A-) e^{2i phi_u}).
    """

    kind: str  # "CCPC", "CCPI" or "neither"
    ratio: float
    sin_val: float
    cos_val: float
    imbalance_sign: int | None


def classify_async_conserving(upsilon, chi, tol=1e-9):
    """CCPC iff |sin(pi ups/chi)| <= tol; CCPI iff |cos(pi ups/chi)| <= tol."""
    if not (chi > 0):
        raise ValueError(f"chi must be > 0, got {chi}")
    if not (tol > 0):
        raise ValueError(f"tol must be > 0, got {tol}")
    ratio = upsilon / chi
    sin_val = math.sin(math.pi * ratio)
    cos_val = math.cos(math.pi * ratio)
    if abs(sin_val) <= tol:
        return AsyncConservingCondition("CCPC", ratio, sin_val, cos_val, -round(cos_val))
    if abs(cos_val) <= tol:
        return AsyncConservingCondition("CCPI", ratio, sin_val, cos_val, round(sin_val))
    return AsyncConservingCondition("neither", ratio, sin_val, cos_val, None)


def check_flip_constraint(epsilon, upsilon, chi):
    """Residual chi^2/4 + epsilon^2 - upsilon^2 of the flip-branch constraint."""
    return 0.25 * chi * chi + epsilon * epsilon - upsilon * upsilon


def _off_constraint(params):
    """Flip-constraint residual of every member, and where it is not within tolerance (NaN too)."""
    residual = np.asarray(check_flip_constraint(params.epsilon_amp, params.upsilon_amp, params.chi))
    return residual, ~(np.abs(residual) <= FLIP_CONSTRAINT_TOL)


def _constraint_refusal(residual):
    return (
        "flip-branch constraint chi^2/4 + epsilon^2 - upsilon^2 = 0 "
        f"violated (residual {residual:.6g})"
    )


def _require_on_constraint(params):
    residual, off = _off_constraint(params)
    if off.any():
        raise ValueError(_constraint_refusal(residual[off][0]))


def gate(params, gamma):
    """The branch gate over a stack of drives: (conserving, flip, refusal).

    conserving and flip hold every member's coupling sign on that branch
    (+/-1), or 0 where the member is not on it; a member on the flip angle
    counts only when its drive meets the flip constraint within 1e-9.
    refusal is the text for the first member that no closed form covers, or
    None when every member is covered.
    """
    conserving, flip = branch_signs(gamma)
    residual, off = _off_constraint(params)
    conserving, flip, residual, off, gamma = np.broadcast_arrays(
        conserving, flip, residual, off, gamma
    )
    refused = (flip != 0) & off
    flip = np.where(refused, 0.0, flip)
    missing = np.flatnonzero((conserving == 0) & (flip == 0))
    if not missing.size:
        return conserving, flip, None
    k = missing[0]
    if refused.flat[k]:
        return conserving, flip, _constraint_refusal(residual.flat[k])
    refusal = (
        f"no closed form at gamma={float(gamma.flat[k]):g}: the drive needs "
        "|sin(pi*gamma)| < 1e-9 (spin-conserving) or |cos(pi*gamma)| < 1e-9 "
        "(spin-flipping)"
    )
    return conserving, flip, refusal


def _sqrt_sech_exp(x, sign):
    # sqrt(sech(x)) * e^{sign*x/2}, reduced so the exponent is never positive
    ax = np.abs(x)
    return math.sqrt(2.0) * np.exp(0.5 * (sign * x - ax)) / np.sqrt(1.0 + np.exp(-2.0 * ax))


def _flip_matrix(kind, params, sign, t):
    """Row coefficients with (first, second) = M @ (plus, minus) for a flip pair."""
    chi = params.chi
    eps = params.epsilon_amp
    ups_eff = sign * params.upsilon_amp
    t = np.asarray(t, dtype=float)
    x = chi * t
    ep = np.exp(1j * eps * t)
    em = np.conj(ep)
    grow = _sqrt_sech_exp(x, +1)
    decay = _sqrt_sech_exp(x, -1)
    if kind == "C":  # first = a1, second = a4
        pref = (eps - 0.5j * chi) / ups_eff
        return pref * decay * ep, -pref * grow * em, grow * ep, decay * em
    if kind == "D":  # first = a2, second = a3
        pref = (eps + 0.5j * chi) / ups_eff
        return -pref * grow * ep, pref * decay * em, decay * ep, grow * em
    raise ValueError(f"flip pair id must be 'C' or 'D', got {kind!r}")


def flip_constants(pair0, pair_id, params, t_ref, coupling_sign=1.0):
    """Constants (plus, minus) reproducing pair0 at t_ref on the flip branch.

    pair_id "C" takes pair0 = (a1, a4), "D" takes (a2, a3).  Solves the 2x2
    system given by the closed-form amplitudes at t_ref (its determinant has
    unit modulus times 2, so it is never singular at finite t_ref).
    """
    _require_on_constraint(params)
    t_ref = _require_finite_t_ref(t_ref)
    b1, b2 = np.asarray(pair0[0], dtype=complex), np.asarray(pair0[1], dtype=complex)
    m11, m12, m21, m22 = _flip_matrix(pair_id, params, coupling_sign, t_ref)
    det = m11 * m22 - m12 * m21
    plus = (m22 * b1 - m12 * b2) / det
    minus = (m11 * b2 - m21 * b1) / det
    return AsyncBranchConstants(pair_id, plus, minus, t_ref, coupling_sign)


def evolve_async_flip(consts, params, t):
    """Pair amplitudes at t (scalar -> shape (2,), array -> (..., 2))."""
    _require_on_constraint(params)
    m11, m12, m21, m22 = _flip_matrix(consts.kind, params, consts.coupling_sign, t)
    first = m11 * consts.plus + m12 * consts.minus
    second = m21 * consts.plus + m22 * consts.minus
    return np.stack([first, second], axis=-1)


def _conserving_limits(consts, params):
    """Pair populations at (-inf, +inf): the total, split by the saturated imbalance."""
    total = np.abs(consts.plus) ** 2 + np.abs(consts.minus) ** 2
    sides = (-1, 1)
    cross = -0.5 * np.stack([conserving_asymptotic_imbalance(consts, params, k) for k in sides])
    return total + cross, total - cross


def _flip_limits(consts, params):
    """Pair populations at (-inf, +inf): 2|plus|^2 and 2|minus|^2 change places across t = 0."""
    two_p = 2.0 * np.abs(consts.plus) ** 2
    two_m = 2.0 * np.abs(consts.minus) ** 2
    early, late = (two_p, two_m) if consts.kind == "C" else (two_m, two_p)
    return np.stack([early, late]), np.stack([late, early])


_BRANCHES = (
    (_CONSERVING_PAIRS, conserving_constants, evolve_async_conserving, _conserving_limits),
    (_FLIP_PAIRS, flip_constants, evolve_async_flip, _flip_limits),
)


class AsyncSolution:
    """Exact solution on the asynchronous branches, with the state imposed at finite t_ref.

    The drive's amplitudes and chi, gamma and t_ref may be arrays of one
    broadcast shape S, a stack of members such as the points of a scan; a
    single drive is the S = () case.  Each member may lie on either branch.
    The pair constants are built once, for all members of a branch together.
    When gate() refuses a member, the constructor raises ValueError with
    the gate's refusal text.
    """

    def __init__(self, params, gamma, state0, t_ref):
        state0 = as_state(state0)
        conserving, flip, refusal = gate(params, coupling_values(gamma))
        if refusal is not None:
            raise ValueError(refusal)
        members = np.broadcast_arrays(
            params.epsilon_amp, params.upsilon_amp, params.chi, t_ref, conserving, flip
        )
        self.shape = members[0].shape
        eps, ups, chi, t_ref, conserving, flip = (np.ravel(x) for x in members)
        self.size = eps.size
        # per branch: its members, their drive, pair constants, evolution and limits
        self.branches = []
        for (pairs, build, evolve, limits), on, signs in zip(
            _BRANCHES, (conserving != 0, flip != 0), (conserving, flip)
        ):
            idx = np.flatnonzero(on)
            if idx.size:
                sub = AsyncTanhSech(eps[idx], ups[idx], chi[idx])
                consts = {
                    kind: build(state0[list(pair)], kind, sub, t_ref[idx], signs[idx])
                    for kind, pair in pairs.items()
                }
                self.branches.append((idx, pairs, sub, consts, evolve, limits))

    def states(self, times):
        """Amplitudes at times, which broadcast against S (one member: T -> T + (4,))."""
        t = np.asarray(times, dtype=float)
        t = np.broadcast_to(t, np.broadcast_shapes(t.shape, self.shape))
        lead = t.shape[: t.ndim - len(self.shape)]
        t = t.reshape(lead + (self.size,))
        out = np.empty(t.shape + (4,), dtype=complex)
        for idx, pairs, sub, consts, evolve, _ in self.branches:
            t_members = t[..., idx]
            for kind, (i, j) in pairs.items():
                pair = evolve(consts[kind], sub, t_members)
                out[..., idx, i] = pair[..., 0]
                out[..., idx, j] = pair[..., 1]
        return out.reshape(lead + self.shape + (4,))

    def asymptotic_populations(self):
        """P(-inf) and P(+inf) of every member, shape (2,) + S + (4,), exact from the constants.

        Conserving pairs keep their total and take the imbalance from the
        saturated phi_u.  Flip pairs exchange their populations across t = 0:
        the first member of a C pair (a1, a4) and the second of a D pair
        (a2, a3) hold 2|plus|^2 at -inf and 2|minus|^2 at +inf, the other
        member the reverse.
        """
        p = np.empty((2, self.size, 4))
        for idx, pairs, sub, consts, _, limits in self.branches:
            for kind, (i, j) in pairs.items():
                p[:, idx, i], p[:, idx, j] = limits(consts[kind], sub)
        return p.reshape((2,) + self.shape + (4,))

    def asymptotes(self):
        """PopulationSnapshots at t = -inf and t = +inf of a single member."""
        return asymptote_snapshots(self.asymptotic_populations())
