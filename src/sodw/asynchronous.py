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

A gamma counts as on a branch when the coupling component that branch's
closed form drops is below 1e-9: |sin(pi*gamma)| on the conserving branch,
|cos(pi*gamma)| on the flip branch.

Constants are always anchored at a finite reference time t_ref; the phase
phi_e diverges at large |t| but only as a common phase, so populations and
imbalances never depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SIN_BRANCH_TOL, PopulationSnapshot, as_coupling, as_state

__all__ = [
    "PhasePair",
    "AsyncBranchConstants",
    "AsyncConservingCondition",
    "AsyncSolution",
    "phase_integrals",
    "conserving_branch_sign",
    "flip_branch_sign",
    "conserving_constants",
    "evolve_async_conserving",
    "conserving_imbalance",
    "conserving_asymptotic_imbalance",
    "classify_async_conserving",
    "check_flip_constraint",
    "flip_constants",
    "evolve_async_flip",
]

#: gating tolerance on the flip-branch parameter constraint chi^2/4 + eps^2 - ups^2
FLIP_CONSTRAINT_TOL = 1e-9

#: gating tolerance on the off-branch coupling component the closed forms drop:
#: |sin(pi gamma)| on the conserving branch, |cos(pi gamma)| on the flip branch
BRANCH_GATE_TOL = SIN_BRANCH_TOL

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
    """PhasePair at time t (scalar or array)."""
    if not (chi > 0):
        raise ValueError(f"chi must be > 0, got {chi}")
    x = chi * np.asarray(t, dtype=float)
    phi_u = (2.0 * upsilon / chi) * np.arctan(np.tanh(0.5 * x))
    phi_e = (epsilon / chi) * _log_cosh(x)
    return PhasePair(phi_u, phi_e)


def conserving_branch_sign(gamma):
    """Sign of cos(pi*gamma) when |sin(pi*gamma)| < 1e-9, else None."""
    g = as_coupling(gamma)
    if abs(g.sin_pg) < BRANCH_GATE_TOL:
        return math.copysign(1.0, g.cos_pg)
    return None


def flip_branch_sign(gamma):
    """Sign of sin(pi*gamma) when |cos(pi*gamma)| < 1e-9, else None."""
    g = as_coupling(gamma)
    if abs(g.cos_pg) < BRANCH_GATE_TOL:
        return math.copysign(1.0, g.sin_pg)
    return None


@dataclass(frozen=True)
class AsyncBranchConstants:
    """Complex pair of superposition constants fixing one exact branch solution.

    kind "A"/"B" are the conserving pairs (a1,a3)/(a2,a4); "C"/"D" the flip
    pairs (a1,a4)/(a2,a3).  coupling_sign carries the sign of the effective
    coupling (cos(pi*gamma) for conserving, sin(pi*gamma) for flip, rounded
    to +/-1) so evolution uses the same convention the constants were built
    with.
    """

    kind: str
    plus: complex
    minus: complex
    t_ref: float
    coupling_sign: float = 1.0


def _require_finite_t_ref(t_ref):
    t_ref = float(t_ref)
    if not math.isfinite(t_ref):
        raise ValueError(f"constants must be anchored at finite t_ref, got {t_ref}")
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
    b1, b2 = complex(pair0[0]), complex(pair0[1])
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


def conserving_imbalance(consts, params, t):
    """Imbalance (second minus first), e.g. Z31 for pair A: -4 Re(A+ conj(A-) e^{2i phi_u})."""
    phases = phase_integrals(params.epsilon_amp, params.upsilon_amp, params.chi, t)
    pu = consts.coupling_sign * phases.phi_u
    return -4.0 * np.real(consts.plus * np.conj(consts.minus) * np.exp(2j * pu))


def conserving_asymptotic_imbalance(consts, params, side):
    """Imbalance limit at t -> side*inf (side = +1 or -1), from the saturated phi_u."""
    pu_inf = side * consts.coupling_sign * 0.5 * math.pi * params.upsilon_amp / params.chi
    return float(-4.0 * np.real(consts.plus * np.conj(consts.minus) * np.exp(2j * pu_inf)))


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


def _require_on_constraint(params):
    residual = check_flip_constraint(params.epsilon_amp, params.upsilon_amp, params.chi)
    if abs(residual) > FLIP_CONSTRAINT_TOL:
        raise ValueError(
            "flip-branch constraint chi^2/4 + epsilon^2 - upsilon^2 = 0 violated "
            f"(residual {residual:.6g}); off-constraint parameters have no closed form, "
            "use the numeric oracle"
        )
    return residual


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
    b1, b2 = complex(pair0[0]), complex(pair0[1])
    m11, m12, m21, m22 = _flip_matrix(pair_id, params, coupling_sign, t_ref)
    det = m11 * m22 - m12 * m21
    plus = (m22 * b1 - m12 * b2) / det
    minus = (m11 * b2 - m21 * b1) / det
    return AsyncBranchConstants(pair_id, complex(plus), complex(minus), t_ref, coupling_sign)


def evolve_async_flip(consts, params, t):
    """Pair amplitudes at t (scalar -> shape (2,), array -> (..., 2))."""
    _require_on_constraint(params)
    m11, m12, m21, m22 = _flip_matrix(consts.kind, params, consts.coupling_sign, t)
    first = m11 * consts.plus + m12 * consts.minus
    second = m21 * consts.plus + m22 * consts.minus
    return np.stack([first, second], axis=-1)


def _branch_error(gamma):
    g = as_coupling(gamma)
    return ValueError(
        f"gamma = {g.gamma:.6g} lies on neither exact asynchronous branch: "
        f"spin conservation needs |sin(pi gamma)| < 1e-9 (got sin = {g.sin_pg:.3g}) and "
        f"spin flipping needs |cos(pi gamma)| < 1e-9 (got cos = {g.cos_pg:.3g}); "
        "use the numeric oracle"
    )


class AsyncSolution:
    """Exact solution on one asynchronous branch, with the state imposed at finite t_ref.

    The pair constants are built once.  Requires gamma on one of the exact
    branches (and, on the flip branch, the parameter constraint); otherwise
    raises ValueError naming the condition.
    """

    def __init__(self, params, gamma, state0, t_ref):
        state0 = as_state(state0)
        sign = conserving_branch_sign(gamma)
        self.conserving = sign is not None
        if self.conserving:
            self.pairs, build = _CONSERVING_PAIRS, conserving_constants
        else:
            sign = flip_branch_sign(gamma)
            if sign is None:
                raise _branch_error(gamma)
            self.pairs, build = _FLIP_PAIRS, flip_constants
        self.params = params
        self.consts = {
            kind: build(state0[list(idx)], kind, params, t_ref, sign)
            for kind, idx in self.pairs.items()
        }

    def states(self, times):
        """Amplitudes at times (scalar -> shape (4,), array -> (..., 4))."""
        times = np.asarray(times, dtype=float)
        out = np.empty(times.shape + (4,), dtype=complex)
        evolve = evolve_async_conserving if self.conserving else evolve_async_flip
        for kind, idx in self.pairs.items():
            pair = evolve(self.consts[kind], self.params, times)
            out[..., idx[0]] = pair[..., 0]
            out[..., idx[1]] = pair[..., 1]
        return out

    def asymptotes(self):
        """PopulationSnapshots at t = -inf and t = +inf, exact from the constants.

        Conserving pairs keep their total and take the imbalance from the
        saturated phi_u.  Flip pairs exchange their populations across t = 0:
        the first member of a C pair (a1, a4) and the second of a D pair
        (a2, a3) hold 2|plus|^2 at -inf and 2|minus|^2 at +inf, the other
        member the reverse.
        """
        p_minus = np.empty(4)
        p_plus = np.empty(4)
        for kind, (i, j) in self.pairs.items():
            c = self.consts[kind]
            if self.conserving:
                total = abs(c.plus) ** 2 + abs(c.minus) ** 2
                for side, out in ((-1, p_minus), (+1, p_plus)):
                    cross = -0.5 * conserving_asymptotic_imbalance(c, self.params, side)
                    out[i] = total + cross
                    out[j] = total - cross
            else:
                two_p = 2.0 * abs(c.plus) ** 2
                two_m = 2.0 * abs(c.minus) ** 2
                early, late = (two_p, two_m) if kind == "C" else (two_m, two_p)
                p_minus[i], p_minus[j] = early, late
                p_plus[i], p_plus[j] = late, early
        return PopulationSnapshot(-math.inf, *p_minus), PopulationSnapshot(math.inf, *p_plus)
