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
at any finite t; in particular the a2 form, whose textbook prefactor contains
1/sqrt(sech), is evaluated only in this reduced bounded form.  Populations
always cross over antisymmetrically on this branch:
P1(-inf) = P4(+inf) = 2|C+|^2 and P4(-inf) = P1(+inf) = 2|C-|^2.

gate() is the one branch gate of this drive.  A gamma counts as on a branch
when the coupling component that branch's closed form drops is below 1e-9:
|sin(pi*gamma)| on the conserving branch, |cos(pi*gamma)| on the flip branch
(core.branch_signs, the only test of gamma).  gate() adds the flip-branch
constraint and returns the one refusal text for a drive that neither branch
covers; modes(), the engine selection and the CLI all read it.

modes() holds both branches in one form: a basis B(t) of the mode functions
with a(t) = B(t) c for the four pair constants c, and limit matrices L-/+
with P(-/+inf) = |L-/+ c|^2.  The phase phi_e diverges at large |t| but only
as a phase common to a pair, so populations and imbalances never depend on
it, and the limits leave it out.

Every function works on a stack of members: the drive amplitudes, chi and
gamma may be arrays that broadcast against each other (and against t), such
as the points of a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONDITION_TOL, AsyncTanhSech, branch_signs, coupling_values

__all__ = [
    "AsyncConservingCondition",
    "phase_integrals",
    "gate",
    "modes",
    "classify_async_conserving",
    "check_flip_constraint",
]

#: gating tolerance on the flip-branch parameter constraint chi^2/4 + eps^2 - ups^2
FLIP_CONSTRAINT_TOL = 1e-9

# amplitude indices of each branch's two pairs: A (a1, a3) and B (a2, a4)
# conserve spin, C (a1, a4) and D (a2, a3) flip it
_CONSERVING_PAIRS = ((0, 2), (1, 3))
_FLIP_PAIRS = ((0, 3), (1, 2))


def _log_cosh(x):
    # |x| - ln 2 + log1p(e^{-2|x|}) == ln cosh(x); stable for all x, no
    # overflow in cosh, and identical to the |x| - ln 2 asymptote once
    # |x| > 40 where the log1p term underflows.
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


def phase_integrals(epsilon, upsilon, chi, t):
    """(phi_u, phi_e) at time t, the antiderivatives of the two drive components.

    Both vanish at t = 0.  phi_u(t) = (2 ups/chi) arctan(tanh(chi t/2)) is
    odd and saturates at +/- pi*ups/(2 chi); phi_e(t) = (eps/chi) ln cosh(chi t)
    is even and >= 0.  The arguments broadcast against each other.
    """
    if not np.all(np.asarray(chi) > 0):
        raise ValueError(f"chi must be > 0, got {chi}")
    x = chi * np.asarray(t, dtype=float)
    phi_u = (2.0 * upsilon / chi) * np.arctan(np.tanh(0.5 * x))
    phi_e = (epsilon / chi) * _log_cosh(x)
    return phi_u, phi_e


@dataclass(frozen=True)
class AsyncConservingCondition:
    """Classification of a conserving-branch drive by its pulse area ratio ups/chi."""

    kind: str  # "CCPC", "CCPI" or "neither"
    ratio: float
    sin_val: float
    cos_val: float


def classify_async_conserving(upsilon, chi):
    """CCPC iff |sin(pi ups/chi)| <= 1e-9; CCPI iff |cos(pi ups/chi)| <= 1e-9.

    Refuses a chi that is not > 0 and any argument that is not finite, as
    the drive does.
    """
    AsyncTanhSech(0.0, upsilon, chi)
    ratio = upsilon / chi
    sin_val = math.sin(math.pi * ratio)
    cos_val = math.cos(math.pi * ratio)
    if abs(sin_val) <= CONDITION_TOL:
        return AsyncConservingCondition("CCPC", ratio, sin_val, cos_val)
    if abs(cos_val) <= CONDITION_TOL:
        return AsyncConservingCondition("CCPI", ratio, sin_val, cos_val)
    return AsyncConservingCondition("neither", ratio, sin_val, cos_val)


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
        f"no closed form at gamma={float(gamma.flat[k])!r}: the drive needs "
        "|sin(pi*gamma)| < 1e-9 (spin-conserving) or |cos(pi*gamma)| < 1e-9 "
        "(spin-flipping)"
    )
    return conserving, flip, refusal


def _blocks(pairs, *blocks):
    """4x4 matrices from the entries (m11, m12, m21, m22) of each pair's 2x2 block.

    The amplitudes pairs[0] take the constants c[0:2], pairs[1] take c[2:4].
    """
    shape = np.broadcast_shapes(*(np.shape(m) for block in blocks for m in block))
    out = np.zeros(shape + (4, 4), dtype=complex)
    for (i, j), k, (m11, m12, m21, m22) in zip(pairs, (0, 2), blocks):
        out[..., i, k], out[..., i, k + 1] = m11, m12
        out[..., j, k], out[..., j, k + 1] = m21, m22
    return out


def _conserving(eps, ups, chi, sign):
    """(basis, limits) of members on the spin-conserving branch."""

    def basis(t):
        phi_u, pe = phase_integrals(eps, ups, chi, t)
        pu = sign * phi_u
        a1, a2 = np.exp(1j * (pu - pe)), np.exp(-1j * (pu + pe))
        b1, b2 = np.exp(1j * (pu + pe)), np.exp(-1j * (pu - pe))
        return _blocks(_CONSERVING_PAIRS, (a1, a2, a1, -a2), (b1, b2, b1, -b2))

    # phi_u at t = -/+inf; the diverging phase of each pair, e^{-i phi_e} on
    # pair A and e^{+i phi_e} on pair B, is left out
    pu = np.multiply.outer([-1.0, 1.0], sign * 0.5 * math.pi * ups / chi)
    u1, u2 = np.exp(1j * pu), np.exp(-1j * pu)
    pair = (u1, u2, u1, -u2)
    return basis, _blocks(_CONSERVING_PAIRS, pair, pair)


def _sqrt_sech_exp(x, sign):
    # sqrt(sech(x)) * e^{sign*x/2}, reduced so the exponent is never positive
    ax = np.abs(x)
    return math.sqrt(2.0) * np.exp(0.5 * (sign * x - ax)) / np.sqrt(1.0 + np.exp(-2.0 * ax))


# at t = -inf only the decaying factor sqrt(sech)e^{-chi t/2} -> sqrt(2) of each
# flip pair survives, at t = +inf only the growing one; phases left out
_KEEP, _SWAP = (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)
_FLIP_LIMITS = math.sqrt(2.0) * np.stack(
    [_blocks(_FLIP_PAIRS, _KEEP, _SWAP), _blocks(_FLIP_PAIRS, _SWAP, _KEEP)]
)


def _flip(eps, ups, chi, sign):
    """(basis, limits) of members on the spin-flipping branch."""
    pref_c = (eps - 0.5j * chi) / (sign * ups)
    pref_d = (eps + 0.5j * chi) / (sign * ups)

    def basis(t):
        ep = np.exp(1j * eps * t)
        em = np.conj(ep)
        grow = _sqrt_sech_exp(chi * t, +1)
        decay = _sqrt_sech_exp(chi * t, -1)
        pair_c = (pref_c * decay * ep, -pref_c * grow * em, grow * ep, decay * em)
        pair_d = (-pref_d * grow * ep, pref_d * decay * em, decay * ep, grow * em)
        return _blocks(_FLIP_PAIRS, pair_c, pair_d)

    return basis, np.broadcast_to(_FLIP_LIMITS[:, None], (2, sign.size, 4, 4))


def modes(params, gamma):
    """(basis, limits) of an AsyncTanhSech drive, with a(t) = basis(t) @ c.

    Gates the drive once and raises ValueError with the gate's refusal text
    when a member has no closed form.  Each member may lie on either branch;
    its c holds the two pair constants, (A+, A-, B+, B-) or (C+, C-, D+, D-).
    basis(t) has shape S + (4, 4) for members of shape S; t must be finite
    and broadcasts against S (one member: T + (4, 4)).  limits, shape
    (2,) + S + (4, 4), gives P(-/+inf) = |limits @ c|^2: the conserving pair
    blocks at the saturated phi_u and the sqrt(2) exchange of each flip pair.
    """
    conserving, flip, refusal = gate(params, coupling_values(gamma))
    if refusal is not None:
        raise ValueError(refusal)
    members = np.broadcast_arrays(
        params.epsilon_amp, params.upsilon_amp, params.chi, conserving, flip
    )
    shape = members[0].shape
    eps, ups, chi, conserving, flip = (np.ravel(x) for x in members)
    size = eps.size
    # per branch: its members, the basis of their drives and their limits
    parts = []
    for signs, branch in ((conserving, _conserving), (flip, _flip)):
        idx = np.flatnonzero(signs)
        if idx.size:
            parts.append((idx, *branch(eps[idx], ups[idx], chi[idx], signs[idx])))

    def gather(lead, values):
        # one value per part, over that part's members, into lead + (size, 4, 4)
        if len(parts) == 1:
            return values[0]
        out = np.empty(lead + (size, 4, 4), dtype=complex)
        for (idx, _, _), value in zip(parts, values):
            out[..., idx, :, :] = value
        return out

    def basis(times):
        t = np.asarray(times, dtype=float)
        t = np.broadcast_to(t, np.broadcast_shapes(t.shape, shape))
        lead = t.shape[: t.ndim - len(shape)]
        t = t.reshape(lead + (size,))
        out = gather(lead, [part_basis(t[..., idx]) for idx, part_basis, _ in parts])
        return out.reshape(lead + shape + (4, 4))

    limits = gather((2,), [part_limits for _, _, part_limits in parts])
    return basis, limits.reshape((2,) + shape + (4, 4))
