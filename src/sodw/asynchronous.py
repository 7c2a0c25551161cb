"""Exact solution engines for the asynchronous drive.

Here epsilon(t) = eps*tanh(chi*t) and upsilon(t) = ups*sech(chi*t) are
modulated independently, and exact solutions exist on two coupling branches:

Spin-conserving branch, cos(pi*gamma) = c = +/-1.  The tunnelling matrix T
commutes with Z = diag(1, -1, 1, -1) here, so the branch takes the
synchronous closed form (sync._commuting_modes) on the common eigenvectors
of T and Z, the (anti)symmetric combinations of the pairs (a1, a3) and
(a2, a4), with eigenvalues Lambda_u = c*(-1, 1, 1, -1) of T and
Lambda_e = (1, -1, 1, -1) of Z.  With (phi_u, phi_e) = AsyncTanhSech.areas(t),

    a1(t) = A+ e^{ i(c phi_u - phi_e)} + A- e^{-i(c phi_u + phi_e)},
    a3(t) = A+ e^{ i(c phi_u - phi_e)} - A- e^{-i(c phi_u + phi_e)},
    Z31(t) = -4 Re(A+ conj(A-) e^{2i c phi_u(t)}),

which is constant at t -> +/-inf because phi_u saturates at +/-pi*ups/(2 chi);
population conservation (CCPC) holds iff sin(pi ups/chi) = 0 and inversion
(CCPI) iff cos(pi ups/chi) = 0.

Spin-flipping branch, sin(pi*gamma) = +/-1.  The pairs are (a1, a4) and
(a2, a3); closed forms exist when the parameters satisfy the constraint

    chi^2/4 + epsilon^2 - upsilon^2 = 0,

and read (C pair; the D pair is analogous)

    a4(t) = sqrt(sech(chi t)) [C+ e^{(i eps + chi/2) t} + C- e^{-(i eps + chi/2) t}],
    a1(t) = ((eps - i chi/2)/ups) sqrt(sech(chi t))
            [C+ e^{-chi t/2} e^{i eps t} - C- e^{chi t/2} e^{-i eps t}].

Every sqrt(sech(chi t))*e^{+/-chi t/2} product, the textbook 1/sqrt(sech)
prefactor of the a2 form included, is computed as the reduced grouping
sqrt(2)*e^{(s*x-|x|)/2}/sqrt(1+e^{-2|x|}) (s = +/-1, x = chi t), whose
exponent is never positive, so nothing overflows at any finite t.
Populations always cross over: P1(-inf) = P4(+inf) = 2|C+|^2 and
P4(-inf) = P1(+inf) = 2|C-|^2.

gate() is the one branch gate of this drive.  A gamma counts as on a branch
when the coupling component that branch's closed form drops is below 1e-9:
|sin(pi*gamma)| on the conserving branch, |cos(pi*gamma)| on the flip branch
(core.branch_signs, the only test of gamma).  gate() adds the flip-branch
constraint and returns the one refusal text for a drive that neither branch
covers; modes(), the engine selection and the CLI all read it.  The
constraint is tested within 1e-9 in one place, off_flip_constraint, which
gate() and `sodw classify` both read.

modes() holds both branches in one form: a basis B(t) of the mode functions
with a(t) = B(t) c for the four mode constants c, and limit matrices L-/+
with P(-/+inf) = |L-/+ c|^2.  The phase phi_e diverges at large |t| but only
as a phase common to a pair, so populations never depend on it, and the
limits leave it out.

Every function works on a stack of members: the drive amplitudes, chi and
gamma may be arrays that broadcast against each other (and against t), such
as the points of a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONDITION_TOL, AsyncTanhSech, _require_fraction, branch_signs, coupling_values
from .sync import _commuting_modes

__all__ = [
    "AsyncConservingCondition",
    "gate",
    "modes",
    "classify_async_conserving",
    "check_flip_constraint",
    "off_flip_constraint",
]

#: gating tolerance on the flip-branch parameter constraint chi^2/4 + eps^2 - ups^2
FLIP_CONSTRAINT_TOL = 1e-9

# the conserving modes: the (a1, a3) symmetric and (a2, a4) antisymmetric
# vectors, then the (a1, a3) antisymmetric and (a2, a4) symmetric ones, with
# their eigenvalues of T (times cos(pi*gamma)) and of Z
_CONSERVING_VECTORS = np.array(
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
) / math.sqrt(2.0)
_CONSERVING_TUNNEL = np.array([-1.0, 1.0, 1.0, -1.0])
_CONSERVING_ZEEMAN = np.array([1.0, -1.0, 1.0, -1.0])

# amplitude indices of the flip branch's two pairs, C (a1, a4) and D (a2, a3)
_FLIP_PAIRS = ((0, 3), (1, 2))


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
    the drive does, and a ratio ups/chi that overflows or reaches 2**52,
    where no fractional digits are left.
    """
    AsyncTanhSech(0.0, upsilon, chi)
    ratio = _require_fraction("upsilon/chi", float(upsilon) / float(chi))
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


def off_flip_constraint(params):
    """Flip-constraint residual of every member, and where it is not within 1e-9 (NaN too)."""
    residual = np.asarray(check_flip_constraint(params.epsilon, params.upsilon, params.chi))
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
    residual, off = off_flip_constraint(params)
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


def _blocks(*blocks):
    """4x4 matrices from the entries (m11, m12, m21, m22) of each flip pair's 2x2 block.

    The amplitudes (a1, a4) take the constants c[0:2], (a2, a3) take c[2:4].
    """
    shape = np.broadcast_shapes(*(np.shape(m) for block in blocks for m in block))
    out = np.zeros(shape + (4, 4), dtype=complex)
    for (i, j), k, (m11, m12, m21, m22) in zip(_FLIP_PAIRS, (0, 2), blocks):
        out[..., i, k], out[..., i, k + 1] = m11, m12
        out[..., j, k], out[..., j, k + 1] = m21, m22
    return out


def _sqrt_sech_exp(x, sign):
    # sqrt(sech(x)) * e^{sign*x/2}, reduced so the exponent is never positive
    ax = np.abs(x)
    return math.sqrt(2.0) * np.exp(0.5 * (sign * x - ax)) / np.sqrt(1.0 + np.exp(-2.0 * ax))


# at t = -inf only the decaying factor sqrt(sech)e^{-chi t/2} -> sqrt(2) of each
# flip pair survives, at t = +inf only the growing one; phases left out
_KEEP, _SWAP = (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)
_FLIP_LIMITS = math.sqrt(2.0) * np.stack([_blocks(_KEEP, _SWAP), _blocks(_SWAP, _KEEP)])


def _flip(eps, ups, chi, sign):
    """(basis, inverse, limits) of members on the spin-flipping branch.

    Each pair block is inverted by its adjugate.  Its determinant is
    +2*pref_c (pair C) or -2*pref_d (pair D), because decay^2 + grow^2 = 2
    and e^{i eps t} e^{-i eps t} = 1.
    """
    pref_c = (eps - 0.5j * chi) / (sign * ups)
    pref_d = (eps + 0.5j * chi) / (sign * ups)
    half_c, half_d = 0.5 / pref_c, 0.5 / pref_d

    def factors(t):
        # e^{+/-i eps t} and the growing and decaying sqrt(sech(chi t)) e^{+/-chi t/2}
        ep = np.exp(1j * eps * t)
        return ep, np.conj(ep), _sqrt_sech_exp(chi * t, +1), _sqrt_sech_exp(chi * t, -1)

    def basis(t):
        ep, em, grow, decay = factors(t)
        pair_c = (pref_c * decay * ep, -pref_c * grow * em, grow * ep, decay * em)
        pair_d = (-pref_d * grow * ep, pref_d * decay * em, decay * ep, grow * em)
        return _blocks(pair_c, pair_d)

    def inverse(t):
        # each block's adjugate over its determinant, entered transposed: _blocks
        # lays entries out from constants to amplitudes, the inverse runs back
        ep, em, grow, decay = factors(t)
        pair_c = (half_c * decay * em, -half_c * grow * ep, 0.5 * grow * em, 0.5 * decay * ep)
        pair_d = (-half_d * grow * em, half_d * decay * ep, 0.5 * decay * em, 0.5 * grow * ep)
        return np.swapaxes(_blocks(pair_c, pair_d), -1, -2)

    return basis, inverse, np.broadcast_to(_FLIP_LIMITS[:, None], (2, sign.size, 4, 4))


def modes(params, gamma):
    """(basis, inverse, limits) of an AsyncTanhSech drive, with a(t) = basis(t) @ c.

    Gates the drive once and raises ValueError with the gate's refusal text
    when a member has no closed form.  Each member may lie on either branch;
    its c holds the weights of its four orthonormal conserving modes,
    sqrt(2)*(A+, B-, A-, B+), or the flip pair constants (C+, C-, D+, D-).
    basis(t) has shape S + (4, 4) for members of shape S; t must be finite
    and broadcasts against S (one member: T + (4, 4)).  inverse(t), of the
    same shape, is the exact inverse of basis(t): the conjugate transpose
    on the conserving branch, each pair block's adjugate on the flip branch,
    so c = inverse(t0) @ a(t0).  limits, shape (2,) + S + (4, 4), gives
    P(-/+inf) = |limits @ c|^2: the conserving modes at the saturated phi_u
    and the sqrt(2) exchange of each flip pair.
    """
    conserving, flip, refusal = gate(params, coupling_values(gamma))
    if refusal is not None:
        raise ValueError(refusal)
    members = np.broadcast_arrays(params.epsilon, params.upsilon, params.chi, conserving, flip)
    shape = members[0].shape
    eps, ups, chi, conserving, flip = (np.ravel(x) for x in members)
    size = eps.size
    # per branch: its members, then the basis, inverse and limits of their drives
    parts = []
    idx = np.flatnonzero(conserving)
    if idx.size:
        drive = AsyncTanhSech(eps[idx], ups[idx], chi[idx])
        lam_u = conserving[idx, None] * _CONSERVING_TUNNEL
        branch = _commuting_modes(_CONSERVING_VECTORS, drive, lam_u, _CONSERVING_ZEEMAN)
        parts.append((idx, *branch))
    idx = np.flatnonzero(flip)
    if idx.size:
        parts.append((idx, *_flip(eps[idx], ups[idx], chi[idx], flip[idx])))

    def gather(lead, values):
        # one value per part, over that part's members, into lead + (size, 4, 4)
        if len(parts) == 1:
            return values[0]
        out = np.empty(lead + (size, 4, 4), dtype=complex)
        for (idx, *_), value in zip(parts, values):
            out[..., idx, :, :] = value
        return out

    def every_member(k):
        # the basis (k = 1) or the inverse (k = 2) of every member, at times
        def at(times):
            t = np.asarray(times, dtype=float)
            t = np.broadcast_to(t, np.broadcast_shapes(t.shape, shape))
            lead = t.shape[: t.ndim - len(shape)]
            t = t.reshape(lead + (size,))
            out = gather(lead, [part[k](t[..., part[0]]) for part in parts])
            return out.reshape(lead + shape + (4, 4))

        return at

    limits = gather((2,), [part[3] for part in parts])
    return every_member(1), every_member(2), limits.reshape((2,) + shape + (4, 4))
