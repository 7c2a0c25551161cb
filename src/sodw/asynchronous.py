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

which is constant at t -> +/-inf because phi_u saturates at +/-pi*ups/(2 chi).
So the pulse area A = pi*ups/chi decides, under the one rule of both drives
(core.area_condition): populations are conserved (CCPC) iff |ups/chi| is an
integer and invert within each pair (CCPI) iff it is a half-integer.

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

route() is the one branch gate of this drive.  A gamma counts as on a branch
when the coupling component that branch's closed form drops is below 1e-9:
|sin(pi*gamma)| on the conserving branch, |cos(pi*gamma)| on the flip branch
(core.branch_signs, the only test of gamma).  route() adds the flip-branch
constraint, tested within 1e-9 in one place (off_flip_constraint, which
`sodw classify` reads too), and returns each member's code, its branch
times its coupling sign (+/-1 conserving, +/-2 flip, 0 for neither), with
the one refusal text for a member that neither branch covers.

modes() takes those codes as given and holds both branches in one form that
acts on states: the state a(t) of the four mode constants c, the constants
of a state given at t0, and the two limit states at -/+inf.  A state given
at -inf holds at core.start_time(t0), -default_horizon, the start that the
oracle's runs read too.  The conserving branch reads the synchronous form;
the flip branch applies each pair's 2x2 formulas above and their adjugate,
and its limits are the sqrt(2) keep and swap of each pair's constants.  A
stack on both branches runs each branch on its own members.  No complex
matrix is built per member or per sample.  The phase phi_e diverges at
large |t| but only as a phase common to a pair, so populations never depend
on it, and the limits leave it out.

Every function works on a stack of members: the drive amplitudes, chi and
gamma may be arrays that broadcast against each other (and against t), such
as the points of a scan.
"""

from __future__ import annotations

import math

import numpy as np

from .core import AsyncTanhSech, _require_fraction, area_condition, branch_signs, start_time
from .sync import _commuting_modes

__all__ = [
    "route",
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


def classify_async_conserving(upsilon, chi):
    """(upsilon, chi) under core.area_condition, with the pulse area A = pi*upsilon/chi.

    The rule reads |A|/pi as |upsilon/chi|, which is exact.  Refuses what
    the drive refuses, and an upsilon/chi that overflows or reaches 2**52.
    """
    AsyncTanhSech(0.0, upsilon, chi)
    ratio = _require_fraction("upsilon/chi", float(upsilon) / float(chi))
    return area_condition(math.pi * ratio, abs(ratio))


@np.errstate(over="ignore", invalid="ignore")
def check_flip_constraint(epsilon, upsilon, chi):
    """Residual chi^2/4 + epsilon^2 - upsilon^2 of the flip constraint; inf or NaN on overflow."""
    return 0.25 * chi * chi + epsilon * epsilon - upsilon * upsilon


def off_flip_constraint(params):
    """Flip-constraint residual of every member, and where it is not within 1e-9 (NaN too)."""
    residual = np.asarray(check_flip_constraint(params.epsilon, params.upsilon, params.chi))
    return residual, ~(np.abs(residual) <= FLIP_CONSTRAINT_TOL)


def route(params, gamma):
    """The branch gate over a stack of drives: (codes, refusal).

    codes holds each member's branch times its coupling sign: +/-1 conserving,
    +/-2 flip (only where the drive meets the flip constraint within 1e-9),
    0 where no closed form covers it.  refusal is the text for the first
    member that no closed form covers, or None.
    """
    conserving, flip = branch_signs(gamma)
    residual, off = off_flip_constraint(params)
    refused = (flip != 0) & off
    codes = conserving + 2.0 * np.where(refused, 0.0, flip)
    codes, refused, residual, gamma = np.broadcast_arrays(codes, refused, residual, gamma)
    missing = np.flatnonzero(codes == 0)
    if not missing.size:
        return codes, None
    k = missing[0]
    if refused.flat[k]:
        return codes, (
            "flip-branch constraint chi^2/4 + epsilon^2 - upsilon^2 = 0 "
            f"violated (residual {residual.flat[k]:.6g})"
        )
    return codes, (
        f"no closed form at gamma={float(gamma.flat[k])!r}: the drive needs "
        "|sin(pi*gamma)| < 1e-9 (spin-conserving) or |cos(pi*gamma)| < 1e-9 "
        "(spin-flipping)"
    )


def _sqrt_sech_exp(x, sign):
    # sqrt(sech(x)) * e^{sign*x/2}, reduced so the exponent is never positive
    ax = np.abs(x)
    return math.sqrt(2.0) * np.exp(0.5 * (sign * x - ax)) / np.sqrt(1.0 + np.exp(-2.0 * ax))


def _conserving(eps, ups, chi, sign):
    """(evolve, constants, limits) of members on the spin-conserving branch."""
    drive, lam_u = AsyncTanhSech(eps, ups, chi), sign[..., None] * _CONSERVING_TUNNEL
    return _commuting_modes(_CONSERVING_VECTORS, drive, lam_u, _CONSERVING_ZEEMAN)


def _flip(eps, ups, chi, sign):
    """(evolve, constants, limits) of members on the spin-flipping branch.

    The constants c = (C+, C-, D+, D-) weight pair C (a1, a4) and pair D
    (a2, a3).  Each pair's 2x2 block of mode functions is inverted by its
    adjugate.  Its determinant is +2*pref_c (pair C) or -2*pref_d (pair D),
    because decay^2 + grow^2 = 2 and e^{i eps t} e^{-i eps t} = 1.
    """
    # the fields on a trailing axis of one, as are t and each constant below: one
    # member's products then run on arrays, as a stack's do, since numpy rounds a
    # product of two complex scalars differently
    eps, ups, chi, sign = (np.asarray(x)[..., None] for x in (eps, ups, chi, sign))
    pref_c = (eps - 0.5j * chi) / (sign * ups)
    pref_d = (eps + 0.5j * chi) / (sign * ups)
    half_c, half_d = 0.5 / pref_c, 0.5 / pref_d

    def factors(t):
        # e^{+/-i eps t} and the growing and decaying sqrt(sech(chi t)) e^{+/-chi t/2}
        t = np.asarray(t)[..., None]
        ep = np.exp(1j * eps * t)
        return ep, np.conj(ep), _sqrt_sech_exp(chi * t, +1), _sqrt_sech_exp(chi * t, -1)

    def evolve(t, c):
        ep, em, grow, decay = factors(t)
        cp, cm, dp, dm = (c[..., k : k + 1] for k in range(4))
        out = np.empty(np.broadcast_shapes(ep.shape, cp.shape)[:-1] + (4,), dtype=complex)
        out[..., 0:1] = pref_c * (decay * ep * cp - grow * em * cm)
        out[..., 1:2] = pref_d * (decay * em * dm - grow * ep * dp)
        out[..., 2:3] = decay * ep * dp + grow * em * dm
        out[..., 3:4] = grow * ep * cp + decay * em * cm
        return out

    def constants(t0, a0):
        ep, em, grow, decay = factors(t0)
        a1, a2, a3, a4 = (a0[..., k : k + 1] for k in range(4))
        cp = em * (half_c * decay * a1 + 0.5 * grow * a4)
        cm = ep * (0.5 * decay * a4 - half_c * grow * a1)
        dp = em * (0.5 * decay * a3 - half_d * grow * a2)
        dm = ep * (half_d * decay * a2 + 0.5 * grow * a3)
        return np.concatenate([cp, cm, dp, dm], axis=-1)

    def limits(c):
        # at -inf only the decaying factor sqrt(sech)e^{-chi t/2} -> sqrt(2) of each
        # pair survives, at +inf only the growing one; phases left out
        return math.sqrt(2.0) * np.stack([c[..., [0, 3, 2, 1]], c[..., [1, 2, 3, 0]]])

    return evolve, constants, limits


def modes(params, gamma, codes):
    """(evolve, constants, limits) of an AsyncTanhSech drive: its closed form, acting on states.

    codes are route()'s, taken as given, none 0.  A member's constants c are
    the weights of its four orthonormal conserving modes, sqrt(2)*(A+, B-,
    A-, B+), or the flip pair constants (C+, C-, D+, D-).  evolve(t, c) is
    the state at finite t, and constants(t0, a0) the exact constants of the
    state a0 given at t0, taken at core.start_time(t0): the conjugate
    phases times the projection on the conserving branch, each pair block's
    adjugate on the flip branch.  For members of shape S, t broadcasts
    against S and c, a0 have shape S + (4,) (one member: T + (4,)).
    limits(c), shape (2,) + S + (4,), holds the states at -/+inf up to a
    phase per pair: the conserving modes at the saturated phi_u, and the
    sqrt(2) keep and swap of each flip pair's constants.
    """
    eps, ups, chi, codes = np.broadcast_arrays(params.epsilon, params.upsilon, params.chi, codes)
    on_flip, sign = np.abs(codes) == 2, np.sign(codes)
    if not on_flip.any():
        evolve, constants, limits = _conserving(eps, ups, chi, sign)
    elif on_flip.all():
        evolve, constants, limits = _flip(eps, ups, chi, sign)
    else:
        evolve, constants, limits = _split(on_flip, eps, ups, chi, sign)
    # a state given at -inf holds where core.start_time puts it
    return evolve, lambda t0, a0: constants(start_time(params, t0), a0), limits


def _split(on_flip, eps, ups, chi, sign):
    """(evolve, constants, limits) of a stack on both branches, each run on its own members."""
    parts = [
        (mask, branch(*(x[mask] for x in (eps, ups, chi, sign))))
        for branch, mask in ((_conserving, ~on_flip), (_flip, on_flip))
    ]

    def pick(x, mask, tail):
        # the members of mask in x, whose tail axes follow the members' axes
        head = np.shape(x)[: np.ndim(x) - len(tail)]
        x = np.broadcast_to(x, np.broadcast_shapes(head, mask.shape) + tail)
        return x[(Ellipsis, mask) + (slice(None),) * len(tail)]

    def split(k):
        # evolve (k = 0) and constants (1) of (t, c), limits (2) of (c,): the four
        # levels of c follow the members' axes, against which t broadcasts
        def at(*args):
            *times, c = args
            members = np.broadcast_shapes(*map(np.shape, times), np.shape(c)[:-1], on_flip.shape)
            out = np.empty((2,) * (k == 2) + members + (4,), dtype=complex)  # limits: -/+inf
            for mask, part in parts:
                picked = [pick(t, mask, ()) for t in times] + [pick(c, mask, (4,))]
                out[..., mask, :] = part[k](*picked)
            return out

        return at

    return split(0), split(1), split(2)
