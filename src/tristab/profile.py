"""Squared amplitude a(omega, gamma) of the standing-wave profile.

a is the first positive solution of F1(s) = omega, equivalently the first
positive zero of U.  The wave exists when U crosses zero transversally there
(U'(a) < 0); a degenerate double zero (U'(a) = 0) marks the nonexistence
curve.

Root bracketing works on the monotone pieces of F1, split at its critical
points: the roots of F1'(s) = sum f1_l e_l s^{e_l - 1}, which
``signs.roots`` finds on (0, inf) like any other generalized polynomial.
omega - F1 is monotone between them, so one scan over them, ascending,
finds the first sign change without any sampling grid, and closely spaced
root pairs near the nonexistence curve cannot be skipped.  It stops at a
critical point where omega - F1 is zero to round-off (a double zero) or
has changed sign.  In the *D cases F1's peak is the last critical point,
so a peak below omega means no wave; in the *F cases F1 grows without
bound past the last one, and ``signs.grow`` doubles up to the largest
float for an upper end.  ``signs.bisect`` then runs until the
bracket's ends are adjacent floats and returns the one where
|omega - F1| is smaller; a is that float, with no further refinement.

F1's critical points do not depend on omega, so they are found once per
(params, gamma), in the cached term table ``landscape.terms``, which a
sweep row, the four mass_Q points of eval_J_mass_fd and
``boundary.omega_star`` share; ``_profile`` looks the table up once.

``_profile`` computes the powers a^{e_l} once, for U'(a) and its tolerance,
and its result carries them to J's rows and error bar in ``stability``.

Everything here is scalar float arithmetic on purpose: grid sweeps call
find_a once per cell and the numpy dispatch overhead would dominate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnsupportedRegime
from .landscape import Terms, terms
from .model import NonlinearityParams
from .signs import bisect as _bisect, grow

# |U'(a)| below this times min(1, S) + S, S the size of its terms, counts
# as a double zero; below S = 1 the slack scales with S alone, so waves at
# small scales are not read as double zeros
BOUNDARY_TOL = 1e-9

# slack, relative to the size of F1's terms, for deciding that max F1
# merely touches omega (*D cases)
_TOUCH_TOL = 5e-13


@dataclass(frozen=True)
class ProfileResult:
    """First zero of U and the existence verdict at one (omega, gamma).

    powers holds a^{e_l}, the p, q and r powers of the amplitude, which
    U'(a), its tolerance and every J row share; it is not compared or shown.
    """

    a: float
    uprime_at_a: float
    exists: bool
    on_boundary: bool
    powers: tuple = field(default=(), compare=False, repr=False)


def _first_crossing(params: NonlinearityParams, omega: float, gamma: float,
                    t: Terms):
    """First positive zero of phi(s) = omega - F1(s), or None, from the
    term table t at (params, gamma).

    A boundary double zero (*D cases: F1 max exactly omega) is returned as
    the touch point itself.  Raises UnsupportedRegime where F1's terms
    overflow before the crossing, or stay below omega up to the largest
    float, or where the crossing lies below the smallest: a lies beyond
    the float range.
    """
    (cp, cq, cr), (ep, eq, er) = t.f1, t.e

    def phi(s: float) -> float:
        try:
            return omega - (cp * s ** ep + cq * s ** eq + cr * s ** er)
        except OverflowError:
            raise UnsupportedRegime(
                "the amplitude at omega=%g, gamma=%g lies beyond the float "
                "range: F1's terms overflow" % (omega, gamma)) from None

    def tol(s: float) -> float:
        # slack for phi at s, scaled as BOUNDARY_TOL by the size of F1's
        # terms there
        size = (abs(omega) + abs(cp) * s ** ep + abs(cq) * s ** eq
                + abs(cr) * s ** er)
        return _TOUCH_TOL * ((size if size < 1.0 else 1.0) + size)

    crits = t.crits
    # *D: F1 -> -inf, and a crossing needs its peak, crits[-1], to reach omega
    if params.a3 < 0 and (not crits or phi(crits[-1]) > tol(crits[-1])):
        return None
    # sign of phi just right of 0: omega when omega > 0, else -sign(a1)*0+
    lo, f_lo = 0.0, (omega if omega > 0.0 else -params.a1 * 5e-324)
    for c in crits:
        f_c = phi(c)
        # a |phi| below round-off scale at a critical point is a double zero
        # (exactly-on-curve inputs must not fall to the far branch)
        if abs(f_c) <= tol(c):
            return c
        if (f_c > 0.0) != (f_lo > 0.0):
            hi, f_hi = c, f_c
            break
        lo, f_lo = c, f_c
    else:
        # F1 -> +inf: the crossing lies past the last critical point
        bracket = grow(phi, lo, f_lo)
        if bracket is None:
            raise UnsupportedRegime(
                "the amplitude at omega=%g, gamma=%g lies beyond the float "
                "range: F1 stays below omega up to the largest float"
                % (omega, gamma))
        hi, f_hi = bracket
    a = _bisect(phi, lo, hi, f_lo, f_hi)
    if a <= 5e-324:
        # bisect ends on (0, 5e-324) and returns either end: the crossing
        # lies below the smallest float where phi there has the far sign
        f_min = phi(5e-324)
        if f_min != 0.0 and (f_min > 0.0) != (f_lo > 0.0):
            raise UnsupportedRegime(
                "the amplitude at omega=%g, gamma=%g lies below the float "
                "range" % (omega, gamma))
    return a


def find_a(params: NonlinearityParams, omega: float, gamma: float):
    """ProfileResult at (omega, gamma), or None when U has no positive zero.

    Requires omega > 0.  exists means a transversal crossing (U'(a) below
    -tol); on_boundary means |U'(a)| within tol of zero, the degenerate case.
    Raises UnsupportedRegime where a lies beyond the float range.
    """
    if not omega > 0.0:
        raise ValueError("find_a requires omega > 0, got %r" % (omega,))
    return _profile(params, omega, gamma)


def _profile(params: NonlinearityParams, omega: float, gamma: float):
    """find_a's result for any omega >= 0; at omega = 0, a is a0."""
    t = terms(params, gamma)
    a = _first_crossing(params, omega, gamma, t)
    if a is None:
        return None
    (c0, c1, c2), (e0, e1, e2) = t.up, t.e
    powers = x0, x1, x2 = a ** e0, a ** e1, a ** e2
    # U'(a), summed as landscape.power_sum sums it
    up = omega + c0 * x0 + c1 * x1 + c2 * x2
    # |U'(a)| is measured against the size of its terms
    size = abs(omega) + abs(c0) * x0 + abs(c1) * x1 + abs(c2) * x2
    tol = BOUNDARY_TOL * ((size if size < 1.0 else 1.0) + size)
    on_b = abs(up) <= tol
    return ProfileResult(a=a, uprime_at_a=up, exists=(not on_b and up < 0.0),
                         on_boundary=on_b, powers=powers)


def find_a0(params: NonlinearityParams, gamma: float):
    """First positive zero of F1, the omega -> 0 limit of a; D* cases only.

    Returns None when F1 has no positive zero (DD with gamma >= gamma1),
    and raises UnsupportedRegime where the zero lies beyond the float range.
    """
    if params.sign1 != -1:
        raise ValueError("find_a0 applies to defocusing-lowest-power cases")
    return _first_crossing(params, 0.0, gamma, terms(params, gamma))
