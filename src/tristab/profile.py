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
so a peak below omega means no wave; in the *F cases ``signs.grow`` looks
for an upper end past the last one.  ``signs.bisect`` then runs until the
bracket's ends are adjacent floats and returns the one where
|omega - F1| is smaller; a is that float, with no further refinement.

F1's critical points do not depend on omega, so they are found once per
(params, gamma) and kept in a small bounded cache, which a sweep row, the
four mass_Q points of eval_J_mass_fd and ``boundary.omega_star`` share.
``_f1_maxima`` caches, beside them, F1's local maxima with F1, F1'' and
the size of its terms there, which J's bar and rule read at every cell.

``_profile`` computes the powers a^{e_l} once, for U'(a) and its tolerance,
and its result carries them to J's rows and error bar in ``stability``.

Everything here is scalar float arithmetic on purpose: grid sweeps call
find_a once per cell and the numpy dispatch overhead would dominate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import UnsupportedRegime
from .landscape import terms
from .model import NonlinearityParams
from .signs import bisect as _bisect, grow, roots

# |U'(a)| below this (relative) scale counts as a double zero
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


@functools.lru_cache(maxsize=256)
def _f1_critical_points(params: NonlinearityParams, gamma: float) -> tuple:
    """Positive critical points of F1, ascending; at most two."""
    t = terms(params, gamma)
    return tuple(roots([(c * e, e - 1.0) for c, e in zip(t.f1, t.e)
                        if c != 0.0], math.inf))


@functools.lru_cache(maxsize=256)
def _f1_maxima(params: NonlinearityParams, gamma: float) -> tuple:
    """(c, F1(c), sum |f1_l| c^{e_l}, F1''(c)) at each local maximum c of
    F1, the critical points with F1''(c) < 0, ascending."""
    t = terms(params, gamma)
    out = []
    for c in _f1_critical_points(params, gamma):
        try:
            f1 = [f * c ** e for f, e in zip(t.f1, t.e)]
        except OverflowError:
            break  # F1's terms overflow: no computed a lies past c
        # c^2 F1''(c), which has the sign of F1''(c)
        if (curvature := sum(x * e * (e - 1.0) for x, e in zip(f1, t.e))) < 0:
            out.append((c, sum(f1), sum(abs(x) for x in f1),
                        curvature / c / c))
    return tuple(out)


def _first_crossing(params: NonlinearityParams, omega: float, gamma: float):
    """First positive zero of phi(s) = omega - F1(s), or None.

    A boundary double zero (*D cases: F1 max exactly omega) is returned as
    the touch point itself.  Raises UnsupportedRegime where F1's terms
    overflow before the crossing: a lies beyond the float range.
    """
    t = terms(params, gamma)
    cp, cq, cr = t.f1
    ep, eq, er = t.e

    def phi(s: float) -> float:
        try:
            return omega - (cp * s ** ep + cq * s ** eq + cr * s ** er)
        except OverflowError:
            raise UnsupportedRegime(
                "the amplitude at omega=%g, gamma=%g lies beyond the float "
                "range: F1's terms overflow" % (omega, gamma)) from None

    def tol(s: float) -> float:
        # slack for phi at s, scaled by the size of F1's terms there
        return _TOUCH_TOL * (1.0 + (abs(omega) + abs(cp) * s ** ep
                                    + abs(cq) * s ** eq + abs(cr) * s ** er))

    crits = _f1_critical_points(params, gamma)
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
            return _bisect(phi, lo, c, f_lo, f_c)
        lo, f_lo = c, f_c
    # F1 -> +inf: the crossing lies past the last critical point
    bracket = grow(phi, lo, f_lo)
    if bracket is None:
        return None
    return _bisect(phi, lo, bracket[0], f_lo, bracket[1])


def find_a(params: NonlinearityParams, omega: float, gamma: float):
    """ProfileResult at (omega, gamma), or None when U has no positive zero.

    Requires omega > 0.  exists means a transversal crossing (U'(a) below
    -tol); on_boundary means |U'(a)| within tol of zero, the degenerate case.
    """
    if not omega > 0.0:
        raise ValueError("find_a requires omega > 0, got %r" % (omega,))
    return _profile(params, omega, gamma)


def _profile(params: NonlinearityParams, omega: float, gamma: float):
    """find_a's result for any omega >= 0; at omega = 0, a is a0."""
    a = _first_crossing(params, omega, gamma)
    if a is None:
        return None
    t = terms(params, gamma)
    (c0, c1, c2), (e0, e1, e2) = t.up, t.e
    powers = x0, x1, x2 = a ** e0, a ** e1, a ** e2
    # U'(a), summed as landscape.power_sum sums it
    up = omega + c0 * x0 + c1 * x1 + c2 * x2
    # |U'(a)| is measured against the size of its terms
    tol = BOUNDARY_TOL * (1.0 + (abs(omega) + abs(c0) * x0 + abs(c1) * x1
                                 + abs(c2) * x2))
    on_b = abs(up) <= tol
    return ProfileResult(a=a, uprime_at_a=up, exists=(not on_b and up < 0.0),
                         on_boundary=on_b, powers=powers)


def find_a0(params: NonlinearityParams, gamma: float):
    """First positive zero of F1, the omega -> 0 limit of a; D* cases only.

    Returns None when F1 has no positive zero (DD with gamma >= gamma1).
    """
    if params.sign1 != -1:
        raise ValueError("find_a0 applies to defocusing-lowest-power cases")
    return _first_crossing(params, 0.0, gamma)
