"""Squared amplitude a(omega, gamma) of the standing-wave profile.

a is the first positive solution of F1(s) = omega, equivalently the first
positive zero of U.  The wave exists when U crosses zero transversally there
(U'(a) < 0); a degenerate double zero (U'(a) = 0) marks the nonexistence
curve.

Root bracketing works on the monotone pieces of F1, split at its critical
points: the roots of F1'(s) = sum f1_l e_l s^{e_l - 1}, which
``signs.roots`` finds on (0, inf) like any other generalized polynomial.
omega - F1 is monotone between consecutive critical points, so scanning
those pieces finds the first sign change without any sampling grid;
closely spaced root pairs near the nonexistence curve cannot be skipped
this way.  The bracket search and the bracketed solve are ``signs.grow``
and ``signs.bisect`` (Anderson-Bjorck false position), the package's one
root solver, which runs until the bracket's ends are adjacent floats and
returns the one where |omega - F1| is smaller; a is that float, with no
further refinement.

A piece whose two ends share a sign holds no root, because the function is
monotone on it; the solver returns at once instead of walking down
towards 0.  F1's critical points do not depend on omega, so they are found
once per (params, gamma) and kept in a small bounded cache: a sweep row and
the four mass_Q points of eval_J_mass_fd all share one gamma.

Everything here is scalar float arithmetic on purpose: grid sweeps call
find_a once per cell and the numpy dispatch overhead would dominate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .landscape import power_sum, terms
from .model import NonlinearityParams
from .signs import bisect as _bisect, grow, roots

# |U'(a)| below this (relative) scale counts as a double zero
BOUNDARY_TOL = 1e-9

# slack, relative to the size of F1's terms, for deciding that max F1
# merely touches omega (*D cases)
_TOUCH_TOL = 5e-13


@dataclass(frozen=True)
class ProfileResult:
    """First zero of U and the existence verdict at one (omega, gamma)."""

    a: float
    uprime_at_a: float
    exists: bool
    on_boundary: bool


@functools.lru_cache(maxsize=256)
def _f1_critical_points(params: NonlinearityParams, gamma: float) -> tuple:
    """Positive critical points of F1, ascending; at most two."""
    t = terms(params, gamma)
    return tuple(roots([(c * e, e - 1.0) for c, e in zip(t.f1, t.e)
                        if c != 0.0], math.inf))


def _first_crossing(params: NonlinearityParams, omega: float, gamma: float):
    """First positive zero of phi(s) = omega - F1(s), or None.

    A boundary double zero (*D cases: F1 max exactly omega) is returned as
    the touch point itself.
    """
    t = terms(params, gamma)
    cp, cq, cr = t.f1
    ep, eq, er = t.e

    def phi(s: float) -> float:
        return omega - (cp * s ** ep + cq * s ** eq + cr * s ** er)

    def size(s: float) -> float:
        # the size of F1's terms at s, the scale of phi's round-off there
        return (abs(omega) + abs(cp) * s ** ep + abs(cq) * s ** eq
                + abs(cr) * s ** er)

    crits = _f1_critical_points(params, gamma)

    if params.a3 > 0:
        # F1 -> +inf: a crossing always exists; find S past it
        bracket = grow(phi, crits[-1] if crits else 0.0, 1.0)
        if bracket is None:
            return None
        pts = [0.0] + list(crits) + [bracket[0]]
    else:
        # F1 -> -inf: a crossing needs max F1 >= omega
        if not crits:
            return None
        vals = [omega - phi(c) for c in crits]
        k = max(range(len(crits)), key=lambda i: vals[i])
        peak_s, peak_v = crits[k], vals[k]
        tol = _TOUCH_TOL * (1.0 + size(peak_s))
        if peak_v < omega - tol:
            return None
        if abs(peak_v - omega) <= tol:
            return peak_s  # double zero: the touch point itself
        pts = [0.0] + [c for c in crits if c < peak_s] + [peak_s]

    # sign of phi just right of 0: omega when omega > 0, else -sign(a1)*0+
    f_prev = omega if omega > 0.0 else -params.a1 * 5e-324
    last = pts[-1]
    for lo, hi in zip(pts[:-1], pts[1:]):
        f_hi = phi(hi)
        if hi is not last:
            # critical point: a |phi| below round-off scale is a double zero
            # (exactly-on-curve inputs must not fall to the far branch)
            if abs(f_hi) <= _TOUCH_TOL * (1.0 + size(hi)):
                return hi
        if f_hi == 0.0 or (f_hi > 0.0) != (f_prev > 0.0):
            return _bisect(phi, lo, hi, f_prev, f_hi)
        f_prev = f_hi
    return None


def _uprime_scale(params: NonlinearityParams, omega: float, gamma: float,
                  a: float) -> float:
    """Size of the terms of U'(a), the scale BOUNDARY_TOL is relative to."""
    t = terms(params, gamma)
    return power_sum([abs(c) for c in t.up], t.e, a, lead=abs(omega))


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
    up = power_sum(t.up, t.e, a, lead=omega)
    tol = BOUNDARY_TOL * (1.0 + _uprime_scale(params, omega, gamma, a))
    on_b = abs(up) <= tol
    return ProfileResult(a=a, uprime_at_a=up, exists=(not on_b and up < 0.0),
                         on_boundary=on_b)


def find_a0(params: NonlinearityParams, gamma: float):
    """First positive zero of F1, the omega -> 0 limit of a; D* cases only.

    Returns None when F1 has no positive zero (DD with gamma >= gamma1).
    """
    if params.sign1 != -1:
        raise ValueError("find_a0 applies to defocusing-lowest-power cases")
    return _first_crossing(params, 0.0, gamma)
