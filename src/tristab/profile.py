"""Squared amplitude a(omega, gamma) of the standing-wave profile.

a is the first positive solution of F1(s) = omega, equivalently the first
positive zero of U.  The wave exists when U crosses zero transversally there
(U'(a) < 0); a degenerate double zero (U'(a) = 0) marks the nonexistence
curve.

Root bracketing works on the monotone pieces of F1.  F1'(s) factors as
s^{(p-3)/2} * h(s) with h(x) = d_p + d_q x^alpha + d_r x^beta, which has at
most one interior critical point, so h has at most two positive roots and F1
at most two critical points.  omega - F1 is monotone between consecutive
critical points, so scanning those pieces finds the first sign change without
any sampling grid; closely spaced root pairs near the nonexistence curve
cannot be skipped this way.  Bisection on the bracketed piece is finished
with a few Newton steps on the analytic derivative.

A piece whose two ends share a sign holds no root, because the function is
monotone on it; _bisect returns at once instead of walking down towards 0.
F1's critical points do not depend on omega, so they are found once per
(params, gamma) and kept in a small bounded cache: a sweep row and the
four mass_Q points of eval_J_mass_fd all share one gamma.

Everything here is scalar float arithmetic on purpose: grid sweeps call
find_a once per cell and the numpy dispatch overhead would dominate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .landscape import power_sum, terms
from .model import NonlinearityParams

# |U'(a)| below this (relative) scale counts as a double zero
BOUNDARY_TOL = 1e-9

# relative slack for deciding that max F1 merely touches omega (*D cases)
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
    p, q, r = params.p, params.q, params.r
    dp = params.a1 * (p - 1.0) / (p + 1.0)
    dq = -gamma * (q - 1.0) / (q + 1.0)
    dr = params.a3 * (r - 1.0) / (r + 1.0)
    alpha = (q - p) / 2.0
    beta = (r - p) / 2.0

    def h(x: float) -> float:
        return dp + dq * x ** alpha + dr * x ** beta

    # h' = alpha dq x^{alpha-1} + beta dr x^{beta-1} has one positive zero
    # exactly when dq and dr have opposite signs
    xh = None
    if dq != 0.0 and (dq > 0.0) != (dr > 0.0):
        xh = (-alpha * dq / (beta * dr)) ** (1.0 / (beta - alpha))

    pieces = [(0.0, xh), (xh, None)] if xh is not None else [(0.0, None)]
    roots = []
    for lo, hi in pieces:
        flo = dp if lo == 0.0 else h(lo)
        if hi is None:
            # past its last critical point h runs monotonically from flo
            # towards sign(dr) * inf, so ends of one sign leave no root
            if (dr > 0.0) == (flo > 0.0):
                continue
            # extend until the dominant x^beta term decides the sign
            x = 2.0 * lo if lo > 0.0 else 1.0
            x = max(x, 1.0)
            fx = h(x)
            grow = 0
            while fx != 0.0 and (fx > 0.0) == (flo > 0.0) and grow < 400:
                x *= 2.0
                fx = h(x)
                grow += 1
            if fx != 0.0 and (fx > 0.0) == (flo > 0.0):
                continue
            hi, fhi = x, fx
        else:
            fhi = h(hi)
        root = _bisect(h, lo, hi, flo, fhi)
        if root is not None and root > 0.0:
            roots.append(root)
    return tuple(sorted(roots))


def _bisect(f, lo: float, hi: float, flo: float, fhi: float, iters: int = 200):
    """Bisection on a bracketed sign change; geometric steps while lo == 0.

    f must be monotone on (lo, hi), so ends of one sign mean no root.
    """
    if fhi == 0.0:
        return hi
    if flo == 0.0 and lo > 0.0:
        return lo
    if (flo > 0.0) == (fhi > 0.0):
        return None
    if lo == 0.0:
        # phi(0+) sign is carried by flo even though f(0) may be indeterminate:
        # walk down geometrically to find a positive lower endpoint
        lo2 = hi
        for _ in range(4200):
            lo2 *= 0.5
            f2 = f(lo2)
            if f2 == 0.0:
                return lo2
            if (f2 > 0.0) != (fhi > 0.0):
                lo, flo = lo2, f2
                break
            hi, fhi = lo2, f2
        else:
            return None
    for _ in range(iters):
        mid = math.sqrt(lo * hi) if hi > 16.0 * lo else 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


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

    def phi_prime(s: float) -> float:
        return -(cp * ep * s ** (ep - 1.0) + cq * eq * s ** (eq - 1.0)
                 + cr * er * s ** (er - 1.0))

    crits = _f1_critical_points(params, gamma)

    if params.a3 > 0:
        # F1 -> +inf: a crossing always exists; find S past it
        S = 2.0 * crits[-1] if crits else 1.0
        S = max(S, 1.0)
        fS = phi(S)
        grow = 0
        while fS >= 0.0 and grow < 600:
            S *= 2.0
            fS = phi(S)
            grow += 1
        if fS >= 0.0:
            return None
        pts = [0.0] + [c for c in crits if c < S] + [S]
    else:
        # F1 -> -inf: a crossing needs max F1 >= omega
        if not crits:
            return None
        vals = [omega - phi(c) for c in crits]
        k = max(range(len(crits)), key=lambda i: vals[i])
        peak_s, peak_v = crits[k], vals[k]
        scale = abs(omega) + abs(peak_v)
        if peak_v < omega - _TOUCH_TOL * (1.0 + scale):
            return None
        if abs(peak_v - omega) <= _TOUCH_TOL * (1.0 + scale):
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
            scale = abs(omega) + abs(cp) * hi ** ep + abs(cq) * hi ** eq \
                + abs(cr) * hi ** er
            if abs(f_hi) <= _TOUCH_TOL * (1.0 + scale):
                return hi
        if f_hi == 0.0 or (f_hi > 0.0) != (f_prev > 0.0):
            root = hi if f_hi == 0.0 else _bisect(phi, lo, hi, f_prev, f_hi)
            if root is None:
                return None
            # Newton polish; bisection already has ~1e-15 relative accuracy
            s = root
            for _ in range(8):
                fv = phi(s)
                dv = phi_prime(s)
                if dv == 0.0 or not math.isfinite(dv):
                    break
                s_new = s - fv / dv
                if s_new <= 0.0 or not math.isfinite(s_new):
                    break
                done = abs(s_new - s) <= 1e-16 * s
                s = s_new
                if done:
                    break
            return s
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
