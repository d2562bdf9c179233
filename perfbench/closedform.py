"""The nonexistence curve in closed form, written out apart from tristab.

Solving U(a) = U'(a) = 0 for (omega, gamma) gives the paper's
parameterization of the curve by the double zero a:

    omega_ne(a) = 2 s1 (q-p) / ((q-1)(p+1)) a^{(p-1)/2}
                  - 2 s3 (r-q) / ((q-1)(r+1)) a^{(r-1)/2}
    gamma_ne(a) = (q+1)/(q-1) (s1 (p-1)/(p+1) a^{(p-q)/2}
                               + s3 (r-1)/(r+1) a^{(r-q)/2})

gamma_ne decreases on the valid a-range, FF (0, a#], FD (0, inf) and
DD (a_b, inf); DF has no curve.  Pure Python, so the timed process loads
nothing beyond what the program itself loads.
"""

from __future__ import annotations

import math


def curve_point(p, q, r, s1, s3, a):
    """(omega_ne(a), gamma_ne(a))."""
    omega = (2.0 * s1 * (q - p) / ((q - 1.0) * (p + 1.0)) * a ** ((p - 1.0) / 2.0)
             - 2.0 * s3 * (r - q) / ((q - 1.0) * (r + 1.0)) * a ** ((r - 1.0) / 2.0))
    gamma = (q + 1.0) / (q - 1.0) * (
        s1 * (p - 1.0) / (p + 1.0) * a ** ((p - q) / 2.0)
        + s3 * (r - 1.0) / (r + 1.0) * a ** ((r - q) / 2.0))
    return omega, gamma


def curve_a_range(p, q, r, s1, s3):
    """(lo, hi) of the valid a-range, or None for DF."""
    if (s1, s3) == (1, 1):
        return 0.0, ((q - p) * (p - 1.0) * (r + 1.0)
                     / ((r - q) * (r - 1.0) * (p + 1.0))) ** (2.0 / (r - p))
    if (s1, s3) == (1, -1):
        return 0.0, math.inf
    if (s1, s3) == (-1, -1):
        return ((q - p) * (r + 1.0) / ((r - q) * (p + 1.0))) ** (2.0 / (r - p)), math.inf
    return None


def curve_omega(p, q, r, s1, s3, gamma):
    """omega on the curve at this gamma, or None when the curve does not
    reach gamma (FF below gamma1, DD at or above gamma1, DF always)."""
    rng = curve_a_range(p, q, r, s1, s3)
    if rng is None:
        return None
    lo, hi = rng

    def excess(a):
        return curve_point(p, q, r, s1, s3, a)[1] - gamma

    if lo == 0.0:
        lo = min(hi, 1.0)
        while excess(lo) < 0.0:
            lo *= 0.5
            if lo < 1e-250:
                return None
    if math.isinf(hi):
        hi = 2.0 * max(lo, 0.5)
        while excess(hi) > 0.0:
            hi *= 2.0
            if hi > 1e250:
                return None
    if excess(hi) > 0.0 or excess(lo) < 0.0:
        return None
    for _ in range(200):          # excess(lo) >= 0 >= excess(hi)
        mid = math.sqrt(lo * hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if excess(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return curve_point(p, q, r, s1, s3, 0.5 * (lo + hi))[0]


def wave_exists(p, q, r, s1, s3, omega, gamma):
    """Existence by the curve: FF and DF waves exist at every omega > 0;
    FD and DD waves exist exactly below the curve frequency."""
    if s3 == 1:
        return True
    w = curve_omega(p, q, r, s1, s3, gamma)
    return w is not None and omega < w
