"""The nonexistence curve: parameterization, endpoints, and inversion.

The curve consists of the (omega, gamma) pairs at which U has a degenerate
(double) first zero a.  Solving U(a) = U'(a) = 0 for omega and gamma in terms
of a gives closed forms

    omega_ne(a) = 2 a1 (q-p) / ((q-1)(p+1)) * a^{(p-1)/2}
                  - 2 a3 (r-q) / ((q-1)(r+1)) * a^{(r-1)/2}
    gamma_ne(a) = (q+1)/(q-1) * ( a1 (p-1)/(p+1) * a^{(p-q)/2}
                                  + a3 (r-1)/(r+1) * a^{(r-q)/2} )

valid on an a-range that depends on the sign case:

    FF: (0, a_sharp] with a_sharp^{(r-p)/2} = (q-p)(p-1)(r+1)/((r-q)(r-1)(p+1))
    FD: (0, inf)
    DF: empty (waves exist everywhere)
    DD: (a_b, inf) with a_b^{(r-p)/2} = (q-p)(r+1)/((r-q)(p+1))

On the valid range omega_ne is increasing and gamma_ne is decreasing, so
each gamma on the curve has one a: a critical point of F1 at gamma, since
U'(a) = -a F1'(a) wherever F1(a) = omega; the first in the FF case, the
peak of F1 otherwise.  omega_star reads it from the cached term table
``landscape.terms`` that ``find_a`` reads too, and returns
omega_ne there, plus the first-order step along the curve,
d omega / d gamma = -2 a^{(q-1)/2} / (q+1), where gamma_ne(a) misses gamma
by more than round-off.  It is off by a few ulps times its condition
number in gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import NotOnCurve
from .landscape import terms
from .model import NonlinearityParams


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled curve: (a, omega_ne, gamma_ne) triples with the endpoints."""

    samples: tuple
    endpoint_a: Optional[float]
    gamma1: Optional[float]


def gamma_omega_ne(params: NonlinearityParams, a: float) -> Tuple[float, float]:
    """Closed-form (omega_ne(a), gamma_ne(a)) for 0 < a < inf."""
    if not 0.0 < a < math.inf:
        raise ValueError("need 0 < a < inf")
    p, q, r = params.p, params.q, params.r
    a1, a3 = params.a1, params.a3
    omega_ne = (2.0 * a1 * (q - p) / ((q - 1.0) * (p + 1.0)) * a ** ((p - 1.0) / 2.0)
                - 2.0 * a3 * (r - q) / ((q - 1.0) * (r + 1.0)) * a ** ((r - 1.0) / 2.0))
    gamma_ne = (q + 1.0) / (q - 1.0) * (
        a1 * (p - 1.0) / (p + 1.0) * a ** ((p - q) / 2.0)
        + a3 * (r - 1.0) / (r + 1.0) * a ** ((r - q) / 2.0))
    return omega_ne, gamma_ne


def endpoints(params: NonlinearityParams):
    """(endpoint_a, gamma1, valid a-range description) for the case.

    FF: endpoint a_sharp closes the range (0, a_sharp]; gamma1 = gamma_ne
    there is the smallest gamma on the curve.  DD: a_b opens the range
    (a_b, inf); omega_ne(a_b) = 0 and gamma1 = gamma_ne(a_b) is the largest
    gamma on the curve.  FD has the full range and no endpoint; DF has no
    curve at all.
    """
    p, q, r = params.p, params.q, params.r
    case = params.case
    if case == "FF":
        a_sharp = ((q - p) * (p - 1.0) * (r + 1.0)
                   / ((r - q) * (r - 1.0) * (p + 1.0))) ** (2.0 / (r - p))
        _, gamma1 = gamma_omega_ne(params, a_sharp)
        return a_sharp, gamma1, "(0, a_sharp]"
    if case == "FD":
        return None, None, "(0, inf)"
    if case == "DF":
        return None, None, "empty"
    a_b = ((q - p) * (r + 1.0) / ((r - q) * (p + 1.0))) ** (2.0 / (r - p))
    _, gamma1 = gamma_omega_ne(params, a_b)
    return a_b, gamma1, "(a_b, inf)"


def omega_star(params: NonlinearityParams, gamma: float) -> float:
    """The curve frequency above gamma: omega_ne at the a with gamma_ne(a) = gamma.

    Raises NotOnCurve when gamma is outside the admissible range for the
    case (FF: gamma >= gamma1; FD: any gamma; DD: gamma < gamma1), in the
    DF case, which has no curve, and where F1 has no critical point in
    floats (FD far out in gamma).
    """
    case = params.case
    if case == "DF":
        raise NotOnCurve("the DF case has no nonexistence curve")
    endpoint_a, gamma1, _ = endpoints(params)
    if case == "FF" and gamma < gamma1:
        raise NotOnCurve("gamma below the curve endpoint value %g" % gamma1)
    if case == "DD" and gamma >= gamma1:
        raise NotOnCurve("gamma at or above the curve endpoint value %g"
                         % gamma1)

    crits = terms(params, gamma).crits
    if case == "FF":
        # at gamma1 the two critical points merge, and may round to none
        a = crits[0] if crits else endpoint_a
    elif crits:
        a = crits[-1]
    else:
        raise NotOnCurve("F1 has no critical point at gamma = %g" % gamma)
    omega_ne, gamma_ne = gamma_omega_ne(params, a)
    if abs(gamma_ne - gamma) > 2.0 * math.ulp(gamma):
        # a is off by more than gamma_ne's round-off: step along the curve,
        # whose slope d omega / d gamma is -2 a^{(q-1)/2} / (q+1)
        q = params.q
        omega_ne += (gamma_ne - gamma) * 2.0 * a ** ((q - 1.0) / 2.0) / (q + 1.0)
    return omega_ne


def sample_curve(params: NonlinearityParams, n: int = 200,
                 a_min: Optional[float] = None,
                 a_max: Optional[float] = None) -> BoundaryCurve:
    """Geometrically spaced curve samples over the valid a-range.

    Default windows: FF covers (a_sharp/100, a_sharp], FD covers
    [0.01, 50], DD covers (a_b, 50 a_b].  DF returns an empty curve.
    The FD cap keeps the closed forms well inside the 1e-10 consistency
    tolerance; far beyond it the term cancellation in U' approaches that
    size in double precision.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    endpoint_a, gamma1, rng = endpoints(params)
    case = params.case
    if case == "DF":
        return BoundaryCurve(samples=(), endpoint_a=None, gamma1=None)
    if case == "FF":
        hi = endpoint_a if a_max is None else min(a_max, endpoint_a)
        lo = hi / 100.0 if a_min is None else a_min
    elif case == "FD":
        lo = 0.01 if a_min is None else a_min
        hi = 50.0 if a_max is None else a_max
    else:  # DD: open at a_b
        lo = endpoint_a * (1.0 + 1e-9) if a_min is None else max(a_min, endpoint_a * (1.0 + 1e-12))
        hi = endpoint_a * 50.0 if a_max is None else a_max
    if not (0.0 < lo <= hi < math.inf):
        raise ValueError("invalid a-range [%g, %g]" % (lo, hi))
    samples = []
    for k in range(n):
        t = k / (n - 1.0) if n > 1 else 0.0
        a = lo * (hi / lo) ** t
        om, ga = gamma_omega_ne(params, a)
        samples.append((a, om, ga))
    return BoundaryCurve(samples=tuple(samples), endpoint_a=endpoint_a,
                         gamma1=gamma1)
