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
gamma_ne inverts by a bracketed solve; omega_star(gamma) is omega_ne at
that a.  The solve is ``signs.bisect`` (Anderson-Bjorck false position) on
gamma_ne(a) - gamma, which evaluates gamma_ne alone, from the lower end of
the a-range (0 or a_b) to its upper end, a_sharp in the FF case and
otherwise ``signs.grow``'s doubling; omega_ne is evaluated once, at the
root.  The solve runs until its bracket's ends are adjacent floats and
returns the one nearer the root in gamma, so omega_star is off by a few
ulps times its condition number in gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import NotOnCurve
from .model import NonlinearityParams
from .signs import bisect, grow


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled curve: (a, omega_ne, gamma_ne) triples with the endpoints."""

    samples: tuple
    endpoint_a: Optional[float]
    gamma1: Optional[float]


def gamma_omega_ne(params: NonlinearityParams, a: float) -> Tuple[float, float]:
    """Closed-form (omega_ne(a), gamma_ne(a)) for a > 0."""
    if not a > 0.0:
        raise ValueError("need a > 0")
    p, q, r = params.p, params.q, params.r
    a1, a3 = params.a1, params.a3
    omega_ne = (2.0 * a1 * (q - p) / ((q - 1.0) * (p + 1.0)) * a ** ((p - 1.0) / 2.0)
                - 2.0 * a3 * (r - q) / ((q - 1.0) * (r + 1.0)) * a ** ((r - 1.0) / 2.0))
    return omega_ne, _gamma_ne(params)(a)


def _gamma_ne(params: NonlinearityParams):
    """gamma_ne as a function of a, the half of the curve omega_star
    inverts.  Its constants are computed once, in the order the written-out
    closed form evaluates them, so each value is unchanged bit for bit."""
    p, q, r = params.p, params.q, params.r
    k = (q + 1.0) / (q - 1.0)
    cp, ep = params.a1 * (p - 1.0) / (p + 1.0), (p - q) / 2.0
    cr, er = params.a3 * (r - 1.0) / (r + 1.0), (r - q) / 2.0
    return lambda a: k * (cp * a ** ep + cr * a ** er)


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
    case (FF: gamma >= gamma1; FD: any gamma; DD: gamma < gamma1) or in the
    DF case, which has no curve.
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

    gamma_ne = _gamma_ne(params)

    def f(a: float) -> float:
        return gamma_ne(a) - gamma

    # gamma_ne falls from +inf at a -> 0 (FF, FD) or from gamma1 at a_b (DD)
    lo = endpoint_a if case == "DD" else 0.0
    flo = f(lo) if lo > 0.0 else 1.0
    bracket = ((endpoint_a, f(endpoint_a)) if case == "FF"
               else grow(f, lo, flo))
    if bracket is None:
        raise NotOnCurve("failed to bracket gamma = %g" % gamma)
    hi, fhi = bracket
    return gamma_omega_ne(params, bisect(f, lo, hi, flo, fhi))[0]


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
    if not (0.0 < lo <= hi):
        raise ValueError("invalid a-range [%g, %g]" % (lo, hi))
    samples = []
    for k in range(n):
        t = k / (n - 1.0) if n > 1 else 0.0
        a = lo * (hi / lo) ** t
        om, ga = gamma_omega_ne(params, a)
        samples.append((a, om, ga))
    return BoundaryCurve(samples=tuple(samples), endpoint_a=endpoint_a,
                         gamma1=gamma1)
