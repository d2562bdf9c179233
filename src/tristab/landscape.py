"""Energy landscape of the profile equation.

With s = phi^2 the once-integrated profile ODE reads (phi')^2 = U(phi^2) with

    U(s) = omega*s - (2 a1/(p+1)) s^{(p+1)/2} + (2 gamma/(q+1)) s^{(q+1)/2}
           - (2 a3/(r+1)) s^{(r+1)/2},

and the factored form U(s) = s (omega - F1(s)) where F1 is the amplitude
function.  The slope integrand of the stability functional is N / D^{3/2}
built from the pieces A_l(a, s).  Everything in this module is pure
closed-form evaluation with derivatives coded term by term; the amplitude
a is found in the profile module.

``terms(params, gamma)`` is the one home of these closed forms: it holds
the exponents e_l = (l-1)/2, the coefficient triples of F1, U' - omega,
N and D, and F1's critical points and local maxima, which do not depend on
omega.  The root finder, ``boundary.omega_star``, the J integrands and the
evaluators below all read them from it, one cached table per
(params, gamma).  Evaluation keeps the float type of s: Python floats go
through Python's ``**`` and arrays through numpy's ``power``, which differ
in the last bit on some inputs, so ``power_sum`` never converts its
argument.  ``eval_U`` takes one point and sums U, U' and U'' as Python
floats, as the profile module sums U'(a), so its U'(a) is the solver's;
``eval_F1`` takes a scalar the same way and a numpy array through numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import NonlinearityParams
from .signs import roots


@dataclass(frozen=True)
class LandscapeEval:
    """U and its first two s-derivatives at a single point."""

    value: float
    first_deriv: float
    second_deriv: float


@dataclass(frozen=True)
class Terms:
    """Exponents and coefficients of the closed forms at one (params, gamma).

    Entry l of each triple belongs to the p, q and r power in turn.
    F1(s) = sum f1_l s^{e_l}, U'(s) = omega + sum up_l s^{e_l} and
    U(s) = omega s - sum f1_l s^{eu_l}.  N(a, s) and D(a, s) are
    sum n_l a^{e_l} (1 - s^{e_l}) and the same with d_l.  crits holds F1's
    positive critical points, ascending, at most two, and maxima
    (c, F1(c), sum |f1_l| c^{e_l}, F1''(c)) at each local maximum c, the
    critical points with F1''(c) < 0, ascending.
    """

    e: tuple
    eu: tuple
    f1: tuple
    up: tuple
    n: tuple
    d: tuple
    crits: tuple
    maxima: tuple


@functools.lru_cache(maxsize=256)
def terms(params: NonlinearityParams, gamma: float) -> Terms:
    """The term table at (params, gamma), cached: a sweep row shares one.

    It is built from float(gamma), so equal numpy and Python gammas share
    one table of Python floats.
    """
    p, q, r = params.p, params.q, params.r
    a1, a3, gamma = params.a1, params.a3, float(gamma)
    e = ((p - 1.0) / 2.0, (q - 1.0) / 2.0, (r - 1.0) / 2.0)
    f1 = (2.0 * a1 / (p + 1.0), -2.0 * gamma / (q + 1.0), 2.0 * a3 / (r + 1.0))
    crits = tuple(roots([(c * x, x - 1.0) for c, x in zip(f1, e)
                         if c != 0.0], math.inf))
    maxima = []
    for c in crits:
        try:
            fc = [f * c ** x for f, x in zip(f1, e)]  # F1's terms at c
        except OverflowError:
            break  # F1's terms overflow: no computed a lies past c
        # c^2 F1''(c), which has the sign of F1''(c)
        if (curvature := sum(t * x * (x - 1.0) for t, x in zip(fc, e))) < 0:
            maxima.append((c, sum(fc), sum(map(abs, fc)), curvature / c / c))
    return Terms(
        e=e,
        # not e + 1, which rounds differently for some exponents
        eu=((p + 1.0) / 2.0, (q + 1.0) / 2.0, (r + 1.0) / 2.0),
        f1=f1,
        up=(-a1, gamma, -a3),
        n=(a1 * (5.0 - p) / (p + 1.0), -gamma * (5.0 - q) / (q + 1.0),
           a3 * (5.0 - r) / (r + 1.0)),
        d=(a1 / (p + 1.0), -gamma / (q + 1.0), a3 / (r + 1.0)),
        crits=crits,
        maxima=tuple(maxima),
    )


def power_sum(c, e, s, lead=None):
    """lead + c_0 s^{e_0} + c_1 s^{e_1} + c_2 s^{e_2}, summed left to right
    in the type of s."""
    out = c[0] * s ** e[0]
    if lead is not None:
        out = lead + out
    return out + c[1] * s ** e[1] + c[2] * s ** e[2]


def eval_F1(params: NonlinearityParams, gamma: float, s):
    """F1(s) = (2a1/(p+1)) s^{(p-1)/2} - (2g/(q+1)) s^{(q-1)/2} + (2a3/(r+1)) s^{(r-1)/2}.

    A scalar s >= 0 is summed as a Python float, an array through numpy.
    """
    t = terms(params, gamma)
    if np.ndim(s) == 0:
        s = float(s)
        if s < 0:
            raise ValueError("s must be nonnegative")
        return power_sum(t.f1, t.e, s)
    return power_sum(t.f1, t.e, np.asarray(s, dtype=float))


def _u_second_at_zero(params: NonlinearityParams) -> float:
    # leading term as s -> 0+ is the p-power one; q and r powers vanish faster
    p = params.p
    if p < 3.0:
        return -math.inf if params.a1 > 0 else math.inf
    if p == 3.0:
        return -params.a1 * (p - 1.0) / 2.0
    return 0.0


def eval_U(params: NonlinearityParams, omega: float, gamma: float, s) -> LandscapeEval:
    """U, U', U'' at a single point s >= 0, summed as Python floats.

    U'' at s = 0 is the one-sided limit (infinite when p < 3).  omega does
    not enter U''; its sign at the double zero is what classifies points
    of the nonexistence curve, so it is kept exact term by term.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    s = float(s)
    if s < 0:
        raise ValueError("s must be nonnegative")
    t = terms(params, gamma)
    if s > 0.0:
        upp = power_sum([c * e for c, e in zip(t.up, t.e)],
                        [(l - 3.0) / 2.0 for l in (params.p, params.q,
                                                   params.r)], s)
    else:
        upp = _u_second_at_zero(params)
    return LandscapeEval(
        value=power_sum([-c for c in t.f1], t.eu, s, lead=omega * s),
        first_deriv=power_sum(t.up, t.e, s, lead=omega),
        second_deriv=upp,
    )
