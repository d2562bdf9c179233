"""Energy landscape of the profile equation.

With s = phi^2 the once-integrated profile ODE reads (phi')^2 = U(phi^2) with

    U(s) = omega*s - (2 a1/(p+1)) s^{(p+1)/2} + (2 gamma/(q+1)) s^{(q+1)/2}
           - (2 a3/(r+1)) s^{(r+1)/2},

and the factored form U(s) = s (omega - F1(s)) where F1 is the amplitude
function.  The slope integrand of the stability functional is N / D^{3/2}
built from the pieces A_l(a, s).  Everything in this module is pure
closed-form evaluation with derivatives coded term by term; root finding
lives in the profile module.

``terms(params, gamma)`` is the one home of these closed forms: it holds
the exponents e_l = (l-1)/2 and the coefficient triples of F1, U' - omega,
N and D, and the root finder, the J integrands and the evaluators below all
read them from it.  Evaluation keeps the float type of s: Python floats go
through Python's ``**`` and arrays through numpy's ``power``, which differ
in the last bit on some inputs, so ``power_sum`` never converts its
argument.  The public evaluators take scalars or numpy arrays in s,
broadcast, and pass s through np.asarray on entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import NonlinearityParams


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
    sum n_l a^{e_l} (1 - s^{e_l}) and the same with d_l.
    """

    e: tuple
    eu: tuple
    f1: tuple
    up: tuple
    n: tuple
    d: tuple

    def nd_row(self, powers) -> tuple:
        """The N then the D coefficients of 1 - s^{e_l} at the powers
        a^{e_l} of amplitude a."""
        return (tuple(c * x for c, x in zip(self.n, powers))
                + tuple(c * x for c, x in zip(self.d, powers)))


@functools.lru_cache(maxsize=256, typed=True)
def terms(params: NonlinearityParams, gamma: float) -> Terms:
    """The term table at (params, gamma), cached: a sweep row shares one.

    typed keeps a numpy gamma's table apart, so its coefficients stay numpy
    scalars as an inline expression in that gamma would make them.
    """
    p, q, r = params.p, params.q, params.r
    a1, a3 = params.a1, params.a3
    return Terms(
        e=((p - 1.0) / 2.0, (q - 1.0) / 2.0, (r - 1.0) / 2.0),
        # not e + 1, which rounds differently for some exponents
        eu=((p + 1.0) / 2.0, (q + 1.0) / 2.0, (r + 1.0) / 2.0),
        f1=(2.0 * a1 / (p + 1.0), -2.0 * gamma / (q + 1.0),
            2.0 * a3 / (r + 1.0)),
        up=(-a1, gamma, -a3),
        n=(a1 * (5.0 - p) / (p + 1.0), -gamma * (5.0 - q) / (q + 1.0),
           a3 * (5.0 - r) / (r + 1.0)),
        d=(a1 / (p + 1.0), -gamma / (q + 1.0), a3 / (r + 1.0)),
    )


def power_sum(c, e, s, lead=None):
    """lead + c_0 s^{e_0} + c_1 s^{e_1} + c_2 s^{e_2}, summed left to right
    in the type of s."""
    out = c[0] * s ** e[0]
    if lead is not None:
        out = lead + out
    return out + c[1] * s ** e[1] + c[2] * s ** e[2]


def _scalar(out):
    return float(out) if out.ndim == 0 else out


def eval_F1(params: NonlinearityParams, gamma: float, s):
    """F1(s) = (2a1/(p+1)) s^{(p-1)/2} - (2g/(q+1)) s^{(q-1)/2} + (2a3/(r+1)) s^{(r-1)/2}."""
    t = terms(params, gamma)
    return _scalar(power_sum(t.f1, t.e, np.asarray(s, dtype=float)))


def u_value(params: NonlinearityParams, omega: float, gamma: float, s):
    """U(s); vectorized."""
    t = terms(params, gamma)
    s = np.asarray(s, dtype=float)
    return _scalar(power_sum([-c for c in t.f1], t.eu, s, lead=omega * s))


def u_prime(params: NonlinearityParams, omega: float, gamma: float, s):
    """U'(s) = omega - a1 s^{(p-1)/2} + g s^{(q-1)/2} - a3 s^{(r-1)/2}; vectorized."""
    t = terms(params, gamma)
    return _scalar(power_sum(t.up, t.e, np.asarray(s, dtype=float),
                             lead=omega))


def u_second(params: NonlinearityParams, gamma: float, s):
    """U''(s) for s > 0; at s = 0 the one-sided limit (infinite when p < 3).

    omega does not enter.  The sign of U'' at the double zero is what
    classifies points of the nonexistence curve, so this is kept exact
    term by term.
    """
    t = terms(params, gamma)
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s_arr)
    pos = s_arr > 0
    out[pos] = power_sum([c * e for c, e in zip(t.up, t.e)],
                         [(l - 3.0) / 2.0 for l in (params.p, params.q,
                                                    params.r)],
                         s_arr[pos])
    if np.any(~pos):
        out[~pos] = _u_second_at_zero(params)
    return float(out[0]) if scalar else out


def _u_second_at_zero(params: NonlinearityParams) -> float:
    # leading term as s -> 0+ is the p-power one; q and r powers vanish faster
    p = params.p
    if p < 3.0:
        return -math.inf if params.a1 > 0 else math.inf
    if p == 3.0:
        return -params.a1 * (p - 1.0) / 2.0
    return 0.0


def eval_U(params: NonlinearityParams, omega: float, gamma: float, s) -> LandscapeEval:
    """U, U', U'' bundled at a single point s >= 0."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    s = float(s)
    if s < 0:
        raise ValueError("s must be nonnegative")
    return LandscapeEval(
        value=u_value(params, omega, gamma, s),
        first_deriv=u_prime(params, omega, gamma, s),
        second_deriv=u_second(params, gamma, s),
    )


def eval_ND(params: NonlinearityParams, gamma: float, a: float, s):
    """Numerator and denominator base of the transformed slope integrand.

    N(a,s) = a1 (5-p) A_p - gamma (5-q) A_q + a3 (5-r) A_r
    D(a,s) = a1 A_p       - gamma A_q       + a3 A_r

    When a is the first zero of U, the identity 2*a*s*D(a,s) = U(a*s) makes
    D positive on [0, 1).  Returns the pair (N, D), vectorized over s, from
    the coefficient rows the J integrand uses.
    """
    if a <= 0.0:
        raise ValueError("need amplitude a > 0")
    t = terms(params, gamma)
    s = np.asarray(s, dtype=float)
    row = t.nd_row([a ** e for e in t.e])
    E = [1.0 - s ** e for e in t.e]
    N = row[0] * E[0] + row[1] * E[1] + row[2] * E[2]
    D = row[3] * E[0] + row[4] * E[1] + row[5] * E[2]
    return _scalar(N), _scalar(D)
