"""Energy landscape of the profile equation.

With s = phi^2 the once-integrated profile ODE reads (phi')^2 = U(phi^2) with

    U(s) = omega*s - (2 a1/(p+1)) s^{(p+1)/2} + (2 gamma/(q+1)) s^{(q+1)/2}
           - (2 a3/(r+1)) s^{(r+1)/2},

and the factored form U(s) = s (omega - F1(s)) where F1 is the amplitude
function.  The slope integrand of the stability functional is N / D^{3/2}
built from the pieces A_l(a, s).  Everything in this module is pure
closed-form evaluation with derivatives coded term by term; root finding
lives in the profile module.

All evaluators accept scalars or numpy arrays in s and broadcast.
"""

from __future__ import annotations

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


def eval_F1(params: NonlinearityParams, gamma: float, s):
    """F1(s) = (2a1/(p+1)) s^{(p-1)/2} - (2g/(q+1)) s^{(q-1)/2} + (2a3/(r+1)) s^{(r-1)/2}."""
    p, q, r = params.p, params.q, params.r
    s = np.asarray(s, dtype=float)
    out = (2.0 * params.a1 / (p + 1.0) * s ** ((p - 1.0) / 2.0)
           - 2.0 * gamma / (q + 1.0) * s ** ((q - 1.0) / 2.0)
           + 2.0 * params.a3 / (r + 1.0) * s ** ((r - 1.0) / 2.0))
    return float(out) if out.ndim == 0 else out


def u_value(params: NonlinearityParams, omega: float, gamma: float, s):
    """U(s); vectorized."""
    p, q, r = params.p, params.q, params.r
    s = np.asarray(s, dtype=float)
    out = (omega * s
           - 2.0 * params.a1 / (p + 1.0) * s ** ((p + 1.0) / 2.0)
           + 2.0 * gamma / (q + 1.0) * s ** ((q + 1.0) / 2.0)
           - 2.0 * params.a3 / (r + 1.0) * s ** ((r + 1.0) / 2.0))
    return float(out) if out.ndim == 0 else out


def u_prime(params: NonlinearityParams, omega: float, gamma: float, s):
    """U'(s) = omega - a1 s^{(p-1)/2} + g s^{(q-1)/2} - a3 s^{(r-1)/2}; vectorized."""
    p, q, r = params.p, params.q, params.r
    s = np.asarray(s, dtype=float)
    out = (omega
           - params.a1 * s ** ((p - 1.0) / 2.0)
           + gamma * s ** ((q - 1.0) / 2.0)
           - params.a3 * s ** ((r - 1.0) / 2.0))
    return float(out) if out.ndim == 0 else out


def u_second(params: NonlinearityParams, gamma: float, s):
    """U''(s) for s > 0; at s = 0 the one-sided limit (infinite when p < 3).

    omega does not enter.  The sign of U'' at the double zero is what
    classifies points of the nonexistence curve, so this is kept exact
    term by term.
    """
    p, q, r = params.p, params.q, params.r
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s_arr)
    pos = s_arr > 0
    sp = s_arr[pos]
    out[pos] = (-params.a1 * (p - 1.0) / 2.0 * sp ** ((p - 3.0) / 2.0)
                + gamma * (q - 1.0) / 2.0 * sp ** ((q - 3.0) / 2.0)
                - params.a3 * (r - 1.0) / 2.0 * sp ** ((r - 3.0) / 2.0))
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


def eval_A(l: float, a: float, s):
    """A_l(a, s) = (1 - s^{(l-1)/2}) / (l+1) * a^{(l-1)/2} for s in [0, 1].

    Nonnegative, and zero exactly at s = 1.
    """
    if l <= 1.0:
        raise ValueError("need exponent l > 1")
    if a <= 0.0:
        raise ValueError("need amplitude a > 0")
    e = (l - 1.0) / 2.0
    s = np.asarray(s, dtype=float)
    out = (1.0 - s ** e) / (l + 1.0) * a ** e
    return float(out) if out.ndim == 0 else out


def eval_ND(params: NonlinearityParams, gamma: float, a: float, s):
    """Numerator and denominator base of the transformed slope integrand.

    N(a,s) = a1 (5-p) A_p - gamma (5-q) A_q + a3 (5-r) A_r
    D(a,s) = a1 A_p       - gamma A_q       + a3 A_r

    When a is the first zero of U, the identity 2*a*s*D(a,s) = U(a*s) makes
    D positive on [0, 1).  Returns the pair (N, D), vectorized over s.
    """
    p, q, r = params.p, params.q, params.r
    Ap = eval_A(p, a, s)
    Aq = eval_A(q, a, s)
    Ar = eval_A(r, a, s)
    N = (params.a1 * (5.0 - p) * Ap
         - gamma * (5.0 - q) * Aq
         + params.a3 * (5.0 - r) * Ar)
    D = params.a1 * Ap - gamma * Aq + params.a3 * Ar
    return N, D
