"""Beta-family special functions coded in-repo.

Everything reduces to the standard library's ``math.lgamma`` and a
digamma built from the shift recurrence plus the asymptotic series, so no
external special-function dependency is needed.  On top of those sit the
Beta function, its partial derivative in the first argument, the H
combination

    H(x, y) = integral_0^1 t^{x-1} (1 - t^y) / (1-t)^{3/2} dt
            = -(2x - 1) B(x, 1/2) + (2x + 2y - 1) B(x + y, 1/2),

the closed form of the two-power integral, and the derivative bounds

    -(1/(2b)) B(b+1/2, 1/2) < dB/dx (b+1/2, 1/2) < -(1/(2b+1)) B(b+1/2, 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BetaDerivBounds:
    """Strict lower/upper bounds for dB/dx at (b + 1/2, 1/2)."""

    lower: float
    upper: float


def digamma(x: float) -> float:
    """psi(x) for x > 0: recurrence up to x >= 6, then asymptotic series."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # psi(x) ~ ln x - 1/(2x) - sum B_{2n} / (2n x^{2n})
    series = inv2 * (1.0 / 12.0
                     - inv2 * (1.0 / 120.0
                               - inv2 * (1.0 / 252.0
                                         - inv2 * (1.0 / 240.0
                                                   - inv2 * (1.0 / 132.0
                                                             - inv2 * (691.0 / 32760.0
                                                                       - inv2 / 12.0))))))
    return acc + math.log(x) - 0.5 * inv - series


def beta_fn(x: float, y: float) -> float:
    """Euler Beta B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), x, y > 0."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("beta_fn requires x > 0 and y > 0")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def dbeta_dx(x: float, y: float) -> float:
    """Partial derivative of B in its first argument: B(x,y)(psi(x)-psi(x+y))."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("dbeta_dx requires x > 0 and y > 0")
    return beta_fn(x, y) * (digamma(x) - digamma(x + y))


def h_fn(x: float, y: float) -> float:
    """H(x, y) via the Beta-combination closed form."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("h_fn requires x > 0 and y > 0")
    return (-(2.0 * x - 1.0) * beta_fn(x, 0.5)
            + (2.0 * x + 2.0 * y - 1.0) * beta_fn(x + y, 0.5))


def two_power_integral(p: float, q: float) -> float:
    """Closed form 2 (7-2p-q)/(q-p) B((7-3p)/(2(q-p)), 1/2).

    Equals the integral over (0, 1) of

        [-(5-p)(1 - s^{(p-1)/2}) + (5-q)(1 - s^{(q-1)/2})]
            / (s^{(p-1)/2} - s^{(q-1)/2})^{3/2} ds,

    which converges only for p < 7/3; vanishes exactly on 2p + q = 7.
    """
    if not (1.0 < p < q):
        raise ValueError("need 1 < p < q")
    if p >= 7.0 / 3.0:
        raise ValueError("two_power_integral requires p < 7/3")
    factor = 7.0 - 2.0 * p - q
    if factor == 0.0:
        return 0.0
    return (2.0 * factor / (q - p)
            * beta_fn((7.0 - 3.0 * p) / (2.0 * (q - p)), 0.5))


def beta_deriv_bounds(b: float) -> BetaDerivBounds:
    """Strict bounds enclosing dbeta_dx(b + 1/2, 1/2) for b > 0."""
    if b <= 0.0:
        raise ValueError("beta_deriv_bounds requires b > 0")
    base = beta_fn(b + 0.5, 0.5)
    return BetaDerivBounds(lower=-base / (2.0 * b),
                           upper=-base / (2.0 * b + 1.0))
