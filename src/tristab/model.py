"""Normalized triple-power nonlinearity and the scaling reduction.

The nonlinearity f(u) = a1|u|^{p-1}u + a2|u|^{q-1}u + a3|u|^{r-1}u with
1 < p < q < r is reduced by an amplitude/length rescaling to coefficients
(b, c, d) with |b| = |d| = 1.  The middle coefficient becomes -gamma, so a
parameter point is (omega, gamma) plus the two outer signs.  The sign pair
names one of four cases: FF, FD, DF, DD (focusing/defocusing lowest and
highest power).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_CASES = {(1, 1): "FF", (1, -1): "FD", (-1, 1): "DF", (-1, -1): "DD"}


def classify_case(sign1: int, sign3: int) -> str:
    """Map the outer-coefficient sign pair to its case label."""
    try:
        return _CASES[(int(sign1), int(sign3))]
    except (KeyError, ValueError, TypeError):
        raise ValueError("signs must be +1 or -1, got (%r, %r)" % (sign1, sign3))


@dataclass(frozen=True)
class NonlinearityParams:
    """Exponents (p, q, r) and outer signs of the normalized nonlinearity.

    Its hash, the dataclass's own, is computed once: the cached term
    table is keyed on the params, once per amplitude solve.
    """

    p: float
    q: float
    r: float
    sign1: int = 1
    sign3: int = 1

    def __post_init__(self):
        p, q, r = float(self.p), float(self.q), float(self.r)
        if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(r)):
            raise ValueError("exponents must be finite")
        if not (1.0 < p < q < r):
            raise ValueError("exponents must satisfy 1 < p < q < r, got "
                             "(%g, %g, %g)" % (p, q, r))
        classify_case(self.sign1, self.sign3)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "sign1", int(self.sign1))
        object.__setattr__(self, "sign3", int(self.sign3))
        object.__setattr__(self, "_hash", hash((p, q, r, self.sign1,
                                                self.sign3)))

    def __hash__(self):
        return self._hash

    @property
    def a1(self) -> float:
        return float(self.sign1)

    @property
    def a3(self) -> float:
        return float(self.sign3)

    @property
    def case(self) -> str:
        return classify_case(self.sign1, self.sign3)


@dataclass(frozen=True)
class ScalingReduction:
    """Result of normalizing raw coefficients (a1, a2, a3)."""

    kappa: float
    lam: float
    normalized: NonlinearityParams
    gamma: float


def normalize(a1: float, a2: float, a3: float,
              p: float, q: float, r: float) -> ScalingReduction:
    """Rescale amplitude and length so the outer coefficients have modulus 1.

    kappa = |a1/a3|^{1/(r-p)} and lam = (|a3|/|a1|^{(r-1)/(p-1)})^{(p-1)/(2(r-p))}
    turn (a1, a2, a3) into (b, c, d) = (a1 kappa^{p-1} lam^2,
    a2 kappa^{q-1} lam^2, a3 kappa^{r-1} lam^2) with |b| = |d| = 1.
    gamma is -c.
    """
    if not all(math.isfinite(x) for x in (a1, a2, a3)):
        raise ValueError("coefficients must be finite")
    if a1 == 0.0 or a3 == 0.0:
        raise ValueError("outer coefficients must be nonzero")
    if not (1.0 < p < q < r):
        raise ValueError("exponents must satisfy 1 < p < q < r")
    kappa = abs(a1 / a3) ** (1.0 / (r - p))
    # work in logs: lam can under/overflow for extreme coefficient ratios
    log_lam = ((p - 1.0) / (2.0 * (r - p))) * (
        math.log(abs(a3)) - (r - 1.0) / (p - 1.0) * math.log(abs(a1)))
    lam = math.exp(log_lam)
    c = a2 * kappa ** (q - 1.0) * lam * lam
    sgn = lambda v: 1 if v > 0 else -1
    params = NonlinearityParams(p, q, r, sgn(a1), sgn(a3))
    return ScalingReduction(kappa=kappa, lam=lam, normalized=params, gamma=-c)
