"""Sign-counting tools for generalized polynomials.

A generalized polynomial is a finite sum c_1 x^{e_1} + ... + c_k x^{e_k}
with real (not necessarily integer) exponents, considered on x > 0.  The
Descartes bound carries over: the number of positive roots is at most the
number of sign changes in the coefficient sequence ordered by exponent.
Every numerator and denominator appearing in the slope analysis is of this
form, which is what makes the sign classifications tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """Sum of c * x^e terms on x > 0, exponents strictly increasing."""

    terms: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for coeff, expo in self.terms:
            coeff = float(coeff)
            expo = float(expo)
            if not (math.isfinite(coeff) and math.isfinite(expo)):
                raise ValueError("coefficients and exponents must be finite")
            if coeff == 0.0:
                continue
            cleaned.append((coeff, expo))
        cleaned.sort(key=lambda t: t[1])
        for (_, e1), (_, e2) in zip(cleaned, cleaned[1:]):
            if e1 == e2:
                raise ValueError("duplicate exponent %g" % e1)
        object.__setattr__(self, "terms", tuple(cleaned))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for coeff, expo in self.terms:
            out = out + coeff * x ** expo
        if out.ndim == 0:
            return float(out)
        return out


def sign_changes(gp: GeneralizedPolynomial) -> int:
    """Sign changes in the coefficient sequence, zeros already dropped."""
    signs = [1 if c > 0 else -1 for c, _ in gp.terms]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _scalar(terms, x: float) -> float:
    return sum(c * x ** e for c, e in terms)


def _roots(terms, s_max: float) -> list:
    """Roots of sum c x^e on (0, s_max], ascending, for nonzero terms.

    g = gp / x^{e_1} has the same roots; g' has one term fewer, so its roots
    (the critical points of g) come from the same routine.  g is monotone
    between consecutive critical points, so each piece holds a root exactly
    when its end values differ in sign, or at an end where g is zero.
    """
    if len(terms) < 2:
        return []
    c1, e1 = terms[0]
    g = [(c, e - e1) for c, e in terms]
    dg = [(c * e, e - 1.0) for c, e in g[1:]]
    ends = [x for x in _roots(dg, s_max) if x < s_max] + [s_max]
    roots = []
    lo, flo = 0.0, c1            # g(0+) = c_1: the other exponents are > 0
    for hi in ends:
        if hi <= lo:
            continue
        fhi = _scalar(g, hi)
        if fhi == 0.0:
            roots.append(hi)
        elif flo != 0.0 and (flo > 0.0) != (fhi > 0.0):
            roots.append(_bisect(g, lo, hi, flo))
        lo, flo = hi, fhi
    return roots


def _bisect(terms, lo: float, hi: float, flo: float) -> float:
    """Sign change of sum c x^e inside (lo, hi); halving while lo == 0."""
    for _ in range(2200):
        mid = math.sqrt(lo * hi) if lo > 0.0 and hi > 16.0 * lo \
            else 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = _scalar(terms, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def count_positive_roots_sampled(gp: GeneralizedPolynomial,
                                 s_max: float) -> int:
    """Number of distinct roots of gp on (0, s_max] at which it crosses zero.

    The window is split at the critical points of gp / x^{e_1}, found the
    same way one derivative down; on each monotone piece a sign change of
    the end values brackets one root.  Close root pairs are counted however
    near they lie, as long as gp's value between them rounds to the right
    sign.  A zero touched without crossing is counted only where gp rounds
    to exactly zero at its critical point.
    """
    if not gp.terms:
        return 0
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")
    return len(_roots(list(gp.terms), float(s_max)))


def ratio_h(x, p1: float, q1: float, p2: float, q2: float):
    """(x^p1 - x^q1) / (x^p2 - x^q2) on x > 0, extended by its x -> 1 limit.

    The limit value (p1 - q1)/(p2 - q2) follows from l'Hopital.  Vectorized;
    requires p2 != q2 so the denominator is not identically zero.
    """
    if p2 == q2:
        raise ValueError("denominator exponents must differ")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("ratio_h is defined for x > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        num = x ** p1 - x ** q1
        den = x ** p2 - x ** q2
        out = num / den
    limit = (p1 - q1) / (p2 - q2)
    out = np.where(den == 0.0, limit, out)
    if out.ndim == 0:
        return float(out)
    return out
