"""Sign-counting tools for generalized polynomials, and the package's one
bracketed root solver.

A generalized polynomial is a finite sum c_1 x^{e_1} + ... + c_k x^{e_k}
with real (not necessarily integer) exponents, considered on x > 0.  The
Descartes bound carries over: the number of positive roots is at most the
number of sign changes in the coefficient sequence ordered by exponent.
Every numerator and denominator appearing in the slope analysis is of this
form, which is what makes the sign classifications tractable.

``bisect`` finds the sign change of a function monotone on a bracket, by
Anderson-Bjorck false position kept safe by geometric means on wide
brackets, a step of one float inside an end that false position rounds
onto, and midpoints where it stalls, until the bracket's ends are
adjacent floats, and returns the end where |f| is smaller; ``grow`` finds
a bracket's upper end by doubling.  Every root in the package comes from
this pair, and no root is refined after it: the roots counted here, the
amplitude a and, through ``roots``, F1's critical points in
``landscape.terms``, among which ``boundary.omega_star`` finds the curve's
a.  Both are scalar float arithmetic, since their callers evaluate one
point at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple


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


def sign_changes(gp: GeneralizedPolynomial) -> int:
    """Sign changes in the coefficient sequence, zeros already dropped."""
    signs = [1 if c > 0 else -1 for c, _ in gp.terms]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def bisect(f, lo: float, hi: float, flo: float, fhi: float):
    """Root of f in (lo, hi) from the values flo and fhi of f at the ends,
    where f is monotone, so ends of one sign give None at once.

    At lo == 0, flo is the sign of f just right of 0, and lo walks down
    from hi by halving until f changes sign.  Then each step takes the
    geometric mean while hi > 16 lo, else the false-position point of
    Anderson & Bjorck (BIT 13, 1973): when a step keeps the same end as
    the step before, that end's value is scaled by 1 - f(x)/f(replaced),
    or by 1/2 if that factor is not positive, so both ends close in
    superlinearly.  A point that rounds onto an end, as it does once that
    end lies within an ulp of the root, gives way to the float next to it
    inside (lo, hi), as in Alefeld, Potra & Shi (TOMS 748, 1995), so the
    far end comes in at once, not by halving.  The midpoint replaces a NaN
    point and follows any three steps that did not halve the bracket, so a
    stalled false position still halves it every four steps.  It returns
    a step where f is zero, the midpoint after 200 steps, and once no
    float lies strictly between lo and hi, the one of the two with the
    smaller |f|, from f's values there, kept apart from the scaled ones:
    its calls of f are at distinct points.
    """
    if fhi == 0.0:
        return hi
    if flo == 0.0 and lo > 0.0:
        return lo
    if (flo > 0.0) == (fhi > 0.0):
        return None
    if lo == 0.0:
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
    # scaling keeps signs but may underflow a value to 0: test the sign of
    # lo's end, fixed from here on, not the scaled value
    pos = flo > 0.0
    vlo, vhi = flo, fhi          # f's values at the ends, never scaled
    kept = 0                     # -1: lo was kept last step, +1: hi
    mark, steps = hi - lo, 0     # a width, and the steps taken since
    for _ in range(200):
        steps += 1
        if hi > 16.0 * lo:
            x, kept = math.sqrt(lo * hi), 0
            if not lo < x < hi:  # lo * hi overflowed, or underflowed
                x = math.sqrt(lo) * math.sqrt(hi)
        elif steps == 4:         # three steps did not halve the bracket
            x, kept = 0.5 * (lo + hi), 0
        else:
            x = lo - flo * (hi - lo) / (fhi - flo)
            if not lo < x < hi:  # onto an end: one float in; NaN: midpoint
                x = (math.nextafter(lo, hi) if x <= lo else
                     math.nextafter(hi, lo) if x >= hi else 0.5 * (lo + hi))
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == pos:
            if kept > 0:
                m = 1.0 - fx / flo
                fhi *= m if m > 0.0 else 0.5
            lo, flo, vlo, kept = x, fx, fx, 1
        else:
            if kept < 0:
                m = 1.0 - fx / fhi
                flo *= m if m > 0.0 else 0.5
            hi, fhi, vhi, kept = x, fx, fx, -1
        if not lo < 0.5 * (lo + hi) < hi:
            return lo if abs(vlo) <= abs(vhi) else hi
        if steps == 4 or hi - lo <= 0.5 * mark:
            mark, steps = hi - lo, 0
    return 0.5 * (lo + hi)


def grow(f, lo: float, flo: float):
    """(x, f(x)) at the first x = max(2 lo, 1) 2^k, k = 0, 1, ..., where f
    is zero or has the sign opposite to flo: an upper end for ``bisect``.
    None after 600 doublings; ``roots`` goes on to the largest float."""
    x = max(2.0 * lo, 1.0)
    for _ in range(600):
        fx = f(x)
        if fx == 0.0 or (fx > 0.0) != (flo > 0.0):
            return x, fx
        x *= 2.0
    return None


def roots(terms, s_max: float) -> list:
    """Roots of sum c x^e on (0, s_max], ascending, for nonzero terms.

    g = gp / x^{e_1} has the same roots; g' has one term fewer, so its roots
    (the critical points of g) come from the same routine.  g is monotone
    between consecutive critical points, so each piece holds a root exactly
    when its end values differ in sign, or at an end where g is zero.  The
    window ends at the largest float at most, where g is monotone even if
    g' has a root beyond it, or at a tighter end ``grow`` finds; no root
    past that float or below the smallest is returned.
    """
    if len(terms) < 2:
        return []
    c1, e1 = terms[0]
    g = [(c, e - e1) for c, e in terms]
    dg = [(c * e, e - 1.0) for c, e in g[1:]]
    top, big = g[-1][1], sys.float_info.max

    def g_at(x: float) -> float:
        # g / max(1, x)^top: g's signs, and no power of x above 1 to overflow
        k = top if x > 1.0 else 0.0
        return sum(c * x ** (e - k) for c, e in g)

    ends = [x for x in roots(dg, s_max) if x < s_max] + [min(s_max, big)]
    found = []
    lo, flo = 0.0, c1            # g(0+) = c_1: the other exponents are > 0
    for hi in ends:
        if hi <= lo:
            continue
        fhi = g_at(hi)
        if hi == big and flo != 0.0 and (flo > 0.0) != (fhi > 0.0):
            bracket = grow(g_at, lo, flo)
            if bracket is not None and bracket[0] < hi:
                hi, fhi = bracket
        if fhi == 0.0 or flo != 0.0 and (flo > 0.0) != (fhi > 0.0):
            root = bisect(g_at, lo, hi, flo, fhi)
            if root:             # None, or 0.0, where no float holds it
                found.append(root)
        lo, flo = hi, fhi
    return found


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
    return len(roots(list(gp.terms), float(s_max)))

