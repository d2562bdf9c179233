"""Print the oracle tables of tests/test_stability.py.

    PYTHONPATH=src python3 tests/oracle_tables.py

Needs scipy and mpmath.  Every value comes from ``j_value`` of
perfbench/oracle.py (scipy brentq, mpmath quadrature), which imports
nothing of tristab; tristab only picks the draws.

CANCELLATION_DRAWS are the draws of a seeded random probe, numpy
``default_rng(777)`` drawing in order p U(1.05, 6), q - p and r - q
U(0.05, 4), s1 and s3 from (-1, 1), gamma U(-8, 8) and omega 10^U(-2, 1.5),
1,500 times, that have a wave with sum |d_l| a^{e_l} / (omega/2) >= 1e6: the
terms of D(a, 0) = omega/2 are a million times larger or more.  Three
points with rounded exponents follow.  The oracle works at 40 digits plus
the log10 of that ratio, since its own phi = omega - F1 cancels alike.

J0_POINTS are J(0, gamma).  There the integrand grows like s^{-3(p-1)/4} at
s = 0, and tanh-sinh drops the nodes within about 10^-dps of that end,
which misses 7e-5 of J at p = 2.2 and 8% at p = 2.3.  So the first
s-segment is integrated after s = v^k, with k (1 - 3(p-1)/4) >= 2.

ref_err is the oracle's error estimate or its change at 15 more digits,
whichever is larger.
"""

import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
from tristab import NonlinearityParams, find_a  # noqa: E402
from tristab.landscape import terms  # noqa: E402

ROUNDED = [(3.344, 6.611, 7.134, 1, 1, 0.4183, 4.005),
           (2.800, 5.851, 6.542, 1, 1, 0.1539, 7.125),
           (2.042, 5.365, 5.942, -1, 1, 0.02018, 6.006)]
J0_GAMMAS = [((1.3, 1.8, 2.5, -1, 1), (-10.0, -3.0, 0.0, 3.0, 10.0)),
             ((2.2, 2.8, 4.0, -1, 1), (-10.0, 0.0, 10.0)),
             ((2.0, 2.5, 3.0, -1, 1), (-1000.0, 0.0, 1000.0)),
             ((2.0, 3.0, 4.0, -1, -1), (-3.0, -2.5)),
             ((2.3, 3.0, 4.0, -1, 1), (-2.0, 0.0, 2.0))]


def ratio(params, omega, gamma, a):
    t = terms(params, gamma)
    return sum(abs(d) * a ** e for d, e in zip(t.d, t.e)) / (0.5 * omega)


def draws():
    rng = np.random.default_rng(777)
    for _ in range(1500):
        p = rng.uniform(1.05, 6.0)
        q = p + rng.uniform(0.05, 4.0)
        r = q + rng.uniform(0.05, 4.0)
        s1, s3 = int(rng.choice((-1, 1))), int(rng.choice((-1, 1)))
        gamma = rng.uniform(-8.0, 8.0)
        omega = 10.0 ** rng.uniform(-2.0, 1.5)
        params = NonlinearityParams(p, q, r, sign1=s1, sign3=s3)
        res = find_a(params, omega, gamma)
        if res is not None and not res.on_boundary:
            yield (p, q, r, s1, s3, omega, gamma), ratio(params, omega,
                                                         gamma, res.a)


def reference(point, dps):
    j, err = oracle.j_value(*point, dps=dps)
    j2, _ = oracle.j_value(*point, dps=dps + 15)
    return j, max(err, abs(j2 - j))


QUAD = oracle.mp.quad


def flattened_quad(k):
    """mp.quad with the first segment of the s-integral taken in v."""
    quad = QUAD

    def flat(f, pts, **kw):
        if f.__name__ != "f_s" or pts[0] != 0:
            return quad(f, pts, **kw)
        v, e = quad(lambda v: f(v ** k) * k * v ** (k - 1),
                    [0, pts[1] ** (oracle.mp.mpf(1) / k)], **kw)
        if len(pts) > 2:
            v2, e2 = quad(f, pts[1:], **kw)
            v, e = v + v2, e + e2
        return v, e

    return flat


def main():
    print("CANCELLATION_DRAWS = [")
    found = sorted(draws(), key=lambda d: d[1])
    picked = [d for d in found if d[1] >= 1e6]
    picked += [(pt, None) for pt in ROUNDED]
    for pt, rat in picked:
        params = NonlinearityParams(*pt[:3], sign1=pt[3], sign3=pt[4])
        if rat is None:
            rat = ratio(params, pt[5], pt[6], find_a(params, *pt[5:]).a)
        j, err = reference(pt, 40 + max(0, math.ceil(math.log10(rat))))
        print("    (%r, %r, %r, %d, %d,\n     %r, %r, %r, %.2g),"
              % (pt + (j, err)), flush=True)
    print("]\n\nJ0_POINTS = [")
    for (p, q, r, s1, s3), gammas in J0_GAMMAS:
        oracle.mp.quad = flattened_quad(
            math.ceil(2.0 / (1.0 - 0.75 * (p - 1.0))))
        for g in gammas:
            j, err = reference((p, q, r, s1, s3, 0.0, g), 40)
            print("    (%r, %r, %r, %d, %d, %r, %r, %.2g)," % (
                p, q, r, s1, s3, g, j, err), flush=True)
    print("]")


if __name__ == "__main__":
    main()
