"""Print the oracle tables of tests/test_stability.py and
tests/test_dip_rule.py.

    PYTHONPATH=src python3 tests/oracle_tables.py [TABLE ...]

prints the tables named, all of them by default.  Needs scipy and mpmath.
Every value comes from ``j_value`` or ``mass_value`` of
perfbench/oracle.py (scipy brentq, mpmath quadrature), which imports
nothing of tristab; tristab only picks the draws.

CANCELLATION_DRAWS are the draws of a seeded random probe, numpy
``default_rng(777)`` drawing in order p U(1.05, 6), q - p and r - q
U(0.05, 4), s1 and s3 from (-1, 1), gamma U(-8, 8) and omega 10^U(-2, 1.5),
1,500 times, that have a wave with sum |d_l| a^{e_l} / (omega/2) >= 1e6: the
terms of D(a, 0) = omega/2 are a million times larger or more.  Three
points with rounded exponents follow.  The oracle works at 40 digits plus
the log10 of that ratio, since its own phi = omega - F1 cancels alike.

ROUTE_DRAWS are two draws of the same generator run 3,000 times where
eval_J_raw missed the oracle by more than its bar, at the same digits as
CANCELLATION_DRAWS.

J0_POINTS are J(0, gamma).  There the integrand grows like s^{-3(p-1)/4} at
s = 0, and tanh-sinh drops the nodes within about 10^-dps of that end,
which misses 7e-5 of J at p = 2.2 and 8% at p = 2.3.  So the first
s-segment is integrated after s = v^k, with k (1 - 3(p-1)/4) >= 2.

DIP_DRAWS are the waves that eval_J's fixed rule takes (``stability._dip``:
F1 dips below omega at a local maximum c < a by at least 1e-3 omega, and
the terms of D stay below 1e6 omega/2).  The first 150 are draws of a
probe like CANCELLATION_DRAWS' but from ``default_rng(2026)``; only FF waves
with gamma > 0 have such a dip, since only there do the coefficients of F1'
change sign twice.  Then 20 directed FF draws follow, from
``default_rng(2027)``: p, q, r and gamma as in the probe, a depth
10^U(-3, -1), and omega = F1(c) / (1 - depth), kept when the ratio
sum |d_l| a^{e_l} / (omega/2) lies in [1e4, 1e6).  They are at 40 digits
plus the log10 of that ratio, as above.

MASS_DRAWS are masses Q = int_0^a ds / sqrt(omega - F1(s)) from
``mass_value`` of perfbench/oracle.py, at the first waves of the
``default_rng(2026)`` probe, in the order drawn: 10 of each case where F1
has no local maximum below a (the masses of the tanh-sinh kernel on one
piece), and 8 FF waves where it has one, on the dip branch (the masses of
the tanh-sinh kernel split at that maximum).  They are at 40 digits plus the log10 of the ratio above.

ref_err is the oracle's error estimate or its change at 15 more digits,
whichever is larger; for a mass, which comes with no estimate, it is that
change or |Q| 10^-dps, whichever is larger.
"""

import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
from tristab import NonlinearityParams, UnsupportedRegime, find_a  # noqa: E402
from tristab import stability  # noqa: E402
from tristab.landscape import terms  # noqa: E402

ROUNDED = [(3.344, 6.611, 7.134, 1, 1, 0.4183, 4.005),
           (2.800, 5.851, 6.542, 1, 1, 0.1539, 7.125),
           (2.042, 5.365, 5.942, -1, 1, 0.02018, 6.006)]
ROUTE = [(4.49484084073488, 5.294512391695198, 6.764033611233371, -1, 1,
          0.24185080938609663, 4.727690316154831),
         (3.042523005635259, 5.80203106446864, 9.399823420461601, -1, 1,
          22.079026441988322, 5.988076350044629)]
J0_GAMMAS = [((1.3, 1.8, 2.5, -1, 1), (-10.0, -3.0, 0.0, 3.0, 10.0)),
             ((2.2, 2.8, 4.0, -1, 1), (-10.0, 0.0, 10.0)),
             ((2.0, 2.5, 3.0, -1, 1), (-1000.0, 0.0, 1000.0)),
             ((2.0, 3.0, 4.0, -1, -1), (-3.0, -2.5)),
             ((2.3, 3.0, 4.0, -1, 1), (-2.0, 0.0, 2.0))]


def ratio(params, omega, gamma, a):
    t = terms(params, gamma)
    return sum(abs(d) * a ** e for d, e in zip(t.d, t.e)) / (0.5 * omega)


def probe(rng):
    """One draw of the probe's (p, q, r, s1, s3, gamma, omega)."""
    p = rng.uniform(1.05, 6.0)
    q = p + rng.uniform(0.05, 4.0)
    r = q + rng.uniform(0.05, 4.0)
    s1, s3 = int(rng.choice((-1, 1))), int(rng.choice((-1, 1)))
    return p, q, r, s1, s3, rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-2.0,
                                                                         1.5)


def draws():
    rng = np.random.default_rng(777)
    for _ in range(1500):
        p, q, r, s1, s3, gamma, omega = probe(rng)
        params = NonlinearityParams(p, q, r, sign1=s1, sign3=s3)
        res = find_a(params, omega, gamma)
        if res is not None and not res.on_boundary:
            yield (p, q, r, s1, s3, omega, gamma), ratio(params, omega,
                                                         gamma, res.a)


def takes_rule(params, omega, gamma):
    """The ratio of the wave at (omega, gamma) when eval_J's fixed rule
    takes it, else None."""
    try:
        res = find_a(params, omega, gamma)
    except UnsupportedRegime:   # no float amplitude: no wave to tabulate
        return None
    if res is None or res.on_boundary or stability._dip(
            (omega, gamma, res), {gamma: terms(params, gamma)}) is None:
        return None
    return ratio(params, omega, gamma, res.a)


def dip_draws(n_probe=150, n_directed=20):
    rng = np.random.default_rng(2026)
    found = 0
    while found < n_probe:
        p, q, r, s1, s3, gamma, omega = probe(rng)
        rat = takes_rule(NonlinearityParams(p, q, r, sign1=s1, sign3=s3),
                         omega, gamma)
        if rat is not None:
            found += 1
            yield (p, q, r, s1, s3, omega, gamma), rat
    rng = np.random.default_rng(2027)
    found = 0
    while found < n_directed:
        p, q, r, _, _, gamma, _ = probe(rng)
        depth = 10.0 ** rng.uniform(-3.0, -1.0)
        params = NonlinearityParams(p, q, r)
        maxima = terms(params, gamma).maxima
        if not maxima or maxima[0][1] <= 0.0:
            continue
        omega = maxima[0][1] / (1.0 - depth)
        rat = takes_rule(params, omega, gamma)
        if rat is not None and 1e4 <= rat < 1e6:
            found += 1
            yield (p, q, r, 1, 1, omega, gamma), rat


def mass_draws(per_case=10, n_dip=8):
    rng = np.random.default_rng(2026)
    wanted = {"FF": per_case, "FD": per_case, "DF": per_case,
              "DD": per_case, "dip": n_dip}
    while any(wanted.values()):
        p, q, r, s1, s3, gamma, omega = probe(rng)
        params = NonlinearityParams(p, q, r, sign1=s1, sign3=s3)
        try:
            res = find_a(params, omega, gamma)
        except UnsupportedRegime:
            continue
        if res is None or res.on_boundary:
            continue
        maxima = terms(params, gamma).maxima
        kind = "dip" if maxima and maxima[0][0] < res.a else params.case
        if wanted[kind]:
            wanted[kind] -= 1
            yield (p, q, r, s1, s3, omega, gamma), ratio(params, omega,
                                                         gamma, res.a)


def mass_reference(point, dps):
    q = oracle.mass_value(*point, dps=dps)
    q2 = oracle.mass_value(*point, dps=dps + 15)
    return float(q), max(float(abs(q2 - q)), float(abs(q)) * 10.0 ** -dps)


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


def print_draw(pt, rat=None):
    """One table row at 40 digits plus the log10 of the ratio."""
    if rat is None:
        params = NonlinearityParams(*pt[:3], sign1=pt[3], sign3=pt[4])
        rat = ratio(params, pt[5], pt[6], find_a(params, *pt[5:]).a)
    j, err = reference(pt, 40 + max(0, math.ceil(math.log10(rat))))
    print("    (%r, %r, %r, %d, %d,\n     %r, %r, %r, %.2g),"
          % (pt + (j, err)), flush=True)


def main(tables):
    if "CANCELLATION_DRAWS" in tables:
        print("CANCELLATION_DRAWS = [")
        found = sorted(draws(), key=lambda d: d[1])
        for pt, rat in [d for d in found if d[1] >= 1e6]:
            print_draw(pt, rat)
        for pt in ROUNDED:
            print_draw(pt)
        print("]\n")
    if "ROUTE_DRAWS" in tables:
        print("ROUTE_DRAWS = [")
        for pt in ROUTE:
            print_draw(pt)
        print("]\n")
    if "DIP_DRAWS" in tables:
        print("DIP_DRAWS = [")
        for pt, rat in dip_draws():
            print_draw(pt, rat)
        print("]\n")
    if "MASS_DRAWS" in tables:
        print("MASS_DRAWS = [")
        for pt, rat in mass_draws():
            q, err = mass_reference(pt, 40 + max(0, math.ceil(
                math.log10(rat))))
            print("    (%r, %r, %r, %d, %d,\n     %r, %r, %r, %.2g),"
                  % (pt + (q, err)), flush=True)
        print("]\n")
    if "J0_POINTS" in tables:
        print("J0_POINTS = [")
        for (p, q, r, s1, s3), gammas in J0_GAMMAS:
            oracle.mp.quad = flattened_quad(
                math.ceil(2.0 / (1.0 - 0.75 * (p - 1.0))))
            for g in gammas:
                j, err = reference((p, q, r, s1, s3, 0.0, g), 40)
                print("    (%r, %r, %r, %d, %d, %r, %r, %.2g)," % (
                    p, q, r, s1, s3, g, j, err), flush=True)
        print("]")


if __name__ == "__main__":
    main(sys.argv[1:] or ["CANCELLATION_DRAWS", "ROUTE_DRAWS", "DIP_DRAWS",
                          "MASS_DRAWS", "J0_POINTS"])
