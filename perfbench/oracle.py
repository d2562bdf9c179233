"""Independent reference values for the benchmark's correctness checks.

Nothing here imports tristab.  The first zero ``a`` of phi(s) = omega - F1(s)
is bracketed on the monotone pieces of F1 and found with
``scipy.optimize.brentq``, then polished by Newton steps in mpmath.  J comes
from the defining integral

    J = -1/(2 U'(a)) * int_0^a (3 + (U'(a) - U'(s)) / phi(s)) / sqrt(phi(s)) ds

(the raw form of dQ/domega, with sqrt(s)/sqrt(U(s)) = 1/sqrt(phi(s))),
evaluated by ``mpmath.quad`` after s = a - u^2 removes the square-root end.
Where F1 has critical points inside (0, a) the integral is split there:
above the FF curve phi nearly touches zero at F1's local maximum and an
unsplit quadrature misses the spike.  J(0, gamma) is the same integral at
omega = 0 with a = a0, the first zero of F1.

``python3 perfbench/oracle.py`` rewrites ``reference_points.json`` (the
stored oracle values of the ``point_checks`` workload) and prints each
value next to an independent central difference of the mass Q, the check
that the stored oracle error bars are honest.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp
from scipy.optimize import brentq

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference_points.json")


class Model:
    """Normalized nonlinearity: exponents and outer signs, in mpmath."""

    def __init__(self, p, q, r, s1, s3):
        self.p, self.q, self.r = mp.mpf(p), mp.mpf(q), mp.mpf(r)
        self.s1, self.s3 = int(s1), int(s3)
        self.ep = (self.p - 1) / 2
        self.eq = (self.q - 1) / 2
        self.er = (self.r - 1) / 2

    def f1(self, gamma, s):
        p, q, r = self.p, self.q, self.r
        return (2 * self.s1 / (p + 1) * s ** self.ep
                - 2 * gamma / (q + 1) * s ** self.eq
                + 2 * self.s3 / (r + 1) * s ** self.er)

    def f1_prime(self, gamma, s):
        p, q, r = self.p, self.q, self.r
        return (self.s1 * (p - 1) / (p + 1) * s ** (self.ep - 1)
                - gamma * (q - 1) / (q + 1) * s ** (self.eq - 1)
                + self.s3 * (r - 1) / (r + 1) * s ** (self.er - 1))

    def u_prime(self, omega, gamma, s):
        return (omega - self.s1 * s ** self.ep + gamma * s ** self.eq
                - self.s3 * s ** self.er)

    def u_second(self, gamma, s):
        return (-self.s1 * self.ep * s ** (self.ep - 1)
                + gamma * self.eq * s ** (self.eq - 1)
                - self.s3 * self.er * s ** (self.er - 1))

    def critical_points(self, gamma):
        """Positive zeros of F1', ascending, via brentq on the monotone
        pieces of h(x) = x^{(3-p)/2} F1'(x)."""
        p, q, r = float(self.p), float(self.q), float(self.r)
        g = float(gamma)
        dp = self.s1 * (p - 1) / (p + 1)
        dq = -g * (q - 1) / (q + 1)
        dr = self.s3 * (r - 1) / (r + 1)
        al, be = (q - p) / 2, (r - p) / 2

        def h(x):
            return dp + dq * x ** al + dr * x ** be

        edges = [0.0]
        if dq != 0.0 and (dq > 0) != (dr > 0):
            edges.append((-al * dq / (be * dr)) ** (1.0 / (be - al)))
        # past the last edge h is monotone and ends with the sign of dr
        hi = max(edges[-1] * 2.0, 1.0)
        while (h(hi) > 0) != (dr > 0) or h(hi) == 0.0:
            hi *= 2.0
        edges.append(hi)
        roots = []
        for lo, up in zip(edges[:-1], edges[1:]):
            lo_eval = lo if lo > 0 else 1e-300
            if h(lo_eval) * h(up) < 0:
                roots.append(brentq(h, lo_eval, up, xtol=1e-300, rtol=1e-15,
                                    maxiter=500))
        return roots


def first_zero(m: Model, omega, gamma):
    """(a, crits) with a the first positive zero of omega - F1, or
    (None, crits) when there is none.  omega = 0 gives a0."""
    crits = m.critical_points(gamma)
    w, g = float(omega), float(gamma)

    def phi(s):
        return float(w - m.f1(g, mp.mpf(s)))

    pts = [0.0] + crits
    if m.s3 > 0:
        far = max(pts[-1] * 2.0, 1.0)
        while phi(far) >= 0.0:
            far *= 2.0
        pts.append(far)
    a = None
    for lo, hi in zip(pts[:-1], pts[1:]):
        flo = w if lo == 0.0 else phi(lo)
        if lo == 0.0 and w == 0.0:
            flo = -m.s1          # sign of -F1 just right of 0
            lo = hi * 1e-12
            while (phi(lo) > 0) != (flo > 0):
                lo *= 1e-3
        fhi = phi(hi)
        if (flo > 0) != (fhi > 0) and fhi != 0.0:
            a = brentq(phi, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)
            break
    if a is None:
        return None, crits
    a = mp.mpf(a)
    om, ga = mp.mpf(omega), mp.mpf(gamma)
    for _ in range(30):           # Newton polish to working precision
        step = (om - m.f1(ga, a)) / m.f1_prime(ga, a)
        a += step
        if abs(step) <= a * mp.mpf(10) ** (-mp.mp.dps - 3):
            break
    return a, crits


def _split_points(m: Model, omega, a, crits):
    """Interior split points in s: F1's critical points below a, for small
    omega in the defocusing-low cases the boundary layer where
    s^{(p-1)/2} ~ omega, and a/2 so that each end gets its own segment."""
    pts = [mp.mpf(c) for c in crits if 0 < c < a * (1 - mp.mpf(10) ** -12)]
    if m.s1 < 0 and 0 < omega:
        layer = ((m.p + 1) * omega / 2) ** (1 / m.ep)
        pts += [layer * f for f in (mp.mpf("0.1"), 1, 10) if layer * f < a / 2]
    pts.append(a / 2)
    return sorted(set(pts))


def _integral(m: Model, omega, gamma, a, crits, kind):
    """int_0^a of the J bracket ("j") or of the mass integrand ("mass").

    Segments away from s = a are integrated in s.  The last one is
    integrated in u with s = a - u^2, and there phi and U'(a) - U'(s) are
    written through D_l = a^e - (a-t)^e = -a^e expm1(e log1p(-t/a)), which
    keeps full relative precision as t = u^2 -> 0.  Returns (value, err).
    """
    om, ga = mp.mpf(omega), mp.mpf(gamma)
    exps = (m.ep, m.eq, m.er)
    c = (2 * m.s1 / (m.p + 1), -2 * ga / (m.q + 1), 2 * m.s3 / (m.r + 1))
    k = (m.s1, -ga, m.s3)                 # U'(s) = omega - sum k_l s^e_l
    a_pow = [a ** e for e in exps]
    upa = m.u_prime(om, ga, a)
    res = om - m.f1(ga, a)                # root residual, ~10^-prec
    f1p = m.f1_prime(ga, a)

    def bracket(phi, dup):
        if phi <= 0:
            return mp.mpf(0)
        if kind == "mass":
            return 1 / mp.sqrt(phi)
        return (3 + dup / phi) / mp.sqrt(phi)

    def f_s(s):
        return bracket(om - m.f1(ga, s), upa - m.u_prime(om, ga, s))

    def f_t(t):
        d = [-ap * mp.expm1(e * mp.log1p(-t / a)) for ap, e in zip(a_pow, exps)]
        phi = res + sum(ci * di for ci, di in zip(c, d))
        return bracket(phi, -sum(ki * di for ki, di in zip(k, d)))

    if kind == "mass":
        lim = 2 / mp.sqrt(f1p)
    else:
        lim = 2 * (3 + m.u_second(ga, a) / f1p) / mp.sqrt(f1p)
    cut = mp.sqrt(abs(res) / f1p) * 10 ** 4

    def g_u(u):
        return lim if u <= cut else 2 * u * f_t(u * u)

    pts = [mp.mpf(0)] + _split_points(m, om, a, crits)
    val, err = mp.quad(f_s, pts, error=True, maxdegree=8)
    v2, e2 = mp.quad(g_u, [0, mp.sqrt(a - pts[-1])], error=True, maxdegree=8)
    return val + v2, err + e2


def j_value(p, q, r, s1, s3, omega, gamma, dps=40):
    """Oracle J(omega, gamma) as (j, abs_error); raises LookupError when no
    wave exists.  omega = 0 gives J(0, gamma) for D* cases with p < 7/3."""
    with mp.workdps(dps + 15):
        m = Model(p, q, r, s1, s3)
        a, crits = first_zero(m, omega, gamma)
        if a is None:
            raise LookupError("no standing wave")
        upa = m.u_prime(mp.mpf(omega), mp.mpf(gamma), a)
        if upa >= 0:
            raise LookupError("not a transversal zero")
        with mp.workdps(dps):
            val, err = _integral(m, omega, gamma, a, crits, "j")
        pref = -1 / (2 * upa)
        j = pref * val
        err = abs(pref) * err + abs(j) * mp.mpf(10) ** (-dps)
        return float(j), float(err)


def mass_value(p, q, r, s1, s3, omega, gamma, dps=40):
    """Oracle mass Q = int_0^a ds / sqrt(omega - F1(s)) as an mpf."""
    with mp.workdps(dps + 15):
        m = Model(p, q, r, s1, s3)
        a, crits = first_zero(m, omega, gamma)
        if a is None:
            raise LookupError("no standing wave")
        with mp.workdps(dps):
            return _integral(m, omega, gamma, a, crits, "mass")[0]


def j_by_mass_difference(p, q, r, s1, s3, omega, gamma, rel_step=1e-16,
                         dps=60):
    """dQ/domega by a central difference of the oracle mass at high
    precision; an oracle-internal cross-check of ``j_value``."""
    with mp.workdps(dps):
        om = mp.mpf(omega)
        h = om * mp.mpf(rel_step)
        qp = mass_value(p, q, r, s1, s3, om + h, gamma, dps)
        qm = mass_value(p, q, r, s1, s3, om - h, gamma, dps)
        return float((qp - qm) / (2 * h))


def main():
    from points import reference_points
    out = []
    for pt in reference_points():
        rec = dict(pt)
        args = (pt["p"], pt["q"], pt["r"], pt["s1"], pt["s3"], pt["omega"],
                pt["gamma"])
        try:
            j, err = j_value(*args)
        except LookupError as exc:
            if pt["expect"] not in ("none", "sentinel"):
                raise SystemExit("%s: %s" % (pt["name"], exc))
            msg = "oracle: %s" % exc
        else:
            if pt["expect"] == "none":
                raise SystemExit("%s: the oracle finds a wave" % pt["name"])
            msg = "J %.16g +- %.2g" % (j, err)
            if pt["expect"] == "value":
                # the oracle error covers its disagreement with dQ/domega
                jd = j_by_mass_difference(*args)
                err = max(err, abs(jd - j))
                msg += "  dQ/domega differs by %.1e" % (abs(jd - j) / abs(j))
            rec["oracle_j"], rec["oracle_err"] = j, err
        print("%-30s %-8s %s" % (pt["name"], pt["expect"], msg), flush=True)
        out.append(rec)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"regenerate": "python3 perfbench/oracle.py",
                   "points": out}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    main()
