"""Acceptance criteria 1-9: the paper's checkable claims, one function each.

Each ``criterion_NN()`` fixes its own seeds, counts, point sets and bounds
and returns its named checks.  The acceptance tests assert that all passed;
``tristab verify --suite S`` prints one PASS/FAIL line per check of the
criteria in ``SUITES[S]``.  The quadrature oracles integrate the defining
integrals, independently of the closed forms in ``special``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple

import numpy as np

from .boundary import endpoints, gamma_omega_ne, omega_star, sample_curve
from .landscape import eval_U
from .model import NonlinearityParams
from .profile import find_a
from .quadrature import integrate
from .signs import GeneralizedPolynomial, count_positive_roots_sampled, \
    sign_changes
from .special import beta_deriv_bounds, dbeta_dx, h_fn, two_power_integral
from .stability import eval_J, eval_J0, eval_J_mass_fd, eval_J_raw

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FF347 = NonlinearityParams(3.0, 4.0, 7.0)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)
DF357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1)
DD347 = NonlinearityParams(3.0, 4.0, 7.0, sign1=-1, sign3=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _label(params: NonlinearityParams) -> str:
    return "%s(%g,%g,%g)" % (params.case, params.p, params.q, params.r)


def _tally(name: str, bad: int, of: int, ok: bool = True) -> Check:
    """Passes when `ok` holds and none of the `of` cases is bad."""
    return Check(name, ok and bad == 0, "%d of %d off" % (bad, of))


def h_quad(x: float, y: float) -> float:
    """H(x, y) = int_0^1 t^(x-1) (1 - t^y) (1-t)^(-3/2) dt, split at 1/2:
    t = 0.5 u^kx tames the t^{x-1} end, u = sqrt(1-t) the (1-t)^{-3/2} end
    (the u = 0 limit of that integrand is 2 y)."""
    kx = max(2, math.ceil(1.0 / x) + 1)

    def left(u):
        u = np.asarray(u, dtype=float)
        t = 0.5 * u ** kx
        return (t ** (x - 1.0) * (1.0 - t ** y)
                * (1.0 - t) ** (-1.5) * 0.5 * kx * u ** (kx - 1))

    def right(u):
        u = np.asarray(u, dtype=float)
        t = 1.0 - u ** 2
        out = np.full_like(u, 2.0 * y)
        nz = u > 0
        out[nz] = (2.0 * t[nz] ** (x - 1.0)
                   * (-np.expm1(y * np.log1p(-u[nz] ** 2)))
                   / u[nz] ** 2)
        return out

    a = integrate(left, 0.0, 1.0, rel_tol=1e-10, max_panels=4000)
    b = integrate(right, 0.0, math.sqrt(0.5), rel_tol=1e-10,
                  max_panels=4000)
    return a.value + b.value


def two_power_quad(p: float, q: float) -> float:
    """int_0^1 N0 / D0^{3/2} ds of the two-power (p, q) problem, the
    defining integral of its slope constant, regularized at both ends."""
    ep = (p - 1.0) / 2.0
    eq = (q - 1.0) / 2.0
    m = max(2, math.ceil(4.0 / (7.0 - 3.0 * p)) + 1)

    def left(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        nz = t > 0
        s = 0.5 * t[nz] ** m
        num = (5.0 - q) * (1.0 - s ** eq) - (5.0 - p) * (1.0 - s ** ep)
        out[nz] = num / (s ** ep - s ** eq) ** 1.5 * 0.5 * m * t[nz] ** (m - 1)
        return out

    def right(u):
        # s = 1 - u^2; the u -> 0 limit is finite and nonzero
        u = np.asarray(u, dtype=float)
        lim = (2.0 * ((5.0 - q) * eq - (5.0 - p) * ep)
               / (eq - ep) ** 1.5)
        out = np.full_like(u, lim)
        nz = u > 0
        lg = np.log1p(-u[nz] ** 2)
        nmu = ((5.0 - p) * np.expm1(ep * lg)
               - (5.0 - q) * np.expm1(eq * lg))
        dnu = np.expm1(ep * lg) - np.expm1(eq * lg)
        out[nz] = 2.0 * u[nz] * nmu / dnu ** 1.5
        return out

    a = integrate(left, 0.0, 1.0, rel_tol=1e-10, max_panels=4000)
    b = integrate(right, 0.0, math.sqrt(0.5), rel_tol=1e-10,
                  max_panels=4000)
    return a.value + b.value


def rule_of_signs(seed: int, n: int) -> Check:
    """The sampled positive-root count of n random generalized polynomials
    never exceeds their number of coefficient sign changes."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n):
        k = int(rng.integers(2, 7))
        expo = np.sort(rng.uniform(-2.0, 6.0, size=k))
        while np.min(np.diff(expo)) < 1e-6:
            expo = np.sort(rng.uniform(-2.0, 6.0, size=k))
        coeff = rng.normal(size=k)
        coeff[coeff == 0.0] = 1.0
        gp = GeneralizedPolynomial(tuple(zip(coeff.tolist(), expo.tolist())))
        bad += count_positive_roots_sampled(gp, 50.0) > sign_changes(gp)
    return _tally("root count <= sign changes", bad, n)


def amplitude_order(seed: int, n: int) -> List[Check]:
    """The amplitude a grows with omega at fixed gamma and with gamma at
    fixed omega, over n random draws whose four waves all exist."""
    rng = np.random.default_rng(seed)
    done = bad_omega = bad_gamma = 0
    while done < n:
        p = 1.2 + 2.8 * rng.random()
        q = p + 0.2 + 2.0 * rng.random()
        r = q + 0.2 + 2.0 * rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        # larger omega -> larger amplitude, at fixed gamma
        gamma = rng.normal() * 2.0
        w2 = 10.0 ** rng.uniform(-2, 0.5)
        w1 = w2 * (1.0 + rng.uniform(0.01, 0.5))
        pw1 = find_a(params, w1, gamma)
        pw2 = find_a(params, w2, gamma)
        # smaller gamma -> smaller amplitude, at fixed omega
        omega = 10.0 ** rng.uniform(-2, 0.5)
        g1 = rng.normal() * 2.0
        g2 = g1 - rng.uniform(0.05, 2.0)
        pg1 = find_a(params, omega, g1)
        pg2 = find_a(params, omega, g2)
        if any(pr is None or pr.on_boundary for pr in (pw1, pw2, pg1, pg2)):
            continue
        bad_omega += not pw2.a < pw1.a
        bad_gamma += not pg2.a < pg1.a
        done += 1
    return [_tally("a increasing in omega", bad_omega, n),
            _tally("a increasing in gamma", bad_gamma, n)]


def criterion_01() -> List[Check]:
    """Closed-form curve constants of FF(2,3,4) and DD(3,4,7)."""
    # fold endpoint of the focusing-focusing curve, via exact rational
    # arithmetic: a = (q-p)(p-1)(r+1) / ((r-q)(r-1)(p+1))
    p, q, r = 2, 3, 4
    a_exact = Fraction((q - p) * (p - 1) * (r + 1),
                       (r - q) * (r - 1) * (p + 1))
    a_sharp, gamma1, _ = endpoints(FF234)
    om, ga = gamma_omega_ne(FF234, a_sharp)
    # defocusing-defocusing onset: a^((r-p)/2) = (q-p)(r+1) / ((r-q)(p+1))
    p, q, r = 3, 4, 7
    ab_pow = Fraction((q - p) * (r + 1), (r - q) * (p + 1))
    a_b, _, _ = endpoints(DD347)
    om_b, _ = gamma_omega_ne(DD347, a_b)
    return [Check("FF(2,3,4) a_sharp = 5/9", a_exact == Fraction(5, 9)
                  and abs(a_sharp - float(a_exact)) <= 1e-12),
            Check("FF(2,3,4) gamma_1 = 4/sqrt(5)",
                  abs(gamma1 - 4.0 / math.sqrt(5.0)) <= 1e-12),
            Check("FF(2,3,4) curve at a_sharp = (2 sqrt(5)/27, gamma_1)",
                  abs(om - 2.0 * math.sqrt(5.0) / 27.0) <= 1e-12
                  and abs(ga - gamma1) <= 1e-12),
            Check("DD(3,4,7) a_b = sqrt(2/3)", ab_pow == Fraction(2, 3)
                  and abs(a_b - math.sqrt(2.0 / 3.0)) <= 1e-12),
            Check("DD(3,4,7) omega_ne(a_b) = 0", abs(om_b) <= 1e-12)]


def criterion_02() -> List[Check]:
    """U, U' vanish and U'' >= 0 at 200 samples of each nonexistence curve."""
    checks = []
    for params in (FF234, FD357, DD347):
        curve = sample_curve(params, n=200)
        bad = 0
        for a, om, ga in curve.samples:
            out = eval_U(params, om, ga, a)
            bad += not (abs(out.value) <= 1e-10 * (1.0 + a)
                        and abs(out.first_deriv) <= 1e-10
                        and out.second_deriv >= -1e-10)
        checks.append(_tally("double zero on the %s curve" % _label(params),
                             bad, len(curve.samples),
                             len(curve.samples) == 200))
    return checks


def _interior_grid(params, gammas, omegas):
    """25 points well inside the existence region: `omegas` at each gamma,
    or, where `omegas` is None, fixed fractions of the fold frequency."""
    if omegas is not None:
        return [(float(om), float(ga)) for ga in gammas for om in omegas]
    pts = []
    for ga in gammas:
        ws = omega_star(params, float(ga))
        pts += [(t * ws, float(ga)) for t in (0.15, 0.3, 0.45, 0.6, 0.75)]
    return pts


def criterion_03() -> List[Check]:
    """Transformed vs raw (1e-4) vs mass-derivative (1e-3) J at 25
    interior points of each case, at least 20 of them existing."""
    checks = []
    cases = ((FF234, np.linspace(-2.0, 1.0, 5), np.linspace(0.05, 1.0, 5)),
             (FD357, np.linspace(-3.0, 3.0, 5), None),
             (DF357, np.linspace(-3.0, 3.0, 5), np.linspace(0.1, 2.0, 5)),
             (DD357, np.linspace(-6.0, -3.0, 5), None))
    for params, gammas, omegas in cases:
        checked = bad = 0
        for om, ga in _interior_grid(params, gammas, omegas):
            prof = find_a(params, om, ga)
            if prof is None or not prof.exists:
                continue
            jt = eval_J(params, om, ga).j
            jr = eval_J_raw(params, om, ga).j
            jm = eval_J_mass_fd(params, om, ga).j
            bad += not (abs(jr - jt) <= 1e-4 * abs(jt)
                        and abs(jm - jt) <= 1e-3 * abs(jt))
            checked += 1
        checks.append(_tally("three J methods agree on %s" % _label(params),
                             bad, checked, checked >= 20))
    return checks


def criterion_04() -> List[Check]:
    """Beta combination H, two-power slope constant, derivative bracket."""
    # Beta-combination closed form vs defining quadrature, 10x10 log grid
    bad_h = 0
    for x in np.geomspace(0.1, 5.0, 10):
        for y in np.geomspace(0.1, 5.0, 10):
            got = h_fn(float(x), float(y))
            want = h_quad(float(x), float(y))
            bad_h += not abs(got - want) <= 1e-8 * (1.0 + abs(got))
    # two-power slope constant vs quadrature, 20 random exponent pairs
    rng = np.random.default_rng(20260819)
    accepted = bad_tp = 0
    while accepted < 20:
        p = float(1.05 + rng.uniform(0.0, 7.0 / 3.0 - 1.1))
        q = float(p + rng.uniform(0.2, 2.0))
        if abs(7.0 - 2.0 * p - q) < 0.2:
            continue
        got = two_power_integral(p, q)
        want = two_power_quad(p, q)
        bad_tp += not abs(got - want) <= 1e-6 * (1.0 + abs(want))
        accepted += 1
    # strict Beta-derivative bracket at 50 sampled widths
    bad_b = 0
    for b in np.geomspace(0.01, 1000.0, 50):
        bounds = beta_deriv_bounds(float(b))
        mid = dbeta_dx(float(b) + 0.5, 0.5)
        bad_b += not bounds.lower < mid < bounds.upper < 0.0
    return [_tally("h_fn vs quadrature, 10x10 grid", bad_h, 100),
            _tally("two_power_integral vs quadrature", bad_tp, 20),
            Check("two_power_integral zero at 2p+q=7",
                  two_power_integral(2.0, 3.0) == 0.0),
            _tally("Beta derivative bracket strict", bad_b, 50)]


def criterion_05() -> List[Check]:
    """Region-wide J signs of FD(3,5,7) and DF(3,5,7), and the signs of
    J(0, gamma) in two DF families."""
    # FD with q = 5: J positive wherever the wave exists
    checked = bad_fd = 0
    for ga in np.linspace(-5.0, 5.0, 30):
        ws = omega_star(FD357, float(ga))
        for i in range(30):
            om = (i + 0.5) / 30.0 * ws
            prof = find_a(FD357, float(om), float(ga))
            if prof is None or not prof.exists:
                continue
            bad_fd += not eval_J(FD357, float(om), float(ga)).j > 0.0
            checked += 1
    # DF with q = 5: J negative everywhere
    bad_df = sum(not eval_J(DF357, float(om), float(ga)).j < 0.0
                 for ga in np.linspace(-5.0, 5.0, 30)
                 for om in np.linspace(0.05, 10.0, 30))
    # DF small-exponent family: the zero-frequency limit stays positive;
    # DF with 2p + q > 7: it stays negative
    low = NonlinearityParams(1.3, 1.8, 2.5, sign1=-1)
    high = NonlinearityParams(2.2, 2.8, 4.0, sign1=-1)
    return [_tally("FD(3,5,7): J > 0 below the curve", bad_fd, checked,
                   checked >= 800),
            _tally("DF(3,5,7): J < 0 everywhere", bad_df, 900),
            Check("DF(1.3,1.8,2.5): J(0,gamma) > 0",
                  all(eval_J0(low, g).j > 0.0 for g in (-10.0, 0.0, 10.0))),
            Check("DF(2.2,2.8,4): J(0,gamma) < 0",
                  all(eval_J0(high, g).j < 0.0 for g in (-10.0, 0.0, 10.0)))]


def criterion_06() -> List[Check]:
    """J -> +inf from the lower left, -inf from the upper right of the FF
    curve at a = 0.3."""
    om_b, ga_b = gamma_omega_ne(FF234, 0.3)
    eps = (1e-2, 1e-3, 1e-4)
    ll = [eval_J(FF234, om_b * (1 - e), ga_b * (1 - e)).j for e in eps]
    ur = [eval_J(FF234, om_b * (1 + e), ga_b * (1 + e)).j for e in eps]
    return [Check("FF(2,3,4): J -> +inf from the lower left",
                  ll[0] < ll[1] < ll[2] and ll[2] > 1e3,
                  "J at 1e-4 below %.4g" % ll[2]),
            Check("FF(2,3,4): J -> -inf from the upper right",
                  ur[0] > ur[1] > ur[2] and ur[2] < -1e3,
                  "J at 1e-4 above %.4g" % ur[2])]


def _rate(name, params, omegas, sign, want) -> Check:
    """log|J| against log a at gamma = 0 has slope `want` within 10%, with
    J of sign `sign` at every omega."""
    la, lj = [], []
    for om in omegas:
        prof = find_a(params, om, 0.0)
        j = sign * eval_J(params, om, 0.0).j
        if not j > 0.0:
            return Check(name, False, "wrong sign at omega = %g" % om)
        la.append(math.log(prof.a))
        lj.append(math.log(j))
    slope = float(np.polyfit(la, lj, 1)[0])
    return Check(name, abs(slope - want) <= 0.1 * abs(want),
                 "slope %.4g" % slope)


def criterion_07() -> List[Check]:
    """Log-log slopes 1/4 (omega -> 0, p = 2) and -7/2 (omega -> inf,
    r = 7) within 10%: J ~ a^((7-3p)/4) and J ~ -a^((7-3r)/4)."""
    return [_rate("FF(2,3,4) omega->0: J ~ a^(1/4)", FF234,
                  (1e-3, 1e-4, 1e-5, 1e-6), 1.0, 0.25),
            _rate("FF(3,4,7) omega->inf: J ~ -a^(-7/2)", FF347,
                  (1e2, 1e3, 1e4, 1e5), -1.0, -3.5)]


def criterion_08() -> List[Check]:
    """The rule of signs, 1000 random generalized polynomials."""
    return [rule_of_signs(47, 1000)]


def criterion_09() -> List[Check]:
    """Amplitude ordering in omega and gamma, 1000 random draws."""
    return amplitude_order(53, 1000)


# suite name -> the acceptance criteria it runs
SUITES = {"special": (criterion_04,), "signs": (criterion_08,),
          "boundary": (criterion_01, criterion_02),
          "profile": (criterion_09,),
          "stability": (criterion_03, criterion_05, criterion_06),
          "asymptotics": (criterion_07,)}


def run_suite(name: str) -> int:
    """Run one suite (or 'all'), printing one PASS/FAIL line per check;
    returns the number of failed checks."""
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s or 'all'"
                         % (name, ", ".join(SUITES)))
    total = failures = 0
    for nm in (SUITES if name == "all" else (name,)):
        print("== suite %s ==" % nm)
        for criterion in SUITES[nm]:
            for check in criterion():
                total += 1
                failures += not check.ok
                line = "%s %s" % ("PASS" if check.ok else "FAIL", check.name)
                print(line + (": " + check.detail if check.detail else ""))
    print("checks: %d, failed: %d" % (total, failures))
    return failures
