"""Self-contained verification suites runnable from the command line.

Each suite re-derives a family of identities or sign statements numerically
and prints one PASS/FAIL line per check.  The suites exist so the library
can be sanity-checked on a new machine without the test harness: every
check uses only in-repo code plus seeded randomness.
"""

from __future__ import annotations

import math

import numpy as np

from . import boundary, special
from .asymptotics import Direction, GuaranteeStatement, LimitKind, \
    classify_limit, sign_guarantees
from .landscape import eval_U
from .model import NonlinearityParams
from .profile import find_a
from .quadrature import integrate
from .signs import GeneralizedPolynomial, count_positive_roots_sampled, \
    sign_changes
from .stability import eval_J, eval_J0, eval_J_mass_fd, eval_J_raw

SUITES = ("special", "signs", "boundary", "profile", "stability",
          "asymptotics")


class _Reporter:
    def __init__(self):
        self.failures = 0
        self.checks = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks += 1
        if not ok:
            self.failures += 1
        tag = "PASS" if ok else "FAIL"
        line = "%s %s" % (tag, name)
        if detail:
            line += ": " + detail
        print(line)


# -- quadrature oracles for the special-function identities -------------------


def _beta_quad(x: float, y: float) -> float:
    """B(x,y) by adaptive quadrature; endpoint powers flattened by substitution."""
    kx = max(2, int(math.ceil(1.0 / x)) + 1)
    ky = max(2, int(math.ceil(1.0 / y)) + 1)

    def left(u):
        u = np.asarray(u, dtype=float)
        t = 0.5 * u ** kx
        return t ** (x - 1.0) * (1.0 - t) ** (y - 1.0) * 0.5 * kx * u ** (kx - 1)

    def right(v):
        v = np.asarray(v, dtype=float)
        omt = 0.5 * v ** ky  # 1 - t
        return (1.0 - omt) ** (x - 1.0) * omt ** (y - 1.0) * 0.5 * ky * v ** (ky - 1)

    ql = integrate(left, 0.0, 1.0, rel_tol=1e-12)
    qr = integrate(right, 0.0, 1.0, rel_tol=1e-12)
    return ql.value + qr.value


def _h_quad(x: float, y: float) -> float:
    """H(x,y) by split quadrature.

    A single u = sqrt(1-t) substitution leaves t^{x-1} unbounded at u = 1
    for x < 1 and deep refinement there overflows.  Split at t = 1/2
    instead: t = 0.5 u^k tames the t^{x-1} end, u = sqrt(1-t) tames the
    (1-t)^{-3/2} end (the u = 0 limit of that piece is 2y).
    """
    k = max(2, int(math.ceil(1.0 / x)) + 1)

    def left(u):
        u = np.asarray(u, dtype=float)
        t = 0.5 * u ** k
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (t ** (x - 1.0) * (1.0 - t ** y) * (1.0 - t) ** (-1.5)
                   * 0.5 * k * u ** (k - 1))
        return np.where(u > 0.0, out, 0.0)

    def right(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            omu2 = (1.0 - u) * (1.0 + u)
            frac = -np.expm1(y * np.log1p(-u * u))  # 1 - t^y at t = 1-u^2
            out = 2.0 * omu2 ** (x - 1.0) * frac / (u * u)
        return np.where(u > 0.0, out, 2.0 * y)

    ql = integrate(left, 0.0, 1.0, rel_tol=1e-10, max_panels=4000)
    qr = integrate(right, 0.0, 1.0 / math.sqrt(2.0), rel_tol=1e-10,
                   max_panels=4000)
    return ql.value + qr.value


def _two_power_quad(p: float, q: float) -> float:
    """Defining integral of the two-power closed form, by split quadrature."""
    ep, eq = (p - 1.0) / 2.0, (q - 1.0) / 2.0
    m = max(2, int(math.ceil(4.0 / (7.0 - 3.0 * p))) + 1)

    def left(t):
        t = np.asarray(t, dtype=float)
        s = 0.5 * t ** m
        num = -(5.0 - p) * (1.0 - s ** ep) + (5.0 - q) * (1.0 - s ** eq)
        den = (s ** ep - s ** eq) ** 1.5
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / den * 0.5 * m * t ** (m - 1)
        return np.where(den > 0.0, out, 0.0)

    def right(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.log1p(-u * u)
            Ep = -np.expm1(ep * L)
            Eq = -np.expm1(eq * L)
            num = -(5.0 - p) * Ep + (5.0 - q) * Eq
            den = (Eq - Ep) ** 1.5
            out = 2.0 * u * num / den
        return np.where(den > 0.0, out, 0.0)

    ql = integrate(left, 0.0, 1.0, rel_tol=1e-9, max_panels=4000)
    qr = integrate(right, 0.0, 1.0 / math.sqrt(2.0), rel_tol=1e-9,
                   max_panels=4000)
    return ql.value + qr.value


# -- suites --------------------------------------------------------------------


def _suite_special(rep: _Reporter, rng: np.random.Generator) -> None:
    rep.check("beta(1/2,1/2) = pi",
              abs(special.beta_fn(0.5, 0.5) - math.pi) <= 1e-12 * math.pi)
    rep.check("beta(1,1/2) = 2", abs(special.beta_fn(1.0, 0.5) - 2.0) <= 2e-12)
    bq = _beta_quad(0.25, 0.5)
    bf = special.beta_fn(0.25, 0.5)
    rep.check("beta(1/4,1/2) vs quadrature", abs(bf - bq) <= 1e-9 * abs(bf),
              "closed %.12g quad %.12g" % (bf, bq))

    h = 1e-5
    fd = (special.beta_fn(0.7 + h, 0.5) - special.beta_fn(0.7 - h, 0.5)) / (2 * h)
    dx = special.dbeta_dx(0.7, 0.5)
    rep.check("dbeta_dx(0.7,0.5) vs finite difference",
              abs(dx - fd) <= 1e-7 * abs(dx), "exact %.10g fd %.10g" % (dx, fd))
    rep.check("dbeta_dx(1,1) = -1", abs(special.dbeta_dx(1.0, 1.0) + 1.0) <= 1e-12)

    rep.check("h_fn(1/2,1/2) = 2", abs(special.h_fn(0.5, 0.5) - 2.0) <= 1e-11)
    rep.check("h_fn(1,1) = 2", abs(special.h_fn(1.0, 1.0) - 2.0) <= 1e-11)
    worst = 0.0
    for x in np.geomspace(0.1, 5.0, 10):
        for y in np.geomspace(0.1, 5.0, 10):
            hc = special.h_fn(float(x), float(y))
            hq = _h_quad(float(x), float(y))
            worst = max(worst, abs(hc - hq) / (1.0 + abs(hc)))
    rep.check("h_fn identity on 10x10 grid", worst <= 1e-8,
              "worst scaled error %.3g" % worst)

    rep.check("two_power_integral zero at 2p+q=7",
              special.two_power_integral(2.0, 3.0) == 0.0)
    worst = 0.0
    for _ in range(20):
        p = 1.05 + 1.2 * rng.random()
        q = p + 0.15 + 2.0 * rng.random()
        if abs(7.0 - 2.0 * p - q) < 0.2:
            q += 0.5
        closed = special.two_power_integral(p, q)
        quad = _two_power_quad(p, q)
        worst = max(worst, abs(closed - quad) / (1.0 + abs(closed)))
    rep.check("two_power_integral vs quadrature (20 random)", worst <= 1e-6,
              "worst scaled error %.3g" % worst)

    ok = True
    for b in np.geomspace(0.01, 1000.0, 50):
        bounds = special.beta_deriv_bounds(float(b))
        d = special.dbeta_dx(float(b) + 0.5, 0.5)
        if not (bounds.lower < d < bounds.upper):
            ok = False
            break
    rep.check("derivative bounds strict for 50 sampled b", ok)
    g1 = special.beta_deriv_bounds(1.0)
    g3 = special.beta_deriv_bounds(1000.0)
    rel1 = (g1.upper - g1.lower) / abs(g1.lower)
    rel3 = (g3.upper - g3.lower) / abs(g3.lower)
    rep.check("bound gap shrinks as b grows", rel3 < 0.1 * rel1,
              "relative gap %.3g -> %.3g" % (rel1, rel3))


def _suite_signs(rep: _Reporter, rng: np.random.Generator) -> None:
    bad = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        expos = np.sort(rng.uniform(-2.0, 6.0, size=k))
        while np.any(np.diff(expos) < 1e-6):
            expos = np.sort(rng.uniform(-2.0, 6.0, size=k))
        coeffs = rng.standard_normal(k)
        gp = GeneralizedPolynomial(tuple(zip(coeffs, expos)))
        if count_positive_roots_sampled(gp, 50.0) > sign_changes(gp):
            bad += 1
    rep.check("root count <= sign changes (1000 random)", bad == 0,
              "%d violations" % bad)

    from .signs import ratio_h
    lim = ratio_h(1.0, 2.0, 5.0, 1.0, 4.0)
    near = ratio_h(1.0 + 1e-9, 2.0, 5.0, 1.0, 4.0)
    rep.check("ratio_h continuous at x = 1", abs(near - lim) <= 1e-6,
              "limit %.6g nearby %.6g" % (lim, near))


def _curve_consistency(rep: _Reporter, params: NonlinearityParams,
                       n: int = 200) -> None:
    curve = boundary.sample_curve(params, n=n)
    worst_u = worst_up = worst_upp = 0.0
    for a, om, ga in curve.samples:
        ev = eval_U(params, om, ga, a)
        worst_u = max(worst_u, abs(ev.value) / (1.0 + a))
        worst_up = max(worst_up, abs(ev.first_deriv))
        worst_upp = max(worst_upp, max(0.0, -ev.second_deriv))
    ok = worst_u <= 1e-10 and worst_up <= 1e-10 and worst_upp <= 1e-10
    rep.check("curve consistency %s(%g,%g,%g)"
              % (params.case, params.p, params.q, params.r), ok,
              "|U| %.2g |U'| %.2g neg U'' %.2g" % (worst_u, worst_up, worst_upp))


def _suite_boundary(rep: _Reporter, rng: np.random.Generator) -> None:
    ff = NonlinearityParams(2, 3, 4, 1, 1)
    a_sharp, gamma1, _ = boundary.endpoints(ff)
    rep.check("FF(2,3,4) a_sharp = 5/9", abs(a_sharp - 5.0 / 9.0) <= 1e-12)
    rep.check("FF(2,3,4) gamma_1 = 4/sqrt(5)",
              abs(gamma1 - 4.0 / math.sqrt(5.0)) <= 1e-12)
    om, _ = boundary.gamma_omega_ne(ff, a_sharp)
    rep.check("FF(2,3,4) omega_ne(a_sharp) = 2 sqrt(5)/27",
              abs(om - 2.0 * math.sqrt(5.0) / 27.0) <= 1e-12)
    dd = NonlinearityParams(3, 4, 7, -1, -1)
    a_b, _, _ = boundary.endpoints(dd)
    rep.check("DD(3,4,7) a_b = sqrt(2/3)",
              abs(a_b - math.sqrt(2.0 / 3.0)) <= 1e-12)
    om_b, _ = boundary.gamma_omega_ne(dd, a_b)
    rep.check("DD(3,4,7) omega_ne(a_b) = 0", abs(om_b) <= 1e-12)

    _curve_consistency(rep, ff)
    _curve_consistency(rep, NonlinearityParams(3, 5, 7, 1, -1))
    _curve_consistency(rep, dd)

    ok = True
    for ga in np.linspace(gamma1 + 0.1, gamma1 + 5.0, 8):
        ws = boundary.omega_star(ff, float(ga))
        res = find_a(ff, ws, float(ga))
        if res is None or not res.on_boundary:
            ok = False
            break
    rep.check("FF omega_star lands on the curve", ok)


def _random_params(rng: np.random.Generator) -> NonlinearityParams:
    p = 1.0 + 0.2 + 2.8 * rng.random()
    q = p + 0.2 + 2.0 * rng.random()
    r = q + 0.2 + 2.0 * rng.random()
    s1 = 1 if rng.random() < 0.5 else -1
    s3 = 1 if rng.random() < 0.5 else -1
    return NonlinearityParams(p, q, r, s1, s3)


def _suite_profile(rep: _Reporter, rng: np.random.Generator,
                   n: int = 300) -> None:
    bad = 0
    tried = 0
    while tried < n:
        params = _random_params(rng)
        gamma = float(rng.uniform(-3.0, 3.0))
        w1 = float(10.0 ** rng.uniform(-2.0, 0.7))
        w2 = w1 * float(10.0 ** rng.uniform(0.05, 0.6))
        r1 = find_a(params, w1, gamma)
        r2 = find_a(params, w2, gamma)
        if r1 is None or r2 is None or r1.on_boundary or r2.on_boundary:
            continue
        tried += 1
        if not r2.a > r1.a:
            bad += 1
    rep.check("a strictly increasing in omega (%d samples)" % n, bad == 0,
              "%d violations" % bad)

    bad = 0
    tried = 0
    while tried < n:
        params = _random_params(rng)
        omega = float(10.0 ** rng.uniform(-2.0, 0.7))
        g1 = float(rng.uniform(-3.0, 3.0))
        g2 = g1 + float(rng.uniform(0.1, 2.0))
        r1 = find_a(params, omega, g1)
        r2 = find_a(params, omega, g2)
        if r1 is None or r2 is None or r1.on_boundary or r2.on_boundary:
            continue
        tried += 1
        if not r2.a > r1.a:
            bad += 1
    rep.check("a strictly increasing in gamma (%d samples)" % n, bad == 0,
              "%d violations" % bad)


def _suite_stability(rep: _Reporter, rng: np.random.Generator) -> None:
    fd = NonlinearityParams(3, 5, 7, 1, -1)
    ok = True
    for ga in (-4.0, 0.0, 4.0):
        ws = boundary.omega_star(fd, ga)
        for frac in (0.15, 0.5, 0.85):
            v = eval_J(fd, frac * ws, ga)
            if not (v.j > 0.0):
                ok = False
    rep.check("FD(3,5,7): J > 0 below the curve", ok)

    df = NonlinearityParams(3, 5, 7, -1, 1)
    ok = True
    for ga in (-4.0, 0.0, 4.0):
        for w in (0.1, 1.0, 8.0):
            v = eval_J(df, w, ga)
            if not (v.j < 0.0):
                ok = False
    rep.check("DF(3,5,7): J < 0 everywhere", ok)

    worst_raw = worst_fd = 0.0
    for _ in range(6):
        params = _random_params(rng)
        gamma = float(rng.uniform(-2.0, 2.0))
        omega = float(10.0 ** rng.uniform(-1.0, 0.5))
        res = find_a(params, omega, gamma)
        if res is None or res.on_boundary:
            continue
        v1 = eval_J(params, omega, gamma)
        v2 = eval_J_raw(params, omega, gamma)
        v3 = eval_J_mass_fd(params, omega, gamma)
        scale = max(abs(v1.j), 1e-12)
        worst_raw = max(worst_raw, abs(v1.j - v2.j) / scale)
        worst_fd = max(worst_fd, abs(v1.j - v3.j) / scale)
    rep.check("triple-method agreement", worst_raw <= 1e-4 and worst_fd <= 1e-3,
              "raw %.3g mass_fd %.3g" % (worst_raw, worst_fd))

    df_small = NonlinearityParams(2.0, 2.5, 3.0, -1, 1)
    jneg = eval_J0(df_small, 1e3)
    jpos = eval_J0(df_small, -1e3)
    rep.check("DF(2,2.5,3): J(0,gamma) sign flips between gamma = -1e3, 1e3",
              jpos.j > 0.0 > jneg.j,
              "J(0,-1e3) %.4g J(0,1e3) %.4g" % (jpos.j, jneg.j))

    df_pos = NonlinearityParams(1.3, 1.8, 2.5, -1, 1)
    ok = all(eval_J0(df_pos, g).j > 0.0 for g in (-3.0, 0.0, 3.0))
    rep.check("DF(1.3,1.8,2.5): J(0,gamma) > 0 (2q+r < 7)", ok)


def _suite_asymptotics(rep: _Reporter, rng: np.random.Generator) -> None:
    checks = [
        (NonlinearityParams(3, 4, 5, 1, 1), Direction.OmegaToZero, 1.0,
         LimitKind.PosInfinity, "FF(3,4,5) omega->0"),
        (NonlinearityParams(2, 3, 4, 1, 1), Direction.OmegaToZero, 1.0,
         LimitKind.ZeroPlus, "FF(2,3,4) omega->0"),
        (NonlinearityParams(3, 6, 7, 1, 1), Direction.GammaToNegInf, 1.0,
         LimitKind.ZeroMinus, "FF(3,6,7) gamma->-inf"),
        (NonlinearityParams(3, 4, 7, -1, 1), Direction.GammaToNegInf, 1.0,
         LimitKind.ZeroPlus, "DF(3,4,7) gamma->-inf"),
    ]
    for params, direction, v, expect, label in checks:
        got = classify_limit(params, direction, v)
        rep.check("classify %s -> %s" % (label, expect.value),
                  got.kind is expect, got.detail)

    st = [g.statement for g in sign_guarantees(NonlinearityParams(3, 5, 7, 1, -1))]
    rep.check("FD(3,5,7) guarantees AllStablePositiveJ",
              GuaranteeStatement.AllStablePositiveJ in st)
    st = [g.statement for g in sign_guarantees(NonlinearityParams(3, 5, 7, -1, 1))]
    rep.check("DF(3,5,7) guarantees AllUnstableNegativeJ",
              GuaranteeStatement.AllUnstableNegativeJ in st)
    st = [g.statement for g in sign_guarantees(NonlinearityParams(3, 6, 7, 1, 1))]
    rep.check("FF(3,6,7) guarantees UnstableForLargeOmega",
              GuaranteeStatement.UnstableForLargeOmega in st)

    ff = NonlinearityParams(2, 3, 4, 1, 1)
    js = []
    aa = []
    for w in (1e-3, 1e-4, 1e-5):
        res = find_a(ff, w, 0.0)
        v = eval_J(ff, w, 0.0)
        js.append(v.j)
        aa.append(res.a)
    slope = np.polyfit(np.log(aa), np.log(np.abs(js)), 1)[0]
    rep.check("FF(2,3,4) omega->0 rate ~ a^(1/4)",
              abs(slope - 0.25) <= 0.025, "slope %.4g" % slope)


def run_suite(name: str, seed: int = 20260819) -> int:
    """Run one suite (or 'all'); returns the number of failed checks."""
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s or 'all'"
                         % (name, ", ".join(SUITES)))
    rep = _Reporter()
    table = {
        "special": _suite_special,
        "signs": _suite_signs,
        "boundary": _suite_boundary,
        "profile": _suite_profile,
        "stability": _suite_stability,
        "asymptotics": _suite_asymptotics,
    }
    names = SUITES if name == "all" else (name,)
    for nm in names:
        print("== suite %s ==" % nm)
        table[nm](rep, np.random.default_rng(seed))
    print("%d checks, %d failures" % (rep.checks, rep.failures))
    return rep.failures
