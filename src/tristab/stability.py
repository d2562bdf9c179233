"""The slope functional J(omega, gamma) = d/d omega of the profile mass.

Sign of J decides orbital stability of the standing wave: positive J means
stable, negative unstable.  ``eval_J`` answers; two more routes check it:

* ``eval_J``: the transformed integrand C * N(a,s)/D(a,s)^{3/2} on [0,1],
  split at s = 1/2.  On the right piece s = 1 - x^2/2 removes the
  (1-s)^{-1/2} endpoint, and N and D are sums of the differences 1 - s^e
  in expm1 form, which keep D's relative precision as it vanishes at s = 1.
  On the left, s = 0.5 (2 - x)^m flattens the endpoint at s = 0, and N and
  D are their exact values at s = 0, 2 omega + U'(a) and omega/2, less sums
  of powers s^e: sums of terms that can be 1e56 times omega/2 would leave
  only round-off there.  ``eval_J_rows`` evaluates it at every omega of a
  block of gamma rows in one batch, ``eval_J_row`` is a block of one row
  and ``eval_J`` a block of one cell, and no value depends on its batch,
  so all three agree bit for bit.  A cell with no standing wave, or whose
  amplitude lies beyond the float range, is NaN in a block.
* ``eval_J_raw``: a block of one cell of the direct form
  (-1/(2U'(a))) * integral of (3 + s(U'(a)-U'(s))/U(s)) sqrt(s)/sqrt(U(s))
  over [0, a].  With V = U(s)/s and W = U'(a) - U'(s) the integrand is
  (3 + W/V) / sqrt(V), with V and W in the same two forms as N and D.  As
  N = 6D + W and V = 2D, this is the transformed integrand times a
  constant, always on the adaptive kernel: it checks the coefficients, and
  at the cells of eval_J's fixed rule the quadrature too.
* ``eval_J_mass_fd``: central finite difference of the mass integral
  ``mass_Q`` (integrand 1 / sqrt(V)) in omega at steps h and h/2,
  Richardson-extrapolated.  Where the case has a curve at gamma, the step
  is at most a quarter of the distance to omega_star(gamma), so the
  stencil keeps to the query's side of it.  Its four stencil masses run as
  one batch at relative tolerance 3e-13, each equal to ``mass_Q`` alone bit
  for bit, and their quadrature errors enter its error bar.

The three routes share one map (``_piecewise``): x in [0, 2], split at
s = a/2 (x = 1), s = a (1 - x^2/2) on the right and s = (a/2) (2 - x)^m on
the left, m = ceil(2/(p-1)).  A private route table (``_ROUTES``) gives
each route its row (constants from omega and U'(a), then coefficient
triples of the terms times a^{e_l}), its form, the power of its base and
the k of its prefactor -a / (k U'(a)).  ``_integrand`` packs the rows of a
batch of cells into one integrand, and two kernels evaluate it.  The
adaptive one (``_quads``, one ``integrate_many`` call) starts from the two
panels that meet at x = 1.  The fixed rule (``_rule``) takes eval_J's cells
at omega > 0 where omega - F1 dips to at least 1e-3 omega at a local
maximum c < a of F1 and the terms of D stay below 1e6 omega/2.  There the
integrand peaks at c with width sqrt(2 (omega - F1(c)) / |F1''(c)|), which
the adaptive kernel resolves one split per round; the rule takes
Gauss-Legendre with 32 and 64 nodes on each piece, sinh-mapped at c on c's
piece, with m at least 3, and keeps the 64-node value where the two agree
to the tolerance.  Its other cells, and all others, go to the adaptive
kernel.  The term tables and F1's maxima are looked up once per gamma.

The abs_error of ``eval_J``, ``eval_J0`` and ``eval_J_raw`` adds to the
quadrature error (the rule's is |Q_64 - Q_32| plus 50 eps times the
integral of |f|) two errors of the integrand that no quadrature sees.  The
first is the error J carries from a: the computed a is the exact zero at
an omega off by at most eps S, S = |omega| + sum |f1_l| a^{e_l}, and J
moves by |J| eps S (2 |a^2 F1''(a)| / U'(a)^2 + 1/|U'(a)|) with it; the
first part is one over the distance to the fold, the second the residual
in the prefactor's U'(a).  The second is the round-off of the integrand's
base where it nearly vanishes inside (0, a): at each local maximum c < a
of F1, omega - F1 dips to delta = omega - F1(c), whose float sum is off by
up to eps S(c), S(c) = |omega| + sum |f1_l| c^{e_l}, and J, which scales
as 1/delta there, by |J| eps S(c) / delta.  A quadrature that underflows
to 0 +- 0 is not converged, so J reads indeterminate there.

For defocusing-lowest-power (D*) cases with p < 7/3, the omega -> 0 limit
J(0, gamma) is finite.  ``eval_J0`` computes it as the transformed route's
cell at omega = 0 and a = a0, the first zero of F1; there the integrand
blows up like s^{-3(p-1)/4} at s = 0, which the left piece's m flattens.

Near the nonexistence curve the integral genuinely diverges; evaluation is
skipped there and a signed infinity sentinel is returned (positive on the
lower-left side, negative on the FF upper-right side).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

import numpy as np

from .boundary import omega_star
from .errors import DivergingIntegral, NoStandingWave, NotOnCurve, UnsupportedRegime
from .landscape import Terms, terms
from .model import NonlinearityParams
from .profile import ProfileResult, _f1_maxima, _profile, find_a
# the adaptive kernel batches with integrate_many; integrate stays importable
# here because perfbench's traced run wraps stability.integrate
from .quadrature import (QuadratureResult, _gauss_legendre, _rule_sums,
                         integrate,  # noqa: F401
                         integrate_many)

_SQRT2 = math.sqrt(2.0)
_LN_HALF = math.log(0.5)
_EPS = float(np.finfo(float).eps)

# the quadratures' relative tolerances: J's on the transformed and raw
# routes, and the stencil masses', whose errors enter J's bar times 1/h
_J_TOL = 1e-9
_MASS_TOL = 3e-13

# eval_J's fixed rule: its n, the choice of its cells (``_dip``) and its
# batch, whose arrays stay as small as the adaptive kernel's
_RULE_NODES = 32
_DIP_DEPTH = 1e-3
_RATIO_CAP = 1e6
_RULE_BATCH = 40


@dataclass(frozen=True)
class StabilityValue:
    """One J evaluation: value, error estimate, divergence flag, route tag,
    and whether its quadrature met the tolerance."""

    j: float
    abs_error: float
    diverging: bool
    method: str
    converged: bool = True

    def verdict(self) -> str:
        """stable / unstable / indeterminate per the sign of j.

        A quadrature that did not converge decides nothing.  A diverging
        sentinel carries the sign of the limit, which is definitive.  A
        finite j decides only when it exceeds its own error estimate.
        """
        if not self.converged:
            return "indeterminate"
        if self.diverging:
            return "stable" if self.j > 0 else "unstable"
        if abs(self.j) > self.abs_error:
            return "stable" if self.j > 0 else "unstable"
        return "indeterminate"


def _require_profile(params: NonlinearityParams, omega: float,
                     gamma: float) -> ProfileResult:
    res = find_a(params, omega, gamma)
    if res is None:
        raise NoStandingWave(
            "no standing wave at omega=%g, gamma=%g (case %s)"
            % (omega, gamma, params.case))
    return res


def _divergence_sign(params: NonlinearityParams, omega: float,
                     gamma: float) -> float:
    """Sign of the J blow-up on the side of the curve the query sits on.

    Lower-left approaches give +infinity in every case with a curve; only
    the FF case has an upper-right side (larger first zero), where the limit
    is -infinity.
    """
    if params.case == "FF":
        try:
            ws = omega_star(params, gamma)
        except NotOnCurve:
            return 1.0
        if omega > ws:
            return -1.0
    return 1.0


def _sentinel(params, omega, gamma, method: str) -> StabilityValue:
    sign = _divergence_sign(params, omega, gamma)
    return StabilityValue(j=sign * math.inf, abs_error=math.inf,
                          diverging=True, method=method)


# -- the piecewise map of all three routes -----------------------------------


def _piecewise(e: Sequence[float], m: int, rows: Sequence[Sequence[float]],
               form: Callable, power: float) -> Callable:
    """Integrand in x on [0, 2] for a batch of cells, vectorized.

    Every route integrates over sigma = s/a in [0, 1], split at 1/2.  On the
    right piece, x in [0, 1], sigma = 1 - x^2/2 with Jacobian x; on the
    left, x in [1, 2], sigma = 0.5 t^m with t = 2 - x and Jacobian
    0.5 m t^{m-1}, which flattens the s^{(p-1)/2} end at s = 0 once
    m (p-1)/2 >= 1.  e holds the exponents (l-1)/2 of the p, q and r
    powers.  Cell i has one row of K constants z_j followed by K triples
    c_j, and sum j is sum_l c_jl (1 - sigma^{e_l}) on the right, with
    1 - sigma^e = -expm1(e log1p(-x^2/2)), which keeps its relative
    precision as sigma -> 1, and z_j - sum_l c_jl sigma^{e_l} on the left,
    with sigma^e = exp(e (ln 0.5 + m ln t)), whose terms need not cancel
    where they are far larger than z_j.  form(sums) gives the pair
    (B, P), and the integrand is P B^{-power} times the Jacobian where B > 0,
    else 0; on the left the Jacobian and B^{-power} are one exp, since at
    omega = 0 both underflow near t = 0, where their ratio stays of order
    one.  g(x, cells) evaluates row i of x, one panel, for cell cells[i],
    as ``integrate_many`` expects, elementwise; a panel lies on one side of
    x = 1 and takes that side's form alone.
    """
    n_sums = len(rows[0]) // 4
    table = np.array(rows).T[:, :, None]
    ln_half_m = math.log(0.5 * m)

    def triples(c, E):
        return [c[j] * E[0] + c[j + 1] * E[1] + c[j + 2] * E[2]
                for j in range(n_sums, 4 * n_sums, 3)]

    def left(x, c):
        ln_t = np.log(2.0 - x)
        ln_s = _LN_HALF + m * ln_t
        B, P = form([z - y for z, y in zip(
            c, triples(c, [np.exp(ex * ln_s) for ex in e]))])
        if m > 1:
            return B, P * np.exp(ln_half_m + (m - 1) * ln_t
                                 - power * np.log(B))
        # t^0 needs no term, and (m - 1) ln t is 0 * -inf = NaN at t = 0
        return B, P * np.exp(ln_half_m - power * np.log(B))

    def right(x, c):
        L = np.log1p(-0.5 * x * x)
        B, P = form(triples(c, [-np.expm1(ex * L) for ex in e]))
        return B, x * P / B ** power

    # one cell multiplies by plain floats: on arrays this small,
    # broadcasting a (k, 1) column costs twice as much
    one = len(rows) == 1

    def g(x, cells):
        c = rows[0] if one else table[:, cells]
        on_left = x[:, x.shape[1] // 2] > 1.0  # the middle node of a panel
        n_left = np.count_nonzero(on_left)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if n_left in (0, len(x)):
                B, f = (left if n_left else right)(x, c)
            else:
                B, f = np.empty_like(x), np.empty_like(x)
                for side, piece in ((on_left, left), (~on_left, right)):
                    B[side], f[side] = piece(x[side],
                                             c if one else c[:, side])
            return np.where(B > 0.0, f, 0.0)

    return g


def _n_over_d(sums):
    N, D = sums
    return D, N


def _raw_bracket(sums):
    V, W = sums
    return V, 3.0 + W / V


def _unit(sums):
    return sums[0], 1.0


def _left_m(params: NonlinearityParams) -> int:
    """The left piece's m at omega > 0: its s^{(p-1)/2} terms are flat once
    m (p-1)/2 >= 1."""
    return math.ceil(2.0 / (params.p - 1.0))


# the route table of the module docstring; a mass is a times its integral,
# with no k
_Route = namedtuple("_Route", "consts coefs form power k")
_ROUTES = {
    # N and D at s = 0: 2 omega + U'(a) and omega/2
    "transformed": _Route(lambda omega, up: (2.0 * omega + up, 0.5 * omega),
                          ("n", "d"), _n_over_d, 1.5, 4.0 * _SQRT2),
    # V = U(s)/s and W = U'(a) - U'(s) at s = 0: omega and U'(a) - omega
    "raw": _Route(lambda omega, up: (omega, up - omega), ("f1", "up"),
                  _raw_bracket, 0.5, 2.0),
    "mass": _Route(lambda omega, up: (omega,), ("f1",), _unit, 0.5, None),
}


def _integrand(cells, route: str, m: int, tables):
    """``_piecewise``'s g of the route at each (omega, gamma, profile) cell,
    from the term tables by gamma and each profile's a^{e_l}."""
    consts, coefs, form, power, _ = _ROUTES[route]
    triples = {g: [getattr(t, c) for c in coefs] for g, t in tables.items()}
    rows = []
    for omega, gamma, res in cells:
        x0, x1, x2 = res.powers
        row = consts(omega, res.uprime_at_a)
        for c0, c1, c2 in triples[gamma]:
            row += (c0 * x0, c1 * x1, c2 * x2)
        rows.append(row)
    e = tables[cells[0][1]].e  # the exponents depend on p, q, r alone
    return _piecewise(e, m, rows, form, power)


def _quads(cells, route: str, m: int, tol: float,
           tables) -> List[QuadratureResult]:
    """The route's integral in x at each cell: one ``integrate_many`` call
    over x in [0, 2], whose two initial panels meet at the split x = 1."""
    return integrate_many(_integrand(cells, route, m, tables), 0.0, 2.0,
                          len(cells), rel_tol=tol, max_panels=2000, initial=2)


def _dip(cell, tables, maxima):
    """(c, omega - F1(c), F1''(c)) at F1's local maximum c < a where the
    fixed rule takes the cell, else None; tables and maxima by gamma."""
    omega, gamma, res = cell
    if maxima[gamma] and maxima[gamma][0][0] < res.a:
        c, f1_c, _, curvature = maxima[gamma][0]
        (d0, d1, d2), (x0, x1, x2) = tables[gamma].d, res.powers
        if (omega - f1_c >= _DIP_DEPTH * omega and abs(d0) * x0
                + abs(d1) * x1 + abs(d2) * x2 < 0.5 * _RATIO_CAP * omega):
            return c, omega - f1_c, curvature
    return None


def _rule(cells, dips, m: int, tables) -> list:
    """The transformed route's Q_2n at each cell of dips (``_dip``), or None
    where it and Q_n differ by more than _J_TOL relative.

    On each piece, x = lo + (1 + y)/2; on the one that holds c,
    y = y_c + b sinh(mu u - eta), which maps [-1, 1] onto itself with its
    nodes clustered at c on the dip's width b (Johnston & Elliott 2005).
    """
    a = np.array([[res.a] for _, _, res in cells])  # a column per cell
    c, delta, curvature = np.array(dips).T[:, :, None]
    right = c / a >= 0.5
    t = (2.0 * c / a) ** (1.0 / m)
    x_c = np.where(right, np.sqrt(2.0 - 2.0 * c / a), 2.0 - t)
    lo = np.where(right, 0.0, 1.0)
    y_c = 2.0 * (x_c - lo) - 1.0
    # the width in s over ds/dx, times dy/dx = 2
    b = (2.0 * np.sqrt(-2.0 * delta / curvature)
         / (a * np.where(right, x_c, 0.5 * m * t ** (m - 1))))
    h_lo, h_hi = np.arcsinh((1.0 + y_c) / b), np.arcsinh((1.0 - y_c) / b)
    n = _RULE_NODES
    u = np.concatenate([_gauss_legendre(n)[0], _gauss_legendre(2 * n)[0]])
    arg = 0.5 * (h_lo + h_hi) * u - 0.5 * (h_lo - h_hi)
    x = np.concatenate([lo + 0.5 + 0.5 * y_c + 0.5 * b * np.sinh(arg),
                        1.5 - lo + 0.5 * u])
    dxdu = np.concatenate([0.25 * b * (h_lo + h_hi) * np.cosh(arg),
                           np.full(arg.shape, 0.5)])
    # row i and row len(cells) + i are cell i's two pieces
    index = list(range(len(cells)))
    sums = [(s[:len(c)] + s[len(c):]).tolist() for s in _rule_sums(
        _integrand(cells, "transformed", m, tables)(x, index + index) * dxdu,
        n)]
    return [QuadratureResult(q2, abs(q2 - q1) + 50.0 * _EPS * q_abs, 2, True,
                             "rule") if abs(q2 - q1) <= _J_TOL * abs(q2)
            else None for q1, q2, q_abs in zip(*sums)]


def _root_error(t: Terms, omega: float, up: float, powers) -> float:
    """Relative error that J carries from its amplitude a and from U'(a).

    The computed a is the exact first zero at an omega off by at most
    eps S, S = |omega| + sum |f1_l| a^{e_l}.  J grows like one over the
    distance to the fold, about U'(a)^2 / (2 |a^2 F1''(a)|) in omega, and
    its prefactor divides by U'(a), whose residual is of the same eps S.
    Python floats throughout: a row of one must not pay numpy's overhead.
    """
    (c0, c1, c2), (e0, e1, e2), (x0, x1, x2) = t.f1, t.e, powers
    size = abs(omega) + abs(c0) * x0 + abs(c1) * x1 + abs(c2) * x2
    # a^2 F1''(a)
    curvature = (c0 * e0 * (e0 - 1.0) * x0 + c1 * e1 * (e1 - 1.0) * x1
                 + c2 * e2 * (e2 - 1.0) * x2)
    return _EPS * size * (2.0 * abs(curvature) / (up * up) + 1.0 / abs(up))


def _maxima_error(maxima, omega: float, a: float) -> float:
    """Relative error that J carries from the dips of its integrand's base.

    At a local maximum c < a of F1, omega - F1(s), and with it D(a, s/a)
    and V, dips to delta = omega - F1(c), and the part of J near c scales
    as 1/delta.  Their float sums are off by up to eps S(c),
    S(c) = |omega| + sum |f1_l| c^{e_l}, so J is off by eps S(c) / delta
    relative.  maxima holds c, F1(c) and the sum at each maximum, from the
    cache beside F1's critical points (``profile._f1_maxima``).
    """
    err = 0.0
    for c, f1_c, size, _ in maxima:
        if c < a and omega > f1_c:
            err += _EPS * (abs(omega) + size) / (omega - f1_c)
    return err


# -- the J routes ------------------------------------------------------------


def _transformed(params: NonlinearityParams, cells,
                 route: str) -> List[StabilityValue]:
    """J by the transformed or the raw route at each (omega, gamma, profile)
    cell.

    A None profile gives NaN and a profile on the curve the signed
    sentinel; every other cell goes to ``_rule`` or ``_quads``.  The cells
    of one call are all at omega > 0 or all at omega = 0, which decides the
    left piece's m.  abs_error is the quadrature error times the prefactor
    plus |J| times ``_root_error`` and ``_maxima_error``.
    """
    out = [None] * len(cells)
    waves = []
    for i, (omega, gamma, res) in enumerate(cells):
        if res is None:
            out[i] = StabilityValue(j=math.nan, abs_error=math.nan,
                                    diverging=False, method=route)
        elif res.on_boundary:
            out[i] = _sentinel(params, omega, gamma, route)
        else:
            waves.append(i)
    if not waves:
        return out
    # at omega = 0 the left end blows up like s^{-3(p-1)/4} (p < 7/3),
    # flattened with a margin of one
    positive = cells[waves[0]][0] > 0.0
    m = (_left_m(params) if positive
         else max(2, math.ceil(4.0 / (7.0 - 3.0 * params.p)) + 1))
    k = _ROUTES[route].k
    gammas = {cells[i][1] for i in waves}
    tables = {g: terms(params, g) for g in gammas}
    maxima = {g: _f1_maxima(params, g) for g in gammas}
    ruled = {}
    # F1' changes sign twice only in FF, so only there is a maximum below a
    if route == "transformed" and positive and params.case == "FF":
        dips = [(i, dip) for i in waves
                if (dip := _dip(cells[i], tables, maxima)) is not None]
        for j in range(0, len(dips), _RULE_BATCH):
            index, batch = zip(*dips[j:j + _RULE_BATCH])
            ruled.update(iq for iq in zip(index, _rule(
                [cells[i] for i in index], batch, max(3, m), tables)) if iq[1])
    rest = [i for i in waves if i not in ruled] if ruled else waves
    adaptive = zip(rest, _quads([cells[i] for i in rest], route, m, _J_TOL,
                                tables)) if rest else ()
    for i, quad in (*ruled.items(), *adaptive):
        omega, gamma, res = cells[i]
        pref = -res.a / (k * res.uprime_at_a)
        j = pref * quad.value
        err = (abs(pref) * quad.abs_error
               + abs(j) * (_root_error(tables[gamma], omega,
                                       res.uprime_at_a, res.powers)
                           + _maxima_error(maxima[gamma], omega, res.a)))
        # an integral that underflows to 0 +- 0 has not converged to zero
        converged = quad.converged and (quad.value != 0.0
                                        or quad.abs_error != 0.0)
        out[i] = StabilityValue(j=j, abs_error=err, diverging=False,
                                method=route, converged=converged)
    return out


def eval_J(params: NonlinearityParams, omega: float,
           gamma: float) -> StabilityValue:
    """J via the transformed integrand at one point: a block of one cell."""
    res = _require_profile(params, omega, gamma)
    return _transformed(params, [(omega, gamma, res)], "transformed")[0]


def _find_a_in_range(params: NonlinearityParams, omega: float, gamma: float):
    """find_a, with None where the amplitude lies beyond the float range."""
    try:
        return find_a(params, omega, gamma)
    except UnsupportedRegime:
        return None


def eval_J_rows(params: NonlinearityParams, omegas: Sequence[float],
                gammas: Sequence[float]) -> List[List[StabilityValue]]:
    """eval_J at every omega of each gamma row, the route of grid sweeps.

    Each value equals scalar ``eval_J`` at the same floats bit for bit.  A
    point with no standing wave, or whose amplitude lies beyond the float
    range, gives j = NaN where scalar ``eval_J`` raises NoStandingWave or
    UnsupportedRegime.  The profiles are found one by one and the
    quadratures of all rows run as one batch.
    """
    omegas = [float(w) for w in omegas]
    gammas = [float(g) for g in gammas]
    values = _transformed(params, [(w, g, _find_a_in_range(params, w, g))
                                   for g in gammas for w in omegas],
                          "transformed")
    n = len(omegas)
    return [values[i * n:(i + 1) * n] for i in range(len(gammas))]


def eval_J_row(params: NonlinearityParams, omegas: Sequence[float],
               gamma: float) -> List[StabilityValue]:
    """``eval_J_rows`` on the one gamma row."""
    return eval_J_rows(params, omegas, [gamma])[0]


def eval_J_raw(params: NonlinearityParams, omega: float,
               gamma: float) -> StabilityValue:
    """J via the direct integrand (3 + W/V) / sqrt(V) on [0, a], a check on
    the transformed route: a block of one cell of the raw route, whose
    abs_error is built as ``eval_J``'s."""
    res = _require_profile(params, omega, gamma)
    return _transformed(params, [(omega, gamma, res)], "raw")[0]


# -- mass and finite-difference route ----------------------------------------


def _masses(params: NonlinearityParams, omegas: Sequence[float],
            gamma: float) -> List[QuadratureResult]:
    """The mass integral at every omega of one gamma, as one batch.

    Every profile is found before anything is integrated, in the order of
    omegas, so the first omega without a wave raises NoStandingWave and the
    first on the nonexistence curve DivergingIntegral.  Integrand k is
    1 / sqrt(V) on the piecewise map, V the sum of the row
    (omega_k, f1_l a_k^{e_l}); its value and error are a_k times those in x.
    """
    cells = []
    for omega in omegas:
        res = _require_profile(params, omega, gamma)
        if res.on_boundary:
            raise DivergingIntegral(
                "mass integral diverges on the nonexistence curve at "
                "omega=%g, gamma=%g" % (omega, gamma))
        cells.append((omega, gamma, res))
    quads = _quads(cells, "mass", _left_m(params), _MASS_TOL,
                   {gamma: terms(params, gamma)})
    return [replace(q, value=res.a * q.value, abs_error=res.a * q.abs_error)
            for q, (_, _, res) in zip(quads, cells)]


def mass_Q(params: NonlinearityParams, omega: float, gamma: float) -> float:
    """Profile mass integral Q = int_0^a sqrt(s)/sqrt(U(s)) ds.

    Raises NoStandingWave when no profile exists and DivergingIntegral when
    the profile sits on the nonexistence curve (double zero makes the
    integral infinite).
    """
    return _masses(params, [omega], gamma)[0].value


def eval_J_mass_fd(params: NonlinearityParams, omega: float,
                   gamma: float) -> StabilityValue:
    """J as a central difference of mass_Q in omega, Richardson-extrapolated.

    Step h = max(1e-4*omega, 1e-6) clamped to omega/2 and, where the case
    has a curve at gamma, to a quarter of the distance to omega_star, so
    the stencil keeps to the query's side of the curve; shrunk further if a
    stencil point falls outside the existence region.  The four stencil
    masses are one batch, at mass_Q's tolerance.  j is the extrapolated
    (4 d_{h/2} - d_h) / 3 of the steps h and h/2.  abs_error is the
    Richardson estimate plus the quadrature error of each difference
    amplified by its 1/(2h) or 1/h, and converged holds only when all four
    quadratures converged.  Raises UnsupportedRegime where j is not finite,
    as find_a does where the amplitude lies beyond the float range.
    """
    res = _require_profile(params, omega, gamma)
    if res.on_boundary:
        return _sentinel(params, omega, gamma, "mass_fd")
    h = min(max(1e-4 * omega, 1e-6), 0.5 * omega)
    try:
        h = min(h, 0.25 * abs(omega_star(params, gamma) - omega))
    except NotOnCurve:
        pass
    last_exc = None
    for _ in range(6):
        try:
            q = _masses(params, [omega + h, omega - h,
                                 omega + 0.5 * h, omega - 0.5 * h],
                        gamma)
        except (NoStandingWave, DivergingIntegral) as exc:
            last_exc = exc
            h *= 0.25
            continue
        d_h = (q[0].value - q[1].value) / (2.0 * h)
        d_h2 = (q[2].value - q[3].value) / h
        j = (4.0 * d_h2 - d_h) / 3.0
        if not math.isfinite(j):
            raise UnsupportedRegime("J by the mass difference is not finite "
                                    "at omega=%g, gamma=%g" % (omega, gamma))
        err = (abs(d_h - d_h2) / 3.0 + 1e-9 * abs(d_h2)
               + (q[0].abs_error + q[1].abs_error) / (2.0 * h)
               + (q[2].abs_error + q[3].abs_error) / h)
        return StabilityValue(j=j, abs_error=err,
                              diverging=False, method="mass_fd",
                              converged=all(x.converged for x in q))
    raise last_exc


# -- omega = 0 functional ----------------------------------------------------


def eval_J0(params: NonlinearityParams, gamma: float) -> StabilityValue:
    """J(0, gamma), the omega -> 0 limit; D* cases with p < 7/3 only.

    The transformed route's cell at omega = 0 and a = a0, the first zero
    of F1, where the left piece's exact constants are N = U'(a0) and
    D = 0.  Raises UnsupportedRegime for p >= 7/3 (the limit is -infinity
    there), NoStandingWave when F1 has no positive zero (DD with gamma at
    or above the endpoint value), and DivergingIntegral at a degenerate
    zero.
    """
    if params.sign1 != -1:
        raise ValueError("the omega = 0 functional applies to D* cases only")
    if params.p >= 7.0 / 3.0:
        raise UnsupportedRegime(
            "J(0, gamma) is not finite for p >= 7/3 (the limit is -infinity)")
    res = _profile(params, 0.0, gamma)
    if res is None:
        raise NoStandingWave(
            "no zero-frequency amplitude at gamma=%g (case %s)"
            % (gamma, params.case))
    if not res.exists:
        raise DivergingIntegral(
            "degenerate zero-frequency amplitude at gamma=%g" % gamma)
    sv, = _transformed(params, [(0.0, gamma, res)], "transformed")
    return replace(sv, method="omega_zero")
