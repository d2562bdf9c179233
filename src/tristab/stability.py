"""The slope functional J(omega, gamma) = d/d omega of the profile mass.

Sign of J decides orbital stability of the standing wave: positive J means
stable, negative unstable.  ``eval_J`` answers; two more routes check it:

* ``eval_J``: the transformed integrand C * N(a,s)/D(a,s)^{3/2} on [0,1],
  in two forms split at s = 1/2.  From 1/2 on, N and D are sums of the
  differences 1 - s^e in expm1 form, which keep D's relative precision as
  it vanishes at s = 1.  Below 1/2 they are their exact values at s = 0,
  2 omega + U'(a) and omega/2, less sums of powers s^e: sums of terms that
  can be 1e56 times omega/2 would leave only round-off there.
  ``eval_J_rows`` evaluates it at every omega of a block of gamma rows in
  one batch, ``eval_J`` at one cell; no value depends on its batch, so the
  two agree bit for bit.  A cell with no wave, or with an amplitude beyond
  the float range, is NaN in a block.  The batch fills the columns j,
  abs_error, diverging and converged, which the routes wrap in
  StabilityValues and a sweep reads j from, building no object per cell.
* ``eval_J_raw``: a block of one cell of the direct form
  (-1/(2U'(a))) * integral of (3 + s(U'(a)-U'(s))/U(s)) sqrt(s)/sqrt(U(s))
  over [0, a].  With V = U(s)/s and W = U'(a) - U'(s) the integrand is
  (3 + W/V) / sqrt(V), with V and W in the same two forms as N and D.  As
  N = 6D + W and V = 2D, this is the transformed integrand times a
  constant, always on the adaptive kernel, where eval_J never runs at
  omega > 0: it checks the coefficients and the quadrature.
* ``eval_J_mass_fd``: central finite difference of the mass integral
  ``mass_Q`` (integrand 1 / sqrt(V)) in omega at steps h and h/2,
  Richardson-extrapolated.  Where the case has a curve at gamma, the step
  is at most a quarter of the distance to omega_star(gamma), so the
  stencil keeps to the query's side of it.  Its four stencil masses run as
  one batch at relative tolerance 3e-13 on the tanh-sinh kernel, split at
  c on the dip branch (below), each equal to ``mass_Q`` alone bit for bit,
  and their quadrature errors enter its error bar.

A private route table (``_ROUTES``) gives each route its row (constants
from omega and U'(a), then coefficient triples of the terms times
a^{e_l}), its form, the power of its base, the k of its prefactor
-a / (k U'(a)) and its relative tolerance.  ``_rows`` builds the rows of a
batch of cells, and three kernels integrate them.  Each cell takes its
kernel and the left piece's m (``_left_m``) from its route and its own
omega, so one batch may mix cells at omega > 0 and at omega = 0.
eval_J's cells at omega > 0 and every mass take the tanh-sinh kernel
(``quadrature._tanh_sinh``) in sigma = s/a itself: its nodes
v = 1/(1 + exp(-pi sinh u)) are given by their distance to either end, so
they need no map.  One dispatcher (``_de_cells``) and one integrand
builder (``_de_integrand``) serve every such cell, and a batch's cells run
as one ``_tanh_sinh`` call, level by level as arrays of up to 64
integrands.  Where F1 has no local maximum below a (every FD, DD and DF
cell, and the FF cells off the dip branch) a cell is one integrand over
(0, 1).  On FF's dip branch, where F1 has a local maximum c < a, the
integrand peaks at c with width sqrt(2 (omega - F1(c)) / |F1''(c)|).  The
fixed rule (``_rule``) takes eval_J's cells there where omega - F1(c) is
at least 1e-3 omega and the terms of D stay below 1e6 omega/2:
Gauss-Legendre with 32 and 64 nodes on each piece of the map below,
sinh-mapped at c on c's piece, with m at least 3, keeping the 64-node
value where the two agree to the tolerance.  Every other dip cell, the
cells the rule flags and every mass on the dip branch, is split at c: two
integrands, sigma = gc (1 - v) and sigma = gc + (1 - gc) v with gc = c/a,
whose nodes are given by their distance to c.  Next to c the sums of a
row are taken about c, where D and V dip to delta/2 and delta,
delta = omega - F1(c), and keep their relative precision there.
The adaptive kernel (``_quads``, one ``integrate`` call per cell on
``_integrand``, from the two panels that meet at x = 1) takes the raw
route's cells and the transformed route's at omega = 0 (eval_J0).  Its map
(``_piecewise``), which the rule shares, is x in [0, 2], split at s = a/2
(x = 1), s = a (1 - x^2/2) on the right, which removes the (1-s)^{-1/2}
end, and s = (a/2) (2 - x)^m on the left, at omega > 0 with
m = min(ceil(2/(p-1)), 256), which flattens the s^{(p-1)/2} end at s = 0.
The term table, with F1's maxima, is looked up once per gamma.

The abs_error of ``eval_J``, ``eval_J0`` and ``eval_J_raw`` adds to the
quadrature error (the rule's is |Q_64 - Q_32| and the tanh-sinh kernel's
|Q_k - Q_{k-1}|, each plus 50 eps times the integral of |f|, summed over
a split cell's two pieces with their weights gc and 1 - gc) two errors of
the integrand that no quadrature sees.  The first is the error J carries
from a: the computed a is the exact zero at an omega off by at most eps S,
S = |omega| + sum |f1_l| a^{e_l}, and J moves by
|J| eps S (2 |a^2 F1''(a)| / U'(a)^2 + 1/|U'(a)|) with it; the first part
is one over the distance to the fold, the second the residual in the
prefactor's U'(a).  The second is the round-off of the integrand's
base where it nearly vanishes inside (0, a): at each local maximum c < a
of F1, omega - F1 dips to delta = omega - F1(c), whose float sum is off by
up to eps S(c), S(c) = |omega| + sum |f1_l| c^{e_l}, and J, which scales
as 1/delta there, by |J| eps S(c) / delta.  A quadrature that underflows
to 0 +- 0 is not converged, so J reads indeterminate there.

For defocusing-lowest-power (D*) cases with p < 7/3, the omega -> 0 limit
J(0, gamma) is finite.  ``eval_J0`` computes it as the transformed route's
cell at omega = 0 and a = a0, the first zero of F1; there the integrand
blows up like s^{-3(p-1)/4} at s = 0, which the left piece's
m = ceil(4/(7 - 3p)) + 1 flattens, capped at _MAX_M as at omega > 0.
Within 0.0053 of p = 7/3 the cap leaves the end steeper than the kernel
resolves, and the value reads unconverged.

Near the nonexistence curve the integral genuinely diverges; evaluation is
skipped there and a signed infinity sentinel is returned (positive on the
lower-left side, negative on the FF upper-right side).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

import numpy as np

from .boundary import omega_star
from .errors import DivergingIntegral, NoStandingWave, NotOnCurve, UnsupportedRegime
from .landscape import Terms, terms
from .model import NonlinearityParams
from .profile import ProfileResult, _profile, find_a
from .quadrature import (QuadratureResult, _gauss_legendre, _rule_sums,
                         _tanh_sinh, integrate)

_SQRT2 = math.sqrt(2.0)
_LN_HALF = math.log(0.5)
_EPS = float(np.finfo(float).eps)

# the quadratures' relative tolerances: J's on the transformed and raw
# routes, and the stencil masses', whose errors enter J's bar times 1/h
_J_TOL = 1e-9
_MASS_TOL = 3e-13

# eval_J's fixed rule: its n, the choice of its cells (``_dip``) and its
# batch, which keeps a sweep block's arrays small (a whole block of 256
# cells raised the FF(2,3,4) 24x24 sweep's peak RSS by 4 MB)
_RULE_NODES = 32
_DIP_DEPTH = 1e-3
_RATIO_CAP = 1e6
_RULE_BATCH = 40

# the largest stretch m of the left piece (``_left_m``)
_MAX_M = 256


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
        if self.diverging or abs(self.j) > self.abs_error:
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
    elementwise; a batch of one cell ignores cells, and ``integrate`` takes
    it as g(x, None).  A panel lies on one side of x = 1 and takes that
    side's form alone.
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


def _left_m(params: NonlinearityParams, omega: float) -> int:
    """The left piece's m at omega, capped at _MAX_M.  At omega > 0 its
    s^{(p-1)/2} terms are flat once m (p-1)/2 >= 1, which needs no more than
    _MAX_M at p >= 1 + 2/_MAX_M; below that the kernels resolve the ends: a
    larger m would crush the piece into a layer at x = 1 that no panel
    sees.  At omega = 0 the end blows up like s^{-3(p-1)/4} (p < 7/3),
    flattened with a margin of one."""
    if omega > 0.0:
        return min(math.ceil(2.0 / (params.p - 1.0)), _MAX_M)
    return min(max(2, math.ceil(4.0 / (7.0 - 3.0 * params.p)) + 1), _MAX_M)


# the route table of the module docstring; a mass is a times its integral,
# with no k
_Route = namedtuple("_Route", "consts coefs form power k tol")
_ROUTES = {
    # N and D at s = 0: 2 omega + U'(a) and omega/2
    "transformed": _Route(lambda omega, up: (2.0 * omega + up, 0.5 * omega),
                          ("n", "d"), _n_over_d, 1.5, 4.0 * _SQRT2, _J_TOL),
    # V = U(s)/s and W = U'(a) - U'(s) at s = 0: omega and U'(a) - omega
    "raw": _Route(lambda omega, up: (omega, up - omega), ("f1", "up"),
                  _raw_bracket, 0.5, 2.0, _J_TOL),
    "mass": _Route(lambda omega, up: (omega,), ("f1",), _unit, 0.5, None,
                   _MASS_TOL),
}


def _rows(cells, route: str, tables, at_c: bool = False) -> list:
    """The route's row at each (omega, gamma, profile) cell, from the term
    tables by gamma and each profile's a^{e_l}.

    With at_c, the row of its sums about F1's first local maximum c: the
    triples times c^{e_l}, and as constants the sums at s = c, which are
    the route's constants at delta = omega - F1(c), since U'(c) = delta
    where F1'(c) = 0.
    """
    consts, coefs = _ROUTES[route][:2]
    triples = {g: [getattr(t, c) for c in coefs] for g, t in tables.items()}
    if at_c:
        peaks = {g: (t.maxima[0][1], [t.maxima[0][0] ** x for x in t.e])
                 for g, t in tables.items() if t.maxima}
    rows = []
    for omega, gamma, res in cells:
        if at_c:
            f1_c, (x0, x1, x2) = peaks[gamma]
            row = consts(omega - f1_c, res.uprime_at_a)
        else:
            x0, x1, x2 = res.powers
            row = consts(omega, res.uprime_at_a)
        for c0, c1, c2 in triples[gamma]:
            row += (c0 * x0, c1 * x1, c2 * x2)
        rows.append(row)
    return rows


def _integrand(cells, route: str, m: int, tables):
    """``_piecewise``'s g of the route at each (omega, gamma, profile)
    cell."""
    form, power = _ROUTES[route][2:4]
    e = tables[cells[0][1]].e  # the exponents depend on p, q, r alone
    return _piecewise(e, m, _rows(cells, route, tables), form, power)


def _de_integrand(route: str, e: Sequence[float], rows, peaks=(), spans=()):
    """The route's integrands in sigma on (0, 1), as
    ``quadrature._tanh_sinh`` takes them.

    rows holds each cell's row at a, the one-piece cells first; the last
    len(spans), the dip cells, have their rows at c in peaks (``_rows``)
    and (r, 1 - gc) in spans, gc = c/a and r = (a - c)/c.  Integrand i < k
    is one-piece cell i, sigma = v; then come piece 0 of each dip cell,
    sigma = gc (1 - v), and its piece 1, sigma = gc + (1 - gc) v, without
    their Jacobians gc and 1 - gc.  A node comes as ln v and ln(1 - v), so
    a piece's nodes are given by their distance to c: x = s - c is
    x/c = -v on piece 0 and r v on piece 1.  Below v = 1/2 and from it, a
    sum of the row is taken about one point (one piece: 0, then a;
    piece 0: c, then 0; piece 1: c, then a):

    * about 0, its constant at 0 less the triples times sigma^{e_l}, as
      exp(e_l ln v) at a or exp(e_l ln(1 - v)) at c, whose terms need not
      cancel where they are far larger than that constant;
    * about a, the triples at a times
      1 - sigma^{e_l} = -expm1(e_l log1p(-(1 - sigma))), which keeps its
      relative precision as sigma -> 1;
    * about c, its value at c less the triples at c times
      expm1(e_l log1p(x/c)), which keeps D's and V's relative precision
      where they dip to delta/2 and delta, delta = omega - F1(c).

    The nodes resolve both ends down to 5e-62, and the weight w is the only
    Jacobian.  The bases of the one piece and piece 0 depend on the nodes
    alone and are built once per call; piece 1's depends on its spans.
    """
    form, power = _ROUTES[route][2:4]
    whole = int(power)
    K = len(rows[0]) // 4  # the number of sums
    k, m = len(rows) - len(spans), len(spans)
    at_a = np.array(rows).T
    # a block of one cell on one piece multiplies by plain floats, as
    # ``_piecewise`` does: broadcasting (1, 1) columns made eval_J 7% slower
    one = len(rows) == 1 and not spans
    # each kind present: its first integrand and the one past its last, its
    # columns (the constants about its point below 1/2 first), and the
    # columns of its triples below and from 1/2 and of its constants from
    # 1/2, if any.  Columns: the one piece, the constants at 0 and the
    # triples at a; piece 0, the constants at c and at 0 and the triples at
    # c; piece 1, the constants and triples at c, the triples at a, r and
    # 1 - gc
    kinds = [(0, k, rows[0] if one else at_a[:, :k, None], K, K,
              None)] if k else []
    if spans:
        at_c, dip_a = np.array(peaks).T, at_a[:, k:]
        kinds += [
            (k, k + m, np.concatenate((at_c[:K], dip_a[:K], at_c[K:]))[
                :, :, None], 2 * K, 2 * K, K),
            (k + m, k + 2 * m, np.concatenate((
                at_c, dip_a[K:], np.array(spans).T))[:, :, None],
             K, 4 * K, None)]

    def nodes(ln_v, ln_w, w):
        n = len(ln_v) // 2  # the nodes below 1/2: u = 0 is v = 1/2
        w_far = np.exp(ln_w[n:])
        # the shared bases, negated; piece 1's is built per block of cells
        bases = [_basis(e, ln_v[:n], np.log1p(-w_far), np.exp,
                        np.expm1)] if k else []
        if spans:
            v_near = np.exp(ln_v[:n])
            bases += [_basis(e, ln_w[:n], ln_w[n:], np.expm1, np.exp), None]

        def sums(c, B, near, far, above):
            out = []
            for j in range(K):
                t, u = near + 3 * j, far + 3 * j
                if t == u:  # one triple: one product over the row
                    S = c[t] * B[0]
                    S += c[t + 1] * B[1]
                    S += c[t + 2] * B[2]
                else:
                    S = np.empty(B.shape[1:])
                    for i, lo, hi in ((t, 0, n), (u, n, None)):
                        part = B[..., lo:hi]
                        S[..., lo:hi] = (c[i] * part[0] + c[i + 1] * part[1]
                                         + c[i + 2] * part[2])
                S[..., :n] += c[j]
                if above is not None:
                    S[..., n:] += c[above + j]
                out.append(S)
            return out

        def values(cells):
            # cells ascend, so each kind's are a slice of them
            parts, lo = [], 0
            for (first, end, table, near, far, above), B in zip(kinds, bases):
                hi = bisect_left(cells, end, lo)
                if lo == hi:
                    continue
                some, lo = cells[lo:hi], hi
                if one:
                    c = table
                elif some[-1] - some[0] == len(some) - 1:  # a run: a view
                    c = table[:, some[0] - first:some[-1] + 1 - first]
                else:
                    c = table[:, [i - first for i in some]]
                if B is None:
                    B = _basis(e, np.log1p(c[-2] * v_near),
                               np.log1p(-c[-1] * w_far), np.expm1, np.expm1)
                parts.append(_weighted(form, whole,
                                       sums(c, B, near, far, above), w))
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        return values

    return nodes


def _basis(e: Sequence[float], near, far, f_near: Callable, f_far: Callable):
    """-f(e_l y) at each exponent e_l of e and each y of near, then of far
    (joined on their last axis), with f_near on the first and f_far on the
    second."""
    B = np.multiply.outer(e, np.concatenate((near, far), axis=-1))
    n = near.shape[-1]
    f_near(B[..., :n], out=B[..., :n])
    f_far(B[..., n:], out=B[..., n:])
    return np.negative(B, out=B)


def _weighted(form: Callable, whole: int, sums, w):
    """P w / B^power where B > 0, else 0, with (B, P) = form(sums), a
    route's form, and B^power as sqrt(B) times B once per whole power."""
    B, P = form(sums)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = np.sqrt(B)
        for _ in range(whole):
            f *= B
        np.divide(P * w, f, out=f)
    f[~(B > 0.0)] = 0.0
    return f


def _quads(cell, route: str, m: int, tables) -> QuadratureResult:
    """The route's integral in x at one cell: one ``integrate`` call over x
    in [0, 2], whose two initial panels meet at the split x = 1."""
    g = _integrand([cell], route, m, tables)
    return integrate(lambda x: g(x, None), 0.0, 2.0,
                     rel_tol=_ROUTES[route].tol, max_panels=2000, initial=2)


def _de_cells(cells, index, route: str, tables) -> dict:
    """The route's integral in sigma at each cell of index by one
    ``_tanh_sinh`` call, as a dict by index.

    Only in FF does F1 reach omega past a local maximum c < a, on the dip
    branch, where the integrand peaks at c.  Such a cell is two integrands,
    its pieces split at gc = c/a (``_de_integrand``); its value and error
    are gc times piece 0's plus (1 - gc) times piece 1's, it is converged
    when both pieces are, and its n_panels and stop are those of its deeper
    piece, or of a piece that did not converge.  Every other cell is one
    integrand on (0, 1).
    """
    if not index:
        return {}
    smooth, dips, spans, gcs = [], [], [], []
    for i in index:
        _, gamma, res = cells[i]
        maxima = tables[gamma].maxima
        if maxima and maxima[0][0] < res.a:
            c = maxima[0][0]
            dips.append(i)
            spans.append(((res.a - c) / c, (res.a - c) / res.a))
            gcs.append(c / res.a)
        else:
            smooth.append(i)
    some = [cells[i] for i in smooth + dips]
    k, m = len(smooth), len(dips)
    e = tables[some[0][1]].e  # the exponents depend on p, q, r alone
    quads = _tanh_sinh(_de_integrand(
        route, e, _rows(some, route, tables),
        m and _rows(some[k:], route, tables, at_c=True), spans), k + 2 * m,
        _ROUTES[route].tol)
    out = dict(zip(smooth, quads))
    for i, gc, (_, hc), q0, q1 in zip(dips, gcs, spans, quads[k:],
                                      quads[k + m:]):
        last = max((q0, q1), key=lambda q: (not q.converged, q.n_panels))
        out[i] = QuadratureResult(
            gc * q0.value + hc * q1.value,
            gc * q0.abs_error + hc * q1.abs_error, last.n_panels,
            q0.converged and q1.converged, last.stop)
    return out


def _dip(cell, tables):
    """(c, omega - F1(c), F1''(c)) at F1's local maximum c < a where the
    fixed rule takes the cell, else None; tables by gamma."""
    omega, gamma, res = cell
    t = tables[gamma]
    if t.maxima and t.maxima[0][0] < res.a:
        c, f1_c, _, curvature = t.maxima[0]
        (d0, d1, d2), (x0, x1, x2) = t.d, res.powers
        if (omega - f1_c >= _DIP_DEPTH * omega and abs(d0) * x0
                + abs(d1) * x1 + abs(d2) * x2 < 0.5 * _RATIO_CAP * omega):
            return c, omega - f1_c, curvature
    return None


def _rule(cells, dips, m: int, tables) -> list:
    """The transformed route's Q_2n at each cell of dips (``_dip``), or None
    where it and Q_n differ by more than the route's tolerance, or where the
    dip's width b is not a positive finite float (F1''(c) can overflow).

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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b = (2.0 * np.sqrt(-2.0 * delta / curvature)
             / (a * np.where(right, x_c, 0.5 * m * t ** (m - 1))))
    width = (b > 0.0) & (b < math.inf)
    b = np.where(width, b, 1.0)
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
    tol = _ROUTES["transformed"].tol
    return [QuadratureResult(q2, abs(q2 - q1) + 50.0 * _EPS * q_abs, 2, True,
                             "rule") if ok and abs(q2 - q1) <= tol * abs(q2)
            else None for ok, q1, q2, q_abs in zip(width[:, 0], *sums)]


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
    term table (``landscape.Terms.maxima``).
    """
    err = 0.0
    for c, f1_c, size, _ in maxima:
        if c < a and omega > f1_c:
            err += _EPS * (abs(omega) + size) / (omega - f1_c)
    return err


# -- the J routes ------------------------------------------------------------


def _transformed(params: NonlinearityParams, cells, route: str):
    """J by the transformed or the raw route at each (omega, gamma, profile)
    cell, as the columns j, abs_error, diverging and converged.

    A None profile gives NaN, NaN, not diverging, converged, and a profile
    on the curve the signed infinity, inf, diverging, converged.  Each wave
    takes its kernel from its route and its omega (module docstring): the
    transformed route's waves at omega > 0 go to ``_rule`` where ``_dip``
    accepts them, and the rest of them, the cells it flags included, to one
    ``_de_cells`` call; raw waves, and waves at omega = 0 (eval_J0), take
    ``_quads`` with the left piece's m of their omega.  abs_error is the
    quadrature error times the prefactor plus |J| times ``_root_error`` and
    ``_maxima_error``.
    """
    n = len(cells)
    js, errs = [math.nan] * n, [math.nan] * n
    diverging, converged = [False] * n, [True] * n
    fast, slow = [], []  # the waves of the tanh-sinh and adaptive kernels
    for i, (omega, gamma, res) in enumerate(cells):
        if res is not None and res.on_boundary:
            js[i] = _divergence_sign(params, omega, gamma) * math.inf
            errs[i], diverging[i] = math.inf, True
        elif res is not None:
            (fast if route == "transformed" and omega > 0.0
             else slow).append(i)
    k = _ROUTES[route].k
    tables = {g: terms(params, g) for g in {cells[i][1] for i in fast + slow}}
    dips = [(i, dip) for i in fast
            if (dip := _dip(cells[i], tables)) is not None]
    done = {}
    for j in range(0, len(dips), _RULE_BATCH):
        index, batch = zip(*dips[j:j + _RULE_BATCH])
        # at omega > 0 the left piece's m depends on p alone
        m = max(3, _left_m(params, cells[index[0]][0]))
        done.update(iq for iq in zip(index, _rule(
            [cells[i] for i in index], batch, m, tables)) if iq[1])
    if fast:
        done.update(_de_cells(cells, [i for i in fast if i not in done],
                              route, tables))
    for i in slow:
        done[i] = _quads(cells[i], route, _left_m(params, cells[i][0]), tables)
    for i, quad in done.items():
        omega, gamma, res = cells[i]
        t = tables[gamma]
        pref = -res.a / (k * res.uprime_at_a)
        js[i] = j = pref * quad.value
        errs[i] = (abs(pref) * quad.abs_error
                   + abs(j) * (_root_error(t, omega, res.uprime_at_a,
                                           res.powers)
                               + _maxima_error(t.maxima, omega, res.a)))
        # an integral that underflows to 0 +- 0 has not converged to zero
        converged[i] = quad.converged and (quad.value != 0.0
                                           or quad.abs_error != 0.0)
    return js, errs, diverging, converged


def _values(columns, method: str) -> List[StabilityValue]:
    """``_transformed``'s columns as StabilityValues tagged method."""
    return [StabilityValue(j, err, div, method, conv)
            for j, err, div, conv in zip(*columns)]


def eval_J(params: NonlinearityParams, omega: float,
           gamma: float) -> StabilityValue:
    """J via the transformed integrand at one point: a block of one cell."""
    res = _require_profile(params, omega, gamma)
    return _values(_transformed(params, [(omega, gamma, res)],
                                "transformed"), "transformed")[0]


def _find_a_in_range(params: NonlinearityParams, omega: float, gamma: float):
    """find_a, with None where the amplitude lies beyond the float range."""
    try:
        return find_a(params, omega, gamma)
    except UnsupportedRegime:
        return None


def _block_columns(params: NonlinearityParams, omegas: Sequence[float],
                   gammas: Sequence[float]):
    """``_transformed``'s columns at every omega of each gamma row, row-major,
    with each profile from the module's ``find_a``: a sweep block's batch."""
    return _transformed(params, [(w, g, _find_a_in_range(params, w, g))
                                 for g in gammas for w in omegas],
                        "transformed")


def eval_J_rows(params: NonlinearityParams, omegas: Sequence[float],
                gammas: Sequence[float]) -> List[List[StabilityValue]]:
    """eval_J at every omega of each gamma row.

    Each value equals scalar ``eval_J`` at the same floats bit for bit.  A
    point with no standing wave, or whose amplitude lies beyond the float
    range, gives j = NaN where scalar ``eval_J`` raises NoStandingWave or
    UnsupportedRegime.
    """
    omegas = [float(w) for w in omegas]
    gammas = [float(g) for g in gammas]
    values = _values(_block_columns(params, omegas, gammas), "transformed")
    n = len(omegas)
    return [values[i * n:(i + 1) * n] for i in range(len(gammas))]


def eval_J_raw(params: NonlinearityParams, omega: float,
               gamma: float) -> StabilityValue:
    """J via the direct integrand (3 + W/V) / sqrt(V) on [0, a], a check on
    the transformed route: a block of one cell of the raw route, whose
    abs_error is built as ``eval_J``'s."""
    res = _require_profile(params, omega, gamma)
    return _values(_transformed(params, [(omega, gamma, res)], "raw"),
                   "raw")[0]


# -- mass and finite-difference route ----------------------------------------


def _masses(params: NonlinearityParams, omegas: Sequence[float],
            gamma: float) -> List[QuadratureResult]:
    """The mass integral at every omega of one gamma, as one batch.

    Every profile is found before anything is integrated, in the order of
    omegas, so the first omega without a wave raises NoStandingWave and the
    first on the nonexistence curve DivergingIntegral.  Integrand k is
    1 / sqrt(V), V the sum of the row (omega_k, f1_l a_k^{e_l}), in sigma
    on the tanh-sinh kernel, all in one ``_de_cells`` call: on two pieces
    split at c where F1 has a local maximum c < a_k, else on one.  Its
    value and error are a_k times those in sigma.
    """
    cells = []
    for omega in omegas:
        res = _require_profile(params, omega, gamma)
        if res.on_boundary:
            raise DivergingIntegral(
                "mass integral diverges on the nonexistence curve at "
                "omega=%g, gamma=%g" % (omega, gamma))
        cells.append((omega, gamma, res))
    tables = {gamma: terms(params, gamma)}
    quads = _de_cells(cells, range(len(cells)), "mass", tables)
    return [replace(quads[i], value=res.a * quads[i].value,
                    abs_error=res.a * quads[i].abs_error)
            for i, (_, _, res) in enumerate(cells)]


def mass_Q(params: NonlinearityParams, omega: float, gamma: float) -> float:
    """Profile mass integral Q = int_0^a sqrt(s)/sqrt(U(s)) ds.

    A bare float with no error bar, neither the quadrature's nor that of
    the amplitude a.  Raises NoStandingWave when no profile exists and
    DivergingIntegral when the profile sits on the nonexistence curve
    (double zero makes the integral infinite).
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
        return StabilityValue(_divergence_sign(params, omega, gamma)
                              * math.inf, math.inf, True, "mass_fd")
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
    return _values(_transformed(params, [(0.0, gamma, res)], "transformed"),
                   "omega_zero")[0]
