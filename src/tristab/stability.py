"""The slope functional J(omega, gamma) = d/d omega of the profile mass.

Sign of J decides orbital stability of the standing wave: positive J means
stable, negative unstable.  Three independent evaluation routes are provided
so each can serve as an oracle for the others:

* ``eval_J``: the transformed integrand C * N(a,s)/D(a,s)^{3/2} on [0,1],
  split at s = 1/2 and integrated as one integrand in x on [0, 2].  On
  x in [0, 1], s = 1 - x^2/2 removes the (1-s)^{-1/2} endpoint, and N and
  D are sums of the differences 1 - s^e in expm1 form, which keep D's
  relative precision as it vanishes at s = 1.  On x in [1, 2],
  s = 0.5 (2 - x)^m flattens the endpoint at s = 0, and N and D are their
  exact values at s = 0, 2 omega + U'(a) and omega/2, less sums of
  powers s^e: sums of terms that can be 1e56 times omega/2 would leave only
  round-off there.  x = 1 is an edge of the first two panels, so no panel
  straddles the split.  ``eval_J_rows`` evaluates it at every omega of a
  block of gamma rows, with one batched quadrature for the whole block;
  ``eval_J_row`` is a block of one row and ``eval_J`` a block of one cell,
  so all three agree bit for bit.
* ``eval_J_raw``: the direct form
  (-1/(2U'(a))) * integral of (3 + s(U'(a)-U'(s))/U(s)) sqrt(s)/sqrt(U(s))
  over [0, a], on the same piecewise map, split at s = a/2.  With
  V = U(s)/s and W = U'(a) - U'(s) the integrand is (3 + W/V) / sqrt(V).
  On the right piece V and W are sums of the differences 1 - (s/a)^e in
  expm1 form, so the bracket does not cancel near s = a; on the left they
  are omega and U'(a) - omega less sums of powers of s/a, so they do not
  cancel as s -> 0, and m flattens the s^{(p-1)/2} end there.
* ``eval_J_mass_fd``: central finite difference of the mass integral
  ``mass_Q`` in omega at steps h and h/2, Richardson-extrapolated.  The mass
  integrand is 1 / sqrt(V) on the same map, with the raw route's V.  Where
  the case has a curve at gamma, the step is at most a quarter of the
  distance to omega_star(gamma), so the stencil keeps to the query's side
  of it.  Its four stencil masses run as one batched quadrature at
  rel_tol 3e-13, each equal to ``mass_Q`` alone bit for bit, and their
  quadrature errors enter its error bar.

The three routes share one map (``_piecewise``): x in [0, 2] in two
initial panels that meet at s = a/2, s = a (1 - x^2/2) on the right and
s = (a/2) (2 - x)^m on the left, m = ceil(2/(p-1)).

The abs_error of ``eval_J``, ``eval_J0`` and ``eval_J_raw`` adds to the
quadrature error two errors of the integrand that no quadrature sees.  The
first is the error J carries from a: the computed a is the exact zero at
an omega off by at most eps S, S = |omega| + sum |f1_l| a^{e_l}, and J
moves by |J| eps S (2 |a^2 F1''(a)| / U'(a)^2 + 1/|U'(a)|) with it; the
first part is one over the distance to the fold, the second the residual
in the prefactor's U'(a).  The second is the round-off of the integrand's
base where it nearly vanishes inside (0, a): at each local maximum c < a
of F1, omega - F1 dips to delta = omega - F1(c), whose float sum is off by
up to eps S(c), S(c) = |omega| + sum |f1_l| c^{e_l}, and J, which scales
as 1/delta there, by |J| eps S(c) / delta.

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
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

import numpy as np

from .boundary import omega_star
from .errors import DivergingIntegral, NoStandingWave, NotOnCurve, UnsupportedRegime
from .landscape import Terms, terms
from .model import NonlinearityParams
from .profile import ProfileResult, _f1_maxima, _profile, find_a
# every route batches with integrate_many; integrate stays importable here
# because perfbench's traced run wraps stability.integrate
from .quadrature import (QuadratureResult, integrate,  # noqa: F401
                         integrate_many)

_SQRT2 = math.sqrt(2.0)
_LN_HALF = math.log(0.5)
_EPS = float(np.finfo(float).eps)


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
        return B, P * np.exp(ln_half_m + (m - 1) * ln_t - power * np.log(B))

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


def _batch_integrand(e: Sequence[float], m: int,
                     rows: Sequence[Sequence[float]]) -> Callable:
    """The transformed route's integrand N / D^{3/2} on the piecewise map.

    Cell k has one row (n0, d0, cnp, cnq, cnr, cdp, cdq, cdr):
    N(a, 0) = 2 omega + U'(a), D(a, 0) = omega/2 and ``Terms.nd_row`` at its
    gamma and powers a_k^e.
    """
    return _piecewise(e, m, rows, _n_over_d, 1.5)


def _left_m(params: NonlinearityParams) -> int:
    """The left piece's m at omega > 0: its s^{(p-1)/2} terms are flat once
    m (p-1)/2 >= 1."""
    return math.ceil(2.0 / (params.p - 1.0))


def _scaled(powers, *triples) -> tuple:
    """The coefficients of each triple times the powers a^{e_l}."""
    return tuple(c * x for triple in triples for c, x in zip(triple, powers))


def _root_error(t: Terms, omega: float, up: float, powers) -> float:
    """Relative error that J carries from its amplitude a and from U'(a).

    The computed a is the exact first zero at an omega off by at most
    eps S, S = |omega| + sum |f1_l| a^{e_l}.  J grows like one over the
    distance to the fold, about U'(a)^2 / (2 |a^2 F1''(a)|) in omega, and
    its prefactor divides by U'(a), whose residual is of the same eps S.
    Python floats throughout: a row of one must not pay numpy's overhead.
    """
    size = abs(omega)
    curvature = 0.0  # a^2 F1''(a)
    for c, e, x in zip(t.f1, t.e, powers):
        size += abs(c) * x
        curvature += c * e * (e - 1.0) * x
    return _EPS * size * (2.0 * abs(curvature) / (up * up) + 1.0 / abs(up))


def _maxima_error(params: NonlinearityParams, omega: float, gamma: float,
                  a: float) -> float:
    """Relative error that J carries from the dips of its integrand's base.

    At a local maximum c < a of F1, omega - F1(s), and with it D(a, s/a)
    and V, dips to delta = omega - F1(c), and the part of J near c scales
    as 1/delta.  Their float sums are off by up to eps S(c),
    S(c) = |omega| + sum |f1_l| c^{e_l}, so J is off by eps S(c) / delta
    relative.  c, F1(c) and the sum come from the cache beside F1's
    critical points.
    """
    err = 0.0
    for c, f1_c, size in _f1_maxima(params, gamma):
        if c < a and omega > f1_c:
            err += _EPS * (abs(omega) + size) / (omega - f1_c)
    return err


# -- transformed route -------------------------------------------------------


def _transformed(params: NonlinearityParams, cells,
                 rel_tol: float) -> List[StabilityValue]:
    """J at each (omega, gamma, profile) cell.

    A None profile gives NaN and a profile on the curve the signed
    sentinel; every other cell goes into one ``integrate_many`` call over
    x in [0, 2], whose two initial panels meet at the split x = 1.  A cell
    takes its N/D row from the terms at its own gamma and its profile.
    The cells of one call are all at omega > 0 or all at omega = 0, which
    decides the left piece's m.  abs_error is the quadrature error times
    |C| plus |J| times ``_root_error`` and ``_maxima_error``.
    """
    out = [None] * len(cells)
    waves = []
    for i, (omega, gamma, res) in enumerate(cells):
        if res is None:
            out[i] = StabilityValue(j=math.nan, abs_error=math.nan,
                                    diverging=False, method="transformed")
        elif res.on_boundary:
            out[i] = _sentinel(params, omega, gamma, "transformed")
        else:
            waves.append(i)
    if not waves:
        return out
    tables = [terms(params, cells[i][1]) for i in waves]
    e = tables[0].e  # the exponents depend on p, q, r alone
    powers = [[cells[i][2].a ** x for x in e] for i in waves]
    rows = []
    for i, t, pw in zip(waves, tables, powers):
        omega, _, res = cells[i]
        rows.append((2.0 * omega + res.uprime_at_a, 0.5 * omega)
                    + t.nd_row(pw))
    # at omega = 0 the left end blows up like s^{-3(p-1)/4} (p < 7/3),
    # flattened with a margin of one
    if cells[waves[0]][0] > 0.0:
        m = _left_m(params)
    else:
        m = max(2, math.ceil(4.0 / (7.0 - 3.0 * params.p)) + 1)
    quads = integrate_many(_batch_integrand(e, m, rows), 0.0, 2.0,
                           len(waves), rel_tol=rel_tol, max_panels=2000,
                           initial=2)
    for i, t, quad, pw in zip(waves, tables, quads, powers):
        omega, gamma, res = cells[i]
        C = -res.a / (4.0 * _SQRT2 * res.uprime_at_a)
        j = C * quad.value
        err = (abs(C) * quad.abs_error
               + abs(j) * (_root_error(t, omega, res.uprime_at_a, pw)
                           + _maxima_error(params, omega, gamma, res.a)))
        out[i] = StabilityValue(j=j, abs_error=err, diverging=False,
                                method="transformed",
                                converged=quad.converged)
    return out


def eval_J(params: NonlinearityParams, omega: float, gamma: float,
           rel_tol: float = 1e-9) -> StabilityValue:
    """J via the transformed integrand at one point: a block of one cell."""
    res = _require_profile(params, omega, gamma)
    return _transformed(params, [(omega, gamma, res)], rel_tol)[0]


def eval_J_rows(params: NonlinearityParams, omegas: Sequence[float],
                gammas: Sequence[float],
                rel_tol: float = 1e-9) -> List[List[StabilityValue]]:
    """eval_J at every omega of each gamma row, the route of grid sweeps.

    Each value equals scalar ``eval_J`` at the same floats bit for bit; a
    point with no standing wave gives j = NaN instead of raising.  The
    profiles are found one by one and the quadratures of all rows run as
    one batch.
    """
    omegas = [float(w) for w in omegas]
    gammas = [float(g) for g in gammas]
    values = _transformed(params, [(w, g, find_a(params, w, g))
                                   for g in gammas for w in omegas], rel_tol)
    n = len(omegas)
    return [values[i * n:(i + 1) * n] for i in range(len(gammas))]


def eval_J_row(params: NonlinearityParams, omegas: Sequence[float],
               gamma: float, rel_tol: float = 1e-9) -> List[StabilityValue]:
    """``eval_J_rows`` on the one gamma row."""
    return eval_J_rows(params, omegas, [gamma], rel_tol)[0]


# -- raw route ---------------------------------------------------------------


def eval_J_raw(params: NonlinearityParams, omega: float, gamma: float,
               rel_tol: float = 1e-9) -> StabilityValue:
    """J via the direct integrand on [0, a]; a check on the transformed route.

    (-1/(2U'(a))) times the integral of (3 + W/V) / sqrt(V) ds with
    V = U(s)/s and W = U'(a) - U'(s), on the piecewise map: a times the
    integral in x, with V and W the sums of rows (omega, U'(a) - omega,
    f1_l a^{e_l}, up_l a^{e_l}).  abs_error carries the same
    ``_root_error`` and ``_maxima_error`` as ``eval_J``.
    """
    res = _require_profile(params, omega, gamma)
    if res.on_boundary:
        return _sentinel(params, omega, gamma, "raw")
    a, up = res.a, res.uprime_at_a
    t = terms(params, gamma)
    powers = [a ** e for e in t.e]
    row = (omega, up - omega) + _scaled(powers, t.f1, t.up)
    quad, = integrate_many(_piecewise(t.e, _left_m(params), [row],
                                      _raw_bracket, 0.5),
                           0.0, 2.0, 1, rel_tol=rel_tol, max_panels=2000,
                           initial=2)
    pref = -a / (2.0 * up)
    j = pref * quad.value
    err = (abs(pref) * quad.abs_error
           + abs(j) * (_root_error(t, omega, up, powers)
                       + _maxima_error(params, omega, gamma, a)))
    return StabilityValue(j=j, abs_error=err, diverging=False, method="raw",
                          converged=quad.converged)


# -- mass and finite-difference route ----------------------------------------


# the stencil masses' tolerance: their errors enter J's bar times 1/h
_MASS_TOL = 3e-13


def _masses(params: NonlinearityParams, omegas: Sequence[float],
            gamma: float, rel_tol: float) -> List[QuadratureResult]:
    """The mass integral at every omega of one gamma, as one batch.

    Every profile is found before anything is integrated, in the order of
    omegas, so the first omega without a wave raises NoStandingWave and the
    first on the nonexistence curve DivergingIntegral.  Integrand k is
    1 / sqrt(V) on the piecewise map, V the sum of the row
    (omega_k, f1_l a_k^{e_l}); its value and error are a_k times those in x.
    """
    amplitudes = []
    for omega in omegas:
        res = _require_profile(params, omega, gamma)
        if res.on_boundary:
            raise DivergingIntegral(
                "mass integral diverges on the nonexistence curve at "
                "omega=%g, gamma=%g" % (omega, gamma))
        amplitudes.append(res.a)
    t = terms(params, gamma)
    rows = [(omega,) + _scaled([a ** e for e in t.e], t.f1)
            for omega, a in zip(omegas, amplitudes)]
    quads = integrate_many(_piecewise(t.e, _left_m(params), rows, _unit, 0.5),
                           0.0, 2.0, len(omegas), rel_tol=rel_tol,
                           max_panels=2000, initial=2)
    return [replace(q, value=a * q.value, abs_error=a * q.abs_error)
            for q, a in zip(quads, amplitudes)]


def mass_Q(params: NonlinearityParams, omega: float, gamma: float,
           rel_tol: float = _MASS_TOL) -> float:
    """Profile mass integral Q = int_0^a sqrt(s)/sqrt(U(s)) ds.

    Raises NoStandingWave when no profile exists and DivergingIntegral when
    the profile sits on the nonexistence curve (double zero makes the
    integral infinite).
    """
    return _masses(params, [omega], gamma, rel_tol)[0].value


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
    quadratures converged.
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
                        gamma, _MASS_TOL)
        except (NoStandingWave, DivergingIntegral) as exc:
            last_exc = exc
            h *= 0.25
            continue
        d_h = (q[0].value - q[1].value) / (2.0 * h)
        d_h2 = (q[2].value - q[3].value) / h
        err = (abs(d_h - d_h2) / 3.0 + 1e-9 * abs(d_h2)
               + (q[0].abs_error + q[1].abs_error) / (2.0 * h)
               + (q[2].abs_error + q[3].abs_error) / h)
        return StabilityValue(j=(4.0 * d_h2 - d_h) / 3.0, abs_error=err,
                              diverging=False, method="mass_fd",
                              converged=all(x.converged for x in q))
    raise last_exc


# -- omega = 0 functional ----------------------------------------------------


def eval_J0(params: NonlinearityParams, gamma: float,
            rel_tol: float = 1e-9) -> StabilityValue:
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
    sv, = _transformed(params, [(0.0, gamma, res)], rel_tol)
    return replace(sv, method="omega_zero")
