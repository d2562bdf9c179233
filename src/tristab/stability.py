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
  over [0, a], with the (a-s)^{-1/2} endpoint removed by s = a - u^2.
  U(s)/s and U'(a) - U'(s) are sums of the differences 1 - (s/a)^e in
  expm1/log1p form, so the bracket does not cancel near s = a.
* ``eval_J_mass_fd``: central finite difference of the mass integral
  ``mass_Q`` in omega at steps h and h/2, Richardson-extrapolated.  The mass
  integrand is 2u / sqrt(V) after s = a - u^2, with the raw route's
  cancellation-free V = U(s)/s.  Where the case has a curve at gamma, the
  step is at most a quarter of the distance to omega_star(gamma), so the
  stencil keeps to the query's side of it.  Its four stencil masses run
  as one batched quadrature, each equal to ``mass_Q`` alone bit for bit,
  and their quadrature errors enter its error bar.

The abs_error of ``eval_J``, ``eval_J0`` and ``eval_J_raw`` adds to the
quadrature error the error J carries from a: the computed a is the exact
zero at an omega off by at most eps S, S = |omega| + sum |f1_l| a^{e_l},
and J moves by |J| eps S (2 |a^2 F1''(a)| / U'(a)^2 + 1/|U'(a)|) with it;
the first part is one over the distance to the fold, the second the
residual in the prefactor's U'(a).

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
from .landscape import Terms, one_minus_powers, terms
from .model import NonlinearityParams
from .profile import ProfileResult, _profile, find_a
from .quadrature import QuadratureResult, integrate, integrate_many

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


# -- transformed route -------------------------------------------------------


def _batch_integrand(e: Sequence[float], m: int,
                     rows: Sequence[Sequence[float]]) -> Callable:
    """Integrand in x on [0, 2] for a batch of cells, vectorized.

    e holds the exponents (l-1)/2 of the p, q and r powers.  Cell k has one
    row (n0, d0, cnp, cnq, cnr, cdp, cdq, cdr): N(a, 0) = 2 omega + U'(a),
    D(a, 0) = omega/2 and ``Terms.nd_row`` at its gamma and powers a_k^e.
    On the right piece, x in [0, 1], s = 1 - x^2/2 with Jacobian x, and N
    and D are cn* and cd* times 1 - s^e = -expm1(e log1p(-x^2/2)).  On the
    left, x in [1, 2], s = 0.5 t^m with t = 2 - x and Jacobian
    0.5 m t^{m-1}, and N = n0 - sum cn* s^e, D = d0 - sum cd* s^e with
    s^e = exp(e (ln 0.5 + m ln t)).  g(x, cells) evaluates row i of x, one
    panel, for cell cells[i], as ``integrate_many`` expects, elementwise;
    a panel lies on one side of x = 1 and takes that side's form alone.
    """
    table = np.array(rows).T[:, :, None]
    ln_half_m = math.log(0.5 * m)

    def left(x, c):
        n0, d0, cnp, cnq, cnr, cdp, cdq, cdr = c
        ln_t = np.log(2.0 - x)
        ln_s = _LN_HALF + m * ln_t
        Sp, Sq, Sr = [np.exp(ex * ln_s) for ex in e]
        N = n0 - (cnp * Sp + cnq * Sq + cnr * Sr)
        D = d0 - (cdp * Sp + cdq * Sq + cdr * Sr)
        # the Jacobian over D^{3/2} as one exp: at omega = 0 both underflow
        # near t = 0, where their ratio stays of order one
        return D, N * np.exp(ln_half_m + (m - 1) * ln_t - 1.5 * np.log(D))

    def right(x, c):
        _, _, cnp, cnq, cnr, cdp, cdq, cdr = c
        Ep, Eq, Er = [-np.expm1(ex * np.log1p(-0.5 * x * x)) for ex in e]
        D = cdp * Ep + cdq * Eq + cdr * Er
        return D, x * (cnp * Ep + cnq * Eq + cnr * Er) / D ** 1.5

    # one cell multiplies by plain floats: on arrays this small,
    # broadcasting a (k, 1) column costs twice as much
    one = len(rows) == 1

    def g(x, cells):
        c = rows[0] if one else table[:, cells]
        on_left = x[:, x.shape[1] // 2] > 1.0  # the middle node of a panel
        n_left = np.count_nonzero(on_left)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if n_left in (0, len(x)):
                D, f = (left if n_left else right)(x, c)
            else:
                D, f = np.empty_like(x), np.empty_like(x)
                for side, form in ((on_left, left), (~on_left, right)):
                    D[side], f[side] = form(x[side], c if one else c[:, side])
            return np.where(D > 0.0, f, 0.0)

    return g


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


def _transformed(params: NonlinearityParams, cells,
                 rel_tol: float) -> List[StabilityValue]:
    """J at each (omega, gamma, profile) cell.

    A None profile gives NaN and a profile on the curve the signed
    sentinel; every other cell goes into one ``integrate_many`` call over
    x in [0, 2], whose two initial panels meet at the split x = 1.  A cell
    takes its N/D row from the terms at its own gamma and its profile.
    The cells of one call are all at omega > 0 or all at omega = 0, which
    decides the left piece's m.  abs_error is the quadrature error times
    |C| plus |J| ``_root_error``.
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
    # the left end sets m: for omega > 0 its s^{(p-1)/2} terms, flat once
    # m (p-1)/2 >= 1; at omega = 0 its s^{-3(p-1)/4} blow-up (p < 7/3),
    # flattened with a margin of one
    if cells[waves[0]][0] > 0.0:
        m = math.ceil(2.0 / (params.p - 1.0))
    else:
        m = max(2, math.ceil(4.0 / (7.0 - 3.0 * params.p)) + 1)
    quads = integrate_many(_batch_integrand(e, m, rows), 0.0, 2.0,
                           len(waves), rel_tol=rel_tol, max_panels=2000,
                           initial=2)
    for i, t, quad, pw in zip(waves, tables, quads, powers):
        omega, _, res = cells[i]
        C = -res.a / (4.0 * _SQRT2 * res.uprime_at_a)
        j = C * quad.value
        err = (abs(C) * quad.abs_error
               + abs(j) * _root_error(t, omega, res.uprime_at_a, pw))
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


def _difference_sums(t: Terms, amplitudes, *triples) -> Callable:
    """The sums sum_l c_l a^{e_l} E_l, E_l = 1 - (s/a)^{e_l}, at s = a - u^2,
    one per coefficient triple c, for a batch of amplitudes a.

    With c = f1 the sum is V = U(s)/s (as F1(a) = omega), with c = up it is
    W = U'(a) - U'(s); E_l is in expm1/log1p form, so neither cancels near
    s = a.  The returned sums(u, cells) evaluates row i of u at amplitude
    amplitudes[cells[i]], elementwise; a batch of one ignores cells and
    multiplies by plain floats.
    """
    rows = []
    for a in amplitudes:
        powers = [a ** e for e in t.e]
        rows.append([math.sqrt(a)] + [c * x for triple in triples
                                      for c, x in zip(triple, powers)])
    table = np.array(rows).T[:, :, None]

    def sums(u, cells):
        root, *c = table[:, cells] if len(rows) > 1 else rows[0]
        Ep, Eq, Er = one_minus_powers(u / root, t.e)
        return [c[k] * Ep + c[k + 1] * Eq + c[k + 2] * Er
                for k in range(0, len(c), 3)]

    return sums


def _raw_integrand(t: Terms, a: float) -> Callable:
    """Integrand in u after s = a - u^2, written so that nothing cancels.

    The integrand 2u (3 + s (U'(a) - U'(s)) / U(s)) sqrt(s / U(s)) is
    2u (3 + W/V) / sqrt(V) with the ``_difference_sums`` V and W.
    """
    vw = _difference_sums(t, [a], t.f1, t.up)

    def g(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            V, W = vw(u, None)
            safe = V > 0.0
            V = np.where(safe, V, 1.0)
            out = np.where(safe, 2.0 * u * (3.0 + W / V) / np.sqrt(V), 0.0)
        return out

    return g


def eval_J_raw(params: NonlinearityParams, omega: float, gamma: float,
               rel_tol: float = 1e-9) -> StabilityValue:
    """J via the direct integrand on [0, a]; oracle for the transformed route.

    abs_error carries the same ``_root_error`` as ``eval_J``.
    """
    res = _require_profile(params, omega, gamma)
    if res.on_boundary:
        return _sentinel(params, omega, gamma, "raw")
    a, up = res.a, res.uprime_at_a
    t = terms(params, gamma)
    powers = [a ** e for e in t.e]
    pref = -1.0 / (2.0 * up)
    quad = integrate(_raw_integrand(t, a), 0.0, math.sqrt(a),
                     rel_tol=rel_tol, max_panels=2000, initial=2)
    j = pref * quad.value
    return StabilityValue(j=j,
                          abs_error=(abs(pref) * quad.abs_error
                                     + abs(j) * _root_error(t, omega, up,
                                                            powers)),
                          diverging=False, method="raw",
                          converged=quad.converged)


# -- mass and finite-difference route ----------------------------------------


def _masses(params: NonlinearityParams, omegas: Sequence[float],
            gamma: float, rel_tol: float) -> List[QuadratureResult]:
    """The mass integral at every omega of one gamma, as one batch.

    Every profile is found before anything is integrated, in the order of
    omegas, so the first omega without a wave raises NoStandingWave and the
    first on the nonexistence curve DivergingIntegral.  Integrand k is
    2u / sqrt(V) on its own interval [0, sqrt(a_k)] after s = a_k - u^2,
    with the raw route's cancellation-free V = U(s)/s.
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
    v = _difference_sums(t, amplitudes, t.f1)

    def g(u, cells):
        with np.errstate(divide="ignore", invalid="ignore"):
            V, = v(u, cells)
            safe = V > 0.0
            out = np.where(safe, 2.0 * u / np.sqrt(np.where(safe, V, 1.0)),
                           0.0)
        return out

    return integrate_many(g, 0.0, [math.sqrt(a) for a in amplitudes],
                          len(omegas), rel_tol=rel_tol, max_panels=2000,
                          initial=2)


def mass_Q(params: NonlinearityParams, omega: float, gamma: float,
           rel_tol: float = 1e-11) -> float:
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
    masses are one batch.  j is the extrapolated (4 d_{h/2} - d_h) / 3 of
    the steps h and h/2.  abs_error is the Richardson estimate plus the
    quadrature error of each difference amplified by its 1/(2h) or 1/h, and
    converged holds only when all four quadratures converged.
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
                        gamma, 1e-11)
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
