"""The slope functional J(omega, gamma) = d/d omega of the profile mass.

Sign of J decides orbital stability of the standing wave: positive J means
stable, negative unstable.  Three independent evaluation routes are provided
so each can serve as an oracle for the others:

* ``eval_J``: the transformed integrand C * N(a,s)/D(a,s)^{3/2} on [0,1],
  with the (1-s)^{-1/2} endpoint removed by s = 1 - u^2.  ``eval_J_row``
  evaluates it at every omega of one gamma row, with one batched
  quadrature for the whole row; ``eval_J`` is a row of one, so the two
  agree bit for bit.
* ``eval_J_raw``: the direct form
  (-1/(2U'(a))) * integral of (3 + s(U'(a)-U'(s))/U(s)) sqrt(s)/sqrt(U(s))
  over [0, a], with the (a-s)^{-1/2} endpoint removed by s = a - u^2.
  U(s)/s and U'(a) - U'(s) are sums of the differences 1 - (s/a)^e in
  expm1/log1p form, so the bracket does not cancel near s = a.
* ``eval_J_mass_fd``: central finite difference of the mass integral
  ``mass_Q`` in omega, with a Richardson consistency estimate.  Its four
  stencil masses run as one batched quadrature, each equal to ``mass_Q``
  alone bit for bit, and their quadrature errors enter its error bar.

For defocusing-lowest-power (D*) cases with p < 7/3, the omega -> 0 limit
J(0, gamma) is finite and computed by ``eval_J0`` from the gamma-eliminated
pieces N1, N2, D1, D2.

Near the nonexistence curve the integral genuinely diverges; evaluation is
skipped there and a signed infinity sentinel is returned (positive on the
lower-left side, negative on the FF upper-right side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .boundary import omega_star
from .errors import DivergingIntegral, NoStandingWave, NotOnCurve, UnsupportedRegime
from .landscape import one_minus_powers, terms, u_prime, u_value
from .model import NonlinearityParams
from .profile import (BOUNDARY_TOL, ProfileResult, _uprime_scale, find_a,
                      find_a0)
from .quadrature import QuadratureResult, integrate, integrate_many

_SQRT2 = math.sqrt(2.0)


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


@dataclass(frozen=True)
class OmegaZeroPieces:
    """gamma-eliminated integrand pieces for the omega = 0 functional.

    The integrand of J(0, gamma) is (N1 + beta*N2) / (D1 + beta*D2)^{3/2}.
    In the DF case both D1 and D2 are positive on (0, 1).
    """

    beta: float
    n1: Callable
    n2: Callable
    d1: Callable
    d2: Callable


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


def _batch_integrand(params: NonlinearityParams, gamma: float,
                      amplitudes: Sequence[float]) -> Callable:
    """Integrand in u after s = 1 - u^2 for a batch of cells, vectorized.

    Cell k has the first zero amplitudes[k] and one row of coefficients
    (cnp, cnq, cnr, cdp, cdq, cdr), ``Terms.nd_row``: N and D are cn* and
    cd* times 1 - s^e* for the p, q and r powers.  The returned g(u, cells)
    evaluates row i of u for cell cells[i], as ``integrate_many`` expects.
    A_l(a, 1-u^2) needs 1 - (1-u^2)^e to full relative precision near
    u = 0, so the powers go through expm1/log1p.
    """
    t = terms(params, gamma)
    coefficients = [t.nd_row(a) for a in amplitudes]
    table = np.array(coefficients).T[:, :, None]

    def g(u, cells):
        # one cell multiplies by plain floats: on arrays this small,
        # broadcasting a (k, 1) column costs twice as much
        cnp, cnq, cnr, cdp, cdq, cdr = (table[:, cells] if len(table[0]) > 1
                                        else coefficients[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            Ep, Eq, Er = one_minus_powers(u, t.e)
            N = cnp * Ep + cnq * Eq + cnr * Er
            D = cdp * Ep + cdq * Eq + cdr * Er
            safe = D > 0.0
            out = np.where(safe,
                           2.0 * u * N / np.where(safe, D, 1.0) ** 1.5,
                           0.0)
        return out

    return g


def _transformed_row(params: NonlinearityParams, gamma: float, cells,
                     rel_tol: float) -> List[StabilityValue]:
    """J at each (omega, profile) of one gamma row.

    A None profile gives NaN and a profile on the curve the signed
    sentinel; every other cell goes into one ``integrate_many`` call.
    """
    out = [None] * len(cells)
    waves = []
    for i, (omega, res) in enumerate(cells):
        if res is None:
            out[i] = StabilityValue(j=math.nan, abs_error=math.nan,
                                    diverging=False, method="transformed")
        elif res.on_boundary:
            out[i] = _sentinel(params, omega, gamma, "transformed")
        else:
            waves.append(i)
    if not waves:
        return out
    g = _batch_integrand(params, gamma, [cells[i][1].a for i in waves])
    quads = integrate_many(g, 0.0, 1.0, len(waves), rel_tol=rel_tol,
                           max_panels=2000, initial=2)
    for i, quad in zip(waves, quads):
        res = cells[i][1]
        C = -res.a / (4.0 * _SQRT2 * res.uprime_at_a)
        out[i] = StabilityValue(j=C * quad.value,
                                abs_error=abs(C) * quad.abs_error,
                                diverging=False, method="transformed",
                                converged=quad.converged)
    return out


def eval_J(params: NonlinearityParams, omega: float, gamma: float,
           rel_tol: float = 1e-9) -> StabilityValue:
    """J via the transformed integrand at one point: a row of one."""
    res = _require_profile(params, omega, gamma)
    return _transformed_row(params, gamma, [(omega, res)], rel_tol)[0]


def eval_J_row(params: NonlinearityParams, omegas: Sequence[float],
               gamma: float, rel_tol: float = 1e-9) -> List[StabilityValue]:
    """eval_J at every omega of one gamma row, the default route for sweeps.

    Each value equals scalar ``eval_J`` at the same floats bit for bit; a
    point with no standing wave gives j = NaN instead of raising.  The
    profiles are found one by one and the quadratures run as one batch.
    """
    gamma = float(gamma)
    omegas = [float(w) for w in omegas]
    return _transformed_row(params, gamma,
                            [(w, find_a(params, w, gamma)) for w in omegas],
                            rel_tol)


# -- raw route ---------------------------------------------------------------


def _raw_integrand(params: NonlinearityParams, gamma: float,
                   a: float) -> Callable:
    """Integrand in u after s = a - u^2, written so that nothing cancels.

    With E_l = 1 - (s/a)^{e_l}, U(s)/s = V = sum f1_l a^{e_l} E_l (as
    F1(a) = omega) and U'(a) - U'(s) = W = sum up_l a^{e_l} E_l, so the
    integrand 2u (3 + s (U'(a) - U'(s)) / U(s)) sqrt(s / U(s)) is
    2u (3 + W/V) / sqrt(V), with E_l in expm1/log1p form.
    """
    t = terms(params, gamma)
    powers = [a ** e for e in t.e]
    fp, fq, fr = [c * x for c, x in zip(t.f1, powers)]
    wp, wq, wr = [c * x for c, x in zip(t.up, powers)]
    root_a = math.sqrt(a)

    def g(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            Ep, Eq, Er = one_minus_powers(u / root_a, t.e)
            V = fp * Ep + fq * Eq + fr * Er
            W = wp * Ep + wq * Eq + wr * Er
            safe = V > 0.0
            V = np.where(safe, V, 1.0)
            out = np.where(safe, 2.0 * u * (3.0 + W / V) / np.sqrt(V), 0.0)
        return out

    return g


def eval_J_raw(params: NonlinearityParams, omega: float, gamma: float,
               rel_tol: float = 1e-9) -> StabilityValue:
    """J via the direct integrand on [0, a]; oracle for the transformed route."""
    res = _require_profile(params, omega, gamma)
    if res.on_boundary:
        return _sentinel(params, omega, gamma, "raw")
    a, up = res.a, res.uprime_at_a
    pref = -1.0 / (2.0 * up)
    quad = integrate(_raw_integrand(params, gamma, a),
                     0.0, math.sqrt(a), rel_tol=rel_tol, max_panels=2000,
                     initial=2)
    return StabilityValue(j=pref * quad.value,
                          abs_error=abs(pref) * quad.abs_error,
                          diverging=False, method="raw",
                          converged=quad.converged)


# -- mass and finite-difference route ----------------------------------------


def _masses(params: NonlinearityParams, omegas: Sequence[float],
            gamma: float, rel_tol: float) -> List[QuadratureResult]:
    """The mass integral at every omega of one gamma, as one batch.

    Every profile is found before anything is integrated, in the order of
    omegas, so the first omega without a wave raises NoStandingWave and the
    first on the nonexistence curve DivergingIntegral.  Integrand k runs on
    its own interval [0, sqrt(a_k)] after s = a_k - u^2.
    """
    amplitudes = []
    for omega in omegas:
        res = _require_profile(params, omega, gamma)
        if res.on_boundary:
            raise DivergingIntegral(
                "mass integral diverges on the nonexistence curve at "
                "omega=%g, gamma=%g" % (omega, gamma))
        amplitudes.append(res.a)
    omega_col = np.array(omegas, dtype=float)[:, None]
    a_col = np.array(amplitudes)[:, None]

    def g(u, cells):
        w, a = omega_col[cells], a_col[cells]
        s = a - u * u
        s = np.where(s < 0.0, 0.0, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            Us = u_value(params, w, gamma, s)
            safe = Us > 0.0
            out = np.where(safe,
                           2.0 * u * np.sqrt(s)
                           / np.sqrt(np.where(safe, Us, 1.0)),
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
    """J as a central difference of mass_Q in omega, Richardson-checked.

    Step h = max(1e-4*omega, 1e-6) clamped to omega/2; shrunk further if a
    stencil point falls outside the existence region.  The four stencil
    masses are one batch.  abs_error is the Richardson estimate plus the
    quadrature error of each difference amplified by its 1/(2h) or 1/h, and
    converged holds only when all four quadratures converged.
    """
    res = _require_profile(params, omega, gamma)
    if res.on_boundary:
        return _sentinel(params, omega, gamma, "mass_fd")
    h = max(1e-4 * omega, 1e-6)
    h = min(h, 0.5 * omega)
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
        return StabilityValue(j=d_h2, abs_error=err, diverging=False,
                              method="mass_fd",
                              converged=all(x.converged for x in q))
    raise last_exc


# -- omega = 0 functional ----------------------------------------------------


def omega_zero_pieces(params: NonlinearityParams,
                      a0: float) -> OmegaZeroPieces:
    """The N1, N2, D1, D2 pieces and beta for the omega = 0 integrand."""
    p, q, r = params.p, params.q, params.r
    a1, a3 = params.a1, params.a3
    ep, eq, er = terms(params, 0.0).e  # the exponents do not depend on gamma
    beta = (p + 1.0) / (r + 1.0) * a0 ** ((r - p) / 2.0)

    def n1(s):
        s = np.asarray(s, dtype=float)
        return a1 * ((5.0 - p) * (1.0 - s ** ep) - (5.0 - q) * (1.0 - s ** eq))

    def n2(s):
        s = np.asarray(s, dtype=float)
        return a3 * ((5.0 - r) * (1.0 - s ** er) - (5.0 - q) * (1.0 - s ** eq))

    def d1(s):
        s = np.asarray(s, dtype=float)
        return a1 * (s ** eq - s ** ep)

    def d2(s):
        s = np.asarray(s, dtype=float)
        return a3 * (s ** eq - s ** er)

    return OmegaZeroPieces(beta=beta, n1=n1, n2=n2, d1=d1, d2=d2)


def eval_J0(params: NonlinearityParams, gamma: float,
            rel_tol: float = 1e-9) -> StabilityValue:
    """J(0, gamma), the omega -> 0 limit; D* cases with p < 7/3 only.

    Raises UnsupportedRegime for p >= 7/3 (the limit is -infinity there),
    NoStandingWave when F1 has no positive zero (DD with gamma at or above
    the endpoint value), and DivergingIntegral at a degenerate zero.
    """
    if params.sign1 != -1:
        raise ValueError("the omega = 0 functional applies to D* cases only")
    p, q, r = params.p, params.q, params.r
    if p >= 7.0 / 3.0:
        raise UnsupportedRegime(
            "J(0, gamma) is not finite for p >= 7/3 (the limit is -infinity)")
    a0 = find_a0(params, gamma)
    if a0 is None:
        raise NoStandingWave(
            "no zero-frequency amplitude at gamma=%g (case %s)"
            % (gamma, params.case))
    up0 = u_prime(params, 0.0, gamma, a0)
    if up0 >= -BOUNDARY_TOL * (1.0 + _uprime_scale(params, 0.0, gamma, a0)):
        raise DivergingIntegral(
            "degenerate zero-frequency amplitude at gamma=%g" % gamma)
    pieces = omega_zero_pieces(params, a0)
    beta = pieces.beta
    a1, a3 = params.a1, params.a3
    e = terms(params, gamma).e

    # left half (0, 1/2]: s = 0.5 t^m flattens the s^{-3(p-1)/4} endpoint;
    # direct powers are exact here and the expm1 forms would cancel instead
    m = int(math.ceil(4.0 / (7.0 - 3.0 * p))) + 1
    m = max(m, 2)

    def g_left(t):
        t = np.asarray(t, dtype=float)
        s = 0.5 * t ** m
        num = pieces.n1(s) + beta * pieces.n2(s)
        den = pieces.d1(s) + beta * pieces.d2(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            safe = den > 0.0
            out = np.where(safe,
                           num / np.where(safe, den, 1.0) ** 1.5
                           * (0.5 * m) * t ** (m - 1),
                           0.0)
        return out

    # right half [1/2, 1): s = 1 - u^2 with expm1 forms, since every piece
    # is a difference of values that approach 1
    def g_right(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            Ep, Eq, Er = one_minus_powers(u, e)
            num = (a1 * ((5.0 - p) * Ep - (5.0 - q) * Eq)
                   + beta * a3 * ((5.0 - r) * Er - (5.0 - q) * Eq))
            den = a1 * (Ep - Eq) + beta * a3 * (Er - Eq)
            safe = den > 0.0
            out = np.where(safe,
                           2.0 * u * num / np.where(safe, den, 1.0) ** 1.5,
                           0.0)
        return out

    quad_l = integrate(g_left, 0.0, 1.0, rel_tol=rel_tol, max_panels=2000,
                       initial=2)
    quad_r = integrate(g_right, 0.0, 1.0 / _SQRT2, rel_tol=rel_tol,
                       max_panels=2000, initial=2)
    C = -a0 / (4.0 * _SQRT2 * up0)
    pref = C * math.sqrt((p + 1.0) / a0 ** e[0])
    j = pref * (quad_l.value + quad_r.value)
    err = abs(pref) * (quad_l.abs_error + quad_r.abs_error)
    return StabilityValue(j=j, abs_error=err, diverging=False,
                          method="omega_zero",
                          converged=quad_l.converged and quad_r.converged)
