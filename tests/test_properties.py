"""Property tests: the root counts, the shared bisection, the amplitude,
the agreement of the three J routes and the paper's sign guarantees at
random exponents.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from tristab import (
    GeneralizedPolynomial,
    GuaranteeStatement,
    NonlinearityParams,
    UnsupportedRegime,
    count_positive_roots_sampled,
    eval_J,
    eval_J_mass_fd,
    eval_J_raw,
    find_a,
    omega_star,
    sign_changes,
    sign_guarantees,
)
from tristab import signs

derandomized = settings(derandomize=True, deadline=None, max_examples=200)

coefficients = st.floats(-10.0, 10.0).filter(lambda c: abs(c) >= 1e-3)


@st.composite
def polynomials(draw, crossing=False):
    """Generalized polynomials of 2 to 5 terms, exponents on a grid of step
    0.05 in [-2, 6]; so the lowest power decides the sign at 0+ while the
    powers are far from underflow.  With crossing, the lowest and the
    highest power have coefficients of opposite signs, so a root exists."""
    k = draw(st.integers(2, 5))
    steps = sorted(draw(st.lists(st.integers(-40, 120), min_size=k,
                                 max_size=k, unique=True)))
    coeffs = draw(st.lists(coefficients, min_size=k, max_size=k))
    if crossing and (coeffs[0] > 0.0) == (coeffs[-1] > 0.0):
        coeffs[-1] = -coeffs[-1]
    return GeneralizedPolynomial(tuple(zip(coeffs,
                                           [0.05 * i for i in steps])))


@st.composite
def nonlinearities(draw):
    p = draw(st.floats(1.2, 4.0))
    q = p + draw(st.floats(0.2, 2.2))
    r = q + draw(st.floats(0.2, 2.2))
    return NonlinearityParams(p, q, r, sign1=draw(st.sampled_from([-1, 1])),
                              sign3=draw(st.sampled_from([-1, 1])))


def value(gp, x):
    """gp at the float x, summed term by term in numpy."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for coeff, expo in gp.terms:
        out = out + coeff * x ** expo
    return float(out)


@derandomized
@given(polynomials(), st.floats(0.1, 100.0))
def test_root_count_never_exceeds_sign_changes(gp, s_max):
    assert count_positive_roots_sampled(gp, s_max) <= sign_changes(gp)


@derandomized
@given(polynomials(crossing=True),
       st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
def test_every_bisection_root_brackets_a_sign_change(gp, lo):
    # the root is an exact zero, or it lies between two evaluated points,
    # adjacent floats, that carry the signs of the two ends
    # at lo = 0 the lowest-power term decides the sign just right of 0
    flo = gp.terms[0][0] if lo == 0.0 else value(gp, lo)
    # the upper end: the first of lo + 2^k, k = -6 .. 6, where gp has the
    # other sign, else lo + 64, where the ends may share a sign
    hi = next((x for x in lo + 2.0 ** np.arange(-6.0, 7.0)
               if (value(gp, x) > 0.0) != (flo > 0.0)), lo + 64.0)
    fhi = value(gp, hi)
    seen = [(lo, flo), (hi, fhi)]

    def f(x):
        seen.append((x, value(gp, x)))
        return seen[-1][1]

    root = signs.bisect(f, lo, hi, flo, fhi)
    if fhi != 0.0 and not (flo == 0.0 and lo > 0.0) \
            and (flo > 0.0) == (fhi > 0.0):
        assert root is None
        return
    assert lo <= root <= hi
    if any(x == root and v == 0.0 for x, v in seen):
        return
    below = max(x for x, v in seen if x <= root and v != 0.0
                and (v > 0.0) == (flo > 0.0))
    above = min(x for x, v in seen if x >= root and v != 0.0
                and (v > 0.0) == (fhi > 0.0))
    assert above <= math.nextafter(below, math.inf)


@derandomized
@given(nonlinearities(), st.floats(1e-2, 3.0), st.floats(0.01, 0.5),
       st.floats(-4.0, 4.0))
def test_amplitude_increases_in_omega(params, omega, rise, gamma):
    low = find_a(params, omega, gamma)
    high = find_a(params, omega * (1.0 + rise), gamma)
    if low is None or high is None or low.on_boundary or high.on_boundary:
        return
    assert low.a < high.a


@derandomized
@given(nonlinearities(), st.floats(1e-2, 3.0), st.floats(-4.0, 4.0),
       st.floats(0.05, 2.0))
def test_amplitude_increases_in_gamma(params, omega, gamma, rise):
    low = find_a(params, omega, gamma)
    high = find_a(params, omega, gamma + rise)
    if low is None or high is None or low.on_boundary or high.on_boundary:
        return
    assert low.a < high.a


@st.composite
def route_points(draw):
    """(params, omega, gamma) from the route-agreement probe's distribution:
    p U(1.05, 6), q - p and r - q U(0.05, 4), both outer signs, gamma
    U(-8, 8) and omega 10^U(-2, 1.5)."""
    p = draw(st.floats(1.05, 6.0))
    q = p + draw(st.floats(0.05, 4.0))
    r = q + draw(st.floats(0.05, 4.0))
    params = NonlinearityParams(p, q, r, sign1=draw(st.sampled_from([-1, 1])),
                                sign3=draw(st.sampled_from([-1, 1])))
    omega = 10.0 ** draw(st.floats(-2.0, 1.5))
    return params, omega, draw(st.floats(-8.0, 8.0))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(route_points())
def test_three_routes_agree_within_their_bars(point):
    params, omega, gamma = point
    try:
        res = find_a(params, omega, gamma)
    except UnsupportedRegime:    # the amplitude lies beyond the float range
        return
    if res is None or res.on_boundary:
        return
    try:
        values = [route(params, omega, gamma)
                  for route in (eval_J, eval_J_raw, eval_J_mass_fd)]
    except UnsupportedRegime:    # mass_fd's stencil masses are not finite
        return
    if not all(v.converged for v in values):
        return
    for i, u in enumerate(values):
        for v in values[i + 1:]:
            assert abs(u.j - v.j) <= u.abs_error + v.abs_error, (u, v)


def _exponents(draw, q):
    """(p, q, r) around q: p in [1.01, q - 0.05], r - q in [0.05, 4]."""
    return (draw(st.floats(1.01, q - 0.05)), q,
            q + draw(st.floats(0.05, 4.0)))


def _verdict(params, omega, gamma):
    """eval_J's verdict, or None where a lies below the smallest float,
    as it does near p = 1 at small omega."""
    try:
        return eval_J(params, omega, gamma).verdict()
    except UnsupportedRegime as exc:
        assert "below the float range" in str(exc), exc
        return None


def _statements(params):
    return {g.statement for g in sign_guarantees(params)}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_fd_waves_are_stable_for_q_up_to_5(data):
    # AllStablePositiveJ: FD with q <= 5 has J > 0 on its whole existence
    # region 0 < omega < omega*(gamma); q is drawn near 5 too
    q = data.draw(st.one_of(st.floats(1.1, 5.0), st.floats(4.999, 5.0)))
    params = NonlinearityParams(*_exponents(data.draw, q), sign3=-1)
    assert GuaranteeStatement.AllStablePositiveJ in _statements(params)
    gamma = data.draw(st.floats(-8.0, 8.0))
    omega = omega_star(params, gamma) * data.draw(st.floats(1e-3, 0.99))
    assert _verdict(params, omega, gamma) in ("stable", None), \
        (params, omega, gamma)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_df_waves_are_unstable_for_q_from_5(data):
    # AllUnstableNegativeJ: DF with q >= 5 has J < 0 at every omega > 0 and
    # every gamma; q is drawn near 5 too
    q = data.draw(st.one_of(st.floats(5.0, 9.0), st.floats(5.0, 5.001)))
    params = NonlinearityParams(*_exponents(data.draw, q), sign1=-1)
    assert GuaranteeStatement.AllUnstableNegativeJ in _statements(params)
    gamma = data.draw(st.floats(-8.0, 8.0))
    omega = 10.0 ** data.draw(st.floats(-2.0, 1.5))
    assert _verdict(params, omega, gamma) in ("unstable", None), \
        (params, omega, gamma)
