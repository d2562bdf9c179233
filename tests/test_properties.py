"""Property tests: the root counts, the shared bisection and the amplitude.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from tristab import (
    GeneralizedPolynomial,
    NonlinearityParams,
    count_positive_roots_sampled,
    find_a,
    sign_changes,
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
    flo = gp.terms[0][0] if lo == 0.0 else gp(lo)
    # the upper end: the first of lo + 2^k, k = -6 .. 6, where gp has the
    # other sign, else lo + 64, where the ends may share a sign
    hi = next((x for x in lo + 2.0 ** np.arange(-6.0, 7.0)
               if (gp(x) > 0.0) != (flo > 0.0)), lo + 64.0)
    fhi = gp(hi)
    seen = [(lo, flo), (hi, fhi)]

    def f(x):
        seen.append((x, gp(x)))
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
