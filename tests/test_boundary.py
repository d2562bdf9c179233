"""Tests for the existence-boundary curve, its endpoints, and omega*."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tristab import landscape
from tristab import (
    NonlinearityParams,
    NotOnCurve,
    endpoints,
    eval_U,
    find_a,
    gamma_omega_ne,
    omega_star,
    sample_curve,
)

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)
DF357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1)
DD347 = NonlinearityParams(3.0, 4.0, 7.0, sign1=-1, sign3=-1)
FD367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)


def test_closed_form_constants_ff():
    # independent evaluation of the closed forms for p=2, q=3, r=4
    a_sharp = ((3.0 - 2.0) * (2.0 - 1.0) * (4.0 + 1.0)
               / ((4.0 - 3.0) * (4.0 - 1.0) * (2.0 + 1.0)))  # = 5/9
    assert math.isclose(a_sharp, 5.0 / 9.0, rel_tol=1e-15)
    ea, g1, rng = endpoints(FF234)
    assert abs(ea - 5.0 / 9.0) <= 1e-12
    assert abs(g1 - 4.0 / math.sqrt(5.0)) <= 1e-12
    om, ga = gamma_omega_ne(FF234, ea)
    assert abs(om - 2.0 * math.sqrt(5.0) / 27.0) <= 1e-12
    assert abs(ga - g1) <= 1e-12
    assert rng == "(0, a_sharp]"


def test_closed_form_constants_dd():
    ea, g1, rng = endpoints(DD347)
    assert abs(ea - math.sqrt(2.0 / 3.0)) <= 1e-12
    om, _ = gamma_omega_ne(DD347, ea)
    assert abs(om) <= 1e-12
    assert rng == "(a_b, inf)"


def test_curve_example_point():
    om, ga = gamma_omega_ne(FF234, 5.0 / 9.0)
    assert math.isclose(om, 0.165634, rel_tol=1e-5)
    assert math.isclose(ga, 1.788854, rel_tol=1e-6)
    assert math.isclose(ga, 4.0 / math.sqrt(5.0), rel_tol=1e-14)


def test_second_derivative_vanishes_at_ff_endpoint():
    ea, _, _ = endpoints(FF234)
    om, ga = gamma_omega_ne(FF234, ea)
    out = eval_U(FF234, om, ga, ea)
    assert abs(out.second_deriv) <= 1e-10


def test_df_has_no_curve():
    assert endpoints(DF357) == (None, None, "empty")
    with pytest.raises(NotOnCurve):
        omega_star(DF357, 0.0)
    curve = sample_curve(DF357)
    assert curve.samples == ()


def test_curve_consistency_all_cases():
    # at curve points: U = 0, U' = 0, U'' >= 0, all within tight tolerance
    cases = (FF234, FD357, DD347)
    for params in cases:
        curve = sample_curve(params, n=200)
        assert len(curve.samples) == 200
        for a, om, ga in curve.samples:
            out = eval_U(params, om, ga, a)
            assert abs(out.value) <= 1e-10 * (1.0 + a)
            assert abs(out.first_deriv) <= 1e-10
            assert out.second_deriv >= -1e-10


def test_curve_monotone_parameterization():
    for params in (FF234, FD357, DD347):
        curve = sample_curve(params, n=120)
        arr = np.asarray(curve.samples)
        assert np.all(np.diff(arr[:, 0]) > 0)          # increasing a
        assert np.all(np.diff(arr[:, 1]) >= -1e-12)    # omega_ne nondecreasing
        assert np.all(np.diff(arr[:, 2]) <= 1e-12)     # gamma_ne nonincreasing


def test_omega_star_round_trip():
    for params in (FF234, FD357, DD347):
        curve = sample_curve(params, n=25)
        for a, om, ga in curve.samples:
            got = omega_star(params, ga)
            assert abs(got - om) <= 1e-9 * (1.0 + abs(om))


def test_find_a_at_omega_star_is_on_the_curve():
    # at the fold frequency the root finder lands on the double zero
    _, g1, _ = endpoints(FF234)
    for ga in np.linspace(g1 + 0.1, g1 + 5.0, 8):
        prof = find_a(FF234, omega_star(FF234, float(ga)), float(ga))
        assert prof is not None and prof.on_boundary


def test_omega_star_at_ff_endpoint():
    _, g1, _ = endpoints(FF234)
    assert math.isclose(omega_star(FF234, g1),
                        2.0 * math.sqrt(5.0) / 27.0, rel_tol=1e-9)


def test_omega_star_admissible_ranges():
    _, g1, _ = endpoints(FF234)
    with pytest.raises(NotOnCurve):
        omega_star(FF234, g1 - 0.1)
    dd_a, dd_g1, _ = endpoints(DD347)
    with pytest.raises(NotOnCurve):
        omega_star(DD347, dd_g1 + 0.1)
    # DD admissible side: gamma < gamma1, curve starts at omega 0
    small = omega_star(DD347, dd_g1 - 1e-6)
    assert 0.0 < small < 1e-3


def test_omega_star_decreasing_fd():
    vals = [omega_star(FD357, g) for g in (-5.0, -1.0, 0.0, 1.0, 5.0, 100.0)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2  # omega* -> 0 as gamma -> inf


def test_sample_curve_range_override():
    curve = sample_curve(FF234, n=30, a_min=0.1, a_max=0.4)
    arr = np.asarray(curve.samples)
    assert arr[0, 0] >= 0.1 - 1e-12
    assert arr[-1, 0] <= 0.4 + 1e-12
    assert curve.endpoint_a is not None
    assert curve.gamma1 is not None


def test_gamma_omega_ne_requires_positive_a():
    with pytest.raises(ValueError):
        gamma_omega_ne(FF234, 0.0)
    with pytest.raises(ValueError):
        gamma_omega_ne(FF234, -1.0)


# omega_star(gamma) from a 50-digit mpmath bisection of gamma_ne(a) = gamma
# at these exact floats, and kappa = |gamma omega_star'(gamma) / omega_star|,
# its condition number in gamma.  In double precision gamma_ne is only known
# to round-off, so an error of a few ulps times kappa is what any float
# inversion leaves; kappa grows without bound as omega_star -> 0 at the DD
# endpoint.
OMEGA_STAR_REFERENCE = [
    pytest.param(FF234, 1.7888543819998317,
                 "0.165634664999984421956235086573", 0.0, id="FF-gamma1"),
    # nextafter(gamma1, inf): the two critical points lie 2.6e-15 apart
    pytest.param(FF234, 1.788854381999832,
                 "0.165634664999984373141878990838", 3.0, id="FF-gamma1-next"),
    pytest.param(FF234, 1.8973665961,
                 "0.146401743526456592073241853518", 1.8, id="FF-1.897"),
    pytest.param(FF234, 2.5,
                 "0.0984719910274744847874952724211", 1.25, id="FF-2.5"),
    pytest.param(FF234, 20.0,
                 "0.0111259705489820680475148684425", 1.0, id="FF-20"),
    pytest.param(FD367, -3.0,
                 "31.3213597669807298723789756222", 5.47, id="FD-m3"),
    pytest.param(FD367, -10.0,
                 "37356.1249802580979742579050796", 6.0, id="FD-m10"),
    pytest.param(FD367, 0.0,
                 "0.272165526975908677577476008301", 0.0, id="FD-0"),
    pytest.param(FD367, 5.0,
                 "0.0764582234337649241744305347662", 0.597, id="FD-5"),
    # the fold lies past 2^600, where a doubling search from 1 gives up
    pytest.param(NonlinearityParams(1.05, 1.1, 1.15, sign3=-1), -1e6,
                 "147892196267785291.881297054912", 3.0, id="FD-narrow-m1e6"),
    # draws where F1's critical point is 15 and 221 ulps off the curve's a
    pytest.param(NonlinearityParams(2.3775760470481004, 6.209339712641411,
                                    6.9176011107389535, sign3=-1),
                 -5.985359100700759, "80554.7247576313399407735704156",
                 8.35, id="FD-draw"),
    pytest.param(NonlinearityParams(1.0799951193559598, 3.689732179129587,
                                    3.8257930503296023, sign1=-1, sign3=-1),
                 -2.0259055229638427, "31796.3040603688865830788694476",
                 20.8, id="DD-draw"),
    # gamma1 - 1e-3
    pytest.param(DD357, -2.1223203435596427,
                 "0.000667295206167231420533454759815", 2120.0,
                 id="DD-below-gamma1"),
    pytest.param(DD357, -3.0,
                 "1.10412549262377395037016547119", 5.16, id="DD-m3"),
    pytest.param(DD357, -5.0,
                 "8.79010427452499514989529566427", 3.49, id="DD-m5"),
    pytest.param(DD357, -8.0,
                 "41.4173376643697035090470283571", 3.17, id="DD-m8"),
]


@pytest.mark.parametrize("params, gamma, reference, kappa",
                         OMEGA_STAR_REFERENCE)
def test_omega_star_matches_high_precision_inversion(params, gamma,
                                                     reference, kappa):
    exact = Fraction(reference)
    ulps = abs(Fraction(omega_star(params, gamma)) - exact) \
        / Fraction(math.ulp(float(exact)))
    assert ulps <= 4.0 * max(1.0, kappa)


def _fold(params, gamma):
    """(omega_star, kappa) at gamma: a 50-digit bisection of
    gamma_ne(a) = gamma in ln a over the case's a-range.  kappa is
    |omega_star'(gamma)| G / omega_star, with G the sum of the absolute
    terms of gamma_ne(a), the scale of its round-off in floats.  G = |gamma|
    unless the terms cancel, as they do in the FD case near gamma = 0, so
    kappa is the condition number of the table above except there."""
    with mpmath.workdps(50):
        p, q, r = (mpmath.mpf(x) for x in (params.p, params.q, params.r))
        a1, a3, g = params.a1, params.a3, mpmath.mpf(gamma)

        def terms(a):
            k = (q + 1) / (q - 1)
            return (k * a1 * (p - 1) / (p + 1) * a ** ((p - q) / 2),
                    k * a3 * (r - 1) / (r + 1) * a ** ((r - q) / 2))

        if params.case == "FF":
            lo = hi = ((q - p) * (p - 1) * (r + 1)
                       / ((r - q) * (r - 1) * (p + 1))) ** (2 / (r - p))
        elif params.case == "DD":
            lo = hi = ((q - p) * (r + 1) / ((r - q) * (p + 1))) ** (2 / (r - p))
        else:
            lo = hi = mpmath.mpf(1)
        while params.case != "DD" and sum(terms(lo)) <= g:
            lo /= 2
        while params.case != "FF" and sum(terms(hi)) >= g:
            hi *= 2
        lo, hi = mpmath.log(lo), mpmath.log(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if sum(terms(mpmath.exp(mid))) > g else (lo, mid)
        a = mpmath.exp((lo + hi) / 2)
        omega = (2 * a1 * (q - p) / ((q - 1) * (p + 1)) * a ** ((p - 1) / 2)
                 - 2 * a3 * (r - q) / ((q - 1) * (r + 1)) * a ** ((r - 1) / 2))
        # omega_star'(gamma) = -2 a^{(q-1)/2} / (q+1)
        slope = 2 * a ** ((q - 1) / 2) / (q + 1)
        return omega, float(slope * sum(abs(t) for t in terms(a)) / abs(omega))


@st.composite
def curve_points(draw):
    """An FF, FD or DD triple and a gamma on its curve: FD gamma in (-8, 8),
    FF and DD gamma 1e-3 to 10 past gamma1, on the admissible side."""
    p = draw(st.floats(1.05, 6.0))
    q = p + draw(st.floats(0.05, 4.0))
    r = q + draw(st.floats(0.05, 4.0))
    case = draw(st.sampled_from(["FF", "FD", "DD"]))
    params = NonlinearityParams(p, q, r, sign1=-1 if case == "DD" else 1,
                                sign3=1 if case == "FF" else -1)
    if case == "FD":
        return params, draw(st.floats(-8.0, 8.0))
    gap = 10.0 ** draw(st.floats(-3.0, 1.0))
    gamma1 = endpoints(params)[1]
    return params, gamma1 + gap if case == "FF" else gamma1 - gap


@settings(derandomize=True, deadline=None, max_examples=60)
@given(curve_points())
def test_omega_star_at_random_exponents(point):
    params, gamma = point
    exact, kappa = _fold(params, gamma)
    ulps = abs(mpmath.mpf(omega_star(params, gamma)) - exact) \
        / math.ulp(float(exact))
    assert ulps <= 4.0 * max(1.0, kappa)


def test_omega_star_without_a_critical_point_is_not_on_curve():
    # at gamma = -1e300 F1's peak lies past the largest float
    with pytest.raises(NotOnCurve):
        omega_star(FD367, -1e300)


def test_omega_star_shares_find_as_critical_points():
    # both read F1's critical points from the one term table per gamma
    info = landscape.terms.cache_info
    landscape.terms.cache_clear()
    omega_star(FD367, -3.25)
    assert info().misses == 1
    find_a(DD357, 1.0, -6.5)
    misses = info().misses
    omega_star(DD357, -6.5)
    assert info().misses == misses


@pytest.mark.parametrize("params, gamma", [
    (FF234, math.nan), (FF234, math.inf),
    (NonlinearityParams(2.0, 3.0, 4.0, -1, -1), -math.inf),
    (FD357, math.nan)])
def test_omega_star_rejects_a_non_finite_gamma(params, gamma):
    # FF(2,3,4) read 0.1656, its endpoint's omega, at NaN and +inf, and
    # DD(2,3,4) -7.4e-163 at -inf
    with pytest.raises(ValueError, match="gamma must be finite"):
        omega_star(params, gamma)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_gamma_omega_ne_rejects_an_a_outside_its_range(a):
    with pytest.raises(ValueError, match="need 0 < a < inf"):
        gamma_omega_ne(FF234, a)


@pytest.mark.parametrize("kwargs", [
    {"a_max": math.inf}, {"a_min": math.nan}, {"a_min": 2.0, "a_max": 1.0},
    {"a_min": 0.0}])
def test_sample_curve_rejects_an_empty_or_non_finite_a_range(kwargs):
    with pytest.raises(ValueError, match="invalid a-range"):
        sample_curve(FD357, n=5, **kwargs)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_curve_needs_a_sample(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        sample_curve(FF234, n=n)
