"""Tests for the Beta/digamma helpers and the two-power closed forms.

Oracle strategy: closed-form anchors with known decimal values, Beta
against ``mpmath.beta`` at 40 digits, plus defining-integral cross-checks by
the quadrature oracles of `tristab.verify` (the in-repo adaptive integrator,
a code path independent of ``math.lgamma``).
"""

import math

import mpmath
import numpy as np
import pytest

from tristab import (
    beta_deriv_bounds,
    beta_fn,
    dbeta_dx,
    digamma,
    h_fn,
    two_power_integral,
)
from tristab.verify import h_quad, two_power_quad

EULER_GAMMA = 0.5772156649015329


def test_digamma_anchors():
    assert math.isclose(digamma(1.0), -EULER_GAMMA, rel_tol=1e-12)
    assert math.isclose(digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0),
                        rel_tol=1e-12)
    assert math.isclose(digamma(2.0), 1.0 - EULER_GAMMA, rel_tol=1e-12)


def test_digamma_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = 10.0 ** rng.uniform(-2, 2)
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


def test_beta_anchors():
    assert math.isclose(beta_fn(0.5, 0.5), math.pi, rel_tol=1e-13)
    assert math.isclose(beta_fn(1.0, 0.5), 2.0, rel_tol=1e-13)
    assert math.isclose(beta_fn(1.0, 1.0), 1.0, rel_tol=1e-13)
    assert math.isclose(beta_fn(2.0, 3.0), 1.0 / 12.0, rel_tol=1e-13)


def test_beta_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = 10.0 ** rng.uniform(-1, 1)
        y = 10.0 ** rng.uniform(-1, 1)
        assert math.isclose(beta_fn(x, y), beta_fn(y, x), rel_tol=1e-13)


def _beta_mp(x, y):
    with mpmath.workdps(40):
        return float(mpmath.beta(x, y))


def test_beta_against_quadrature():
    assert abs(beta_fn(0.25, 0.5) - _beta_mp(0.25, 0.5)) \
        <= 1e-9 * beta_fn(0.25, 0.5)
    for (x, y) in ((0.6, 1.7), (2.5, 0.35), (1.2, 1.2)):
        assert abs(beta_fn(x, y) - _beta_mp(x, y)) \
            <= 1e-9 * (1.0 + beta_fn(x, y))


def test_dbeta_dx_values():
    assert math.isclose(dbeta_dx(1.0, 1.0), -1.0, rel_tol=1e-12)
    # finite-difference cross-check
    h = 1e-6
    for (x, y) in ((0.5, 0.5), (1.5, 0.7), (3.0, 2.0)):
        fd = (beta_fn(x + h, y) - beta_fn(x - h, y)) / (2 * h)
        assert abs(dbeta_dx(x, y) - fd) <= 1e-7 * (1.0 + abs(fd))


def test_h_fn_anchors():
    assert math.isclose(h_fn(0.5, 0.5), 2.0, rel_tol=1e-12)
    assert math.isclose(h_fn(1.0, 1.0), 2.0, rel_tol=1e-12)


def test_h_fn_against_quadrature():
    for (x, y) in ((0.5, 0.5), (1.0, 1.0), (0.3, 2.0), (2.2, 0.8)):
        got = h_fn(x, y)
        assert abs(got - h_quad(x, y)) <= 1e-8 * (1.0 + abs(got))


def test_two_power_integral_values():
    # p = 2, q = 4 gives -B(1/4, 1/2)
    got = two_power_integral(2.0, 4.0)
    assert math.isclose(got, -beta_fn(0.25, 0.5), rel_tol=1e-13)
    assert math.isclose(got, -5.2441, rel_tol=1e-4)
    # sign from 7 - 2p - q
    assert two_power_integral(1.5, 2.0) > 0.0
    # exact zero on the critical line 2p + q = 7
    assert two_power_integral(2.0, 3.0) == 0.0


def test_two_power_integral_against_quadrature():
    rng = np.random.default_rng(20260819)
    for _ in range(8):
        p = 1.1 + rng.uniform(0.0, 7.0 / 3.0 - 1.2)
        q = p + rng.uniform(0.2, 2.0)
        if abs(7.0 - 2.0 * p - q) < 0.2:
            continue
        got = two_power_integral(p, q)
        want = two_power_quad(p, q)
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))


def test_two_power_integral_domain():
    with pytest.raises(ValueError):
        two_power_integral(7.0 / 3.0, 4.0)   # p must be < 7/3
    with pytest.raises(ValueError):
        two_power_integral(2.0, 2.0)         # need p < q
    with pytest.raises(ValueError):
        two_power_integral(1.0, 2.0)         # need p > 1


def test_beta_deriv_bounds_strict():
    for b in np.geomspace(0.01, 1000.0, 50):
        bounds = beta_deriv_bounds(float(b))
        mid = dbeta_dx(float(b) + 0.5, 0.5)
        assert bounds.lower < mid < bounds.upper
        # bracket shape: -B(b+1/2,1/2)/(2b) < -B(b+1/2,1/2)/(2b+1) < 0
        assert bounds.lower < bounds.upper < 0.0


def test_beta_deriv_bounds_gap_shrinks():
    # the bracket tightens as b grows: relative width 1/3 at b = 1
    g1 = beta_deriv_bounds(1.0)
    g3 = beta_deriv_bounds(1000.0)
    rel1 = (g1.upper - g1.lower) / abs(g1.lower)
    rel3 = (g3.upper - g3.lower) / abs(g3.lower)
    assert rel3 < 0.1 * rel1


def test_beta_deriv_bounds_domain():
    with pytest.raises(ValueError):
        beta_deriv_bounds(0.0)
    with pytest.raises(ValueError):
        beta_deriv_bounds(-1.0)


@pytest.mark.parametrize("call", [
    lambda: digamma(0.0), lambda: digamma(-1.5),
    lambda: beta_fn(0.0, 1.0), lambda: beta_fn(1.0, -1.0),
    lambda: dbeta_dx(-1.0, 1.0), lambda: dbeta_dx(1.0, 0.0),
    lambda: h_fn(0.0, 1.0), lambda: h_fn(1.0, -2.0)])
def test_special_functions_reject_nonpositive_arguments(call):
    with pytest.raises(ValueError, match="requires x > 0"):
        call()


# a NaN or an infinite argument used to pass the test x <= 0 and come back
# as NaN; it is outside the domain like a nonpositive one
def test_digamma_rejects_nan():
    with pytest.raises(ValueError, match="requires x > 0"):
        digamma(math.nan)


def test_beta_fn_rejects_nan():
    with pytest.raises(ValueError, match="requires x > 0"):
        beta_fn(math.nan, 1.0)


def test_dbeta_dx_rejects_nan():
    with pytest.raises(ValueError, match="requires x > 0"):
        dbeta_dx(1.0, math.nan)


def test_h_fn_rejects_inf():
    with pytest.raises(ValueError, match="requires x > 0"):
        h_fn(math.inf, 1.0)


def test_beta_deriv_bounds_rejects_nan_and_inf():
    for b in (math.nan, math.inf):
        with pytest.raises(ValueError, match="requires b > 0"):
            beta_deriv_bounds(b)
