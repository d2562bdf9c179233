"""Tests for generalized polynomials and the rule-of-signs bound."""

import math

import numpy as np
import pytest

from tristab import (
    GeneralizedPolynomial,
    count_positive_roots_sampled,
    ratio_h,
    sign_changes,
)
from tristab import verify


def test_construction_sorts_and_drops_zeros():
    gp = GeneralizedPolynomial(((2.0, 3.0), (0.0, 1.5), (-1.0, 0.5)))
    assert gp.terms == ((-1.0, 0.5), (2.0, 3.0))


def test_construction_rejects_duplicates_and_nonfinite():
    with pytest.raises(ValueError):
        GeneralizedPolynomial(((1.0, 2.0), (3.0, 2.0)))
    with pytest.raises(ValueError):
        GeneralizedPolynomial(((math.nan, 2.0),))
    with pytest.raises(ValueError):
        GeneralizedPolynomial(((1.0, math.inf),))


def test_call_matches_direct_sum():
    gp = GeneralizedPolynomial(((1.5, 0.0), (-2.0, 1.3), (0.7, 2.9)))
    s = np.linspace(0.01, 4.0, 50)
    expect = 1.5 - 2.0 * s ** 1.3 + 0.7 * s ** 2.9
    np.testing.assert_allclose(gp(s), expect, rtol=1e-14)
    assert math.isclose(gp(2.0), 1.5 - 2.0 * 2 ** 1.3 + 0.7 * 2 ** 2.9,
                        rel_tol=1e-14)


def test_sign_changes_examples():
    assert sign_changes(GeneralizedPolynomial(((1.0, 0.0),))) == 0
    assert sign_changes(GeneralizedPolynomial(((1.0, 0.0), (-1.0, 1.0)))) == 1
    assert sign_changes(GeneralizedPolynomial(
        ((1.0, 2.0), (-3.0, 4.0), (2.0, 5.0)))) == 2
    assert sign_changes(GeneralizedPolynomial(
        ((1.0, 0.5), (2.0, 1.5), (3.0, 2.5)))) == 0


def test_quadratic_root_count():
    # (s - 1)(s - 2): two positive roots, two sign changes
    gp = GeneralizedPolynomial(((2.0, 0.0), (-3.0, 1.0), (1.0, 2.0)))
    assert sign_changes(gp) == 2
    assert count_positive_roots_sampled(gp, 10.0) == 2


def test_no_sign_change_means_no_roots():
    gp = GeneralizedPolynomial(((1.0, 0.0), (2.0, 1.7)))
    assert count_positive_roots_sampled(gp, 100.0) == 0


def test_descartes_bound_randomized():
    # the sampled positive-root count never exceeds the sign-change bound
    name, ok, detail = verify.rule_of_signs(20260819, 1000)
    assert ok, detail


def test_ratio_h_basic():
    # (x^3 - x) / (x^2 - x) = x (x+1)(x-1) / (x (x-1)) = x + 1
    assert math.isclose(ratio_h(2.0, 3.0, 1.0, 2.0, 1.0), 3.0, rel_tol=1e-12)


def test_ratio_h_limit_at_one():
    # both numerator and denominator vanish at x = 1; the limit is
    # (p1 - q1) / (p2 - q2)
    val = ratio_h(1.0, 3.0, 1.0, 5.0, 2.0)
    assert math.isclose(val, 2.0 / 3.0, rel_tol=1e-12)
    # continuity approaching the removable singularity
    for eps in (1e-7, 1e-9):
        lo = ratio_h(1.0 - eps, 3.0, 1.0, 5.0, 2.0)
        hi = ratio_h(1.0 + eps, 3.0, 1.0, 5.0, 2.0)
        assert abs(lo - 2.0 / 3.0) <= 1e-5
        assert abs(hi - 2.0 / 3.0) <= 1e-5


def test_ratio_h_domain():
    with pytest.raises(ValueError):
        ratio_h(0.0, 3.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ratio_h(-1.0, 3.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ratio_h(2.0, 3.0, 1.0, 2.0, 2.0)


def test_close_root_pair_is_counted():
    # (x - 1)(x - 1.0001): a pair 1e-4 apart, finer than a coarse scan resolves
    gp = GeneralizedPolynomial(((1.0001, 0.0), (-2.0001, 1.0), (1.0, 2.0)))
    assert count_positive_roots_sampled(gp, 10.0) == 2


def test_root_count_matches_known_roots():
    rng = np.random.default_rng(3)
    for _ in range(200):
        roots = rng.uniform(0.01, 12.0, size=int(rng.integers(1, 6)))
        coeffs = np.poly(roots)
        deg = len(coeffs) - 1
        gp = GeneralizedPolynomial(tuple(
            (float(c), float(deg - i)) for i, c in enumerate(coeffs)))
        assert count_positive_roots_sampled(gp, 10.0) == \
            int(np.sum(roots <= 10.0))
