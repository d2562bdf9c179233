"""Tests for generalized polynomials and the rule-of-signs bound."""

import math

import numpy as np
import pytest

from tristab import (
    GeneralizedPolynomial,
    count_positive_roots_sampled,
    sign_changes,
)
from tristab import signs, verify


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


def test_close_root_pair_is_counted():
    # (x - 1)(x - 1.0001): a pair 1e-4 apart, finer than a coarse scan resolves
    gp = GeneralizedPolynomial(((1.0001, 0.0), (-2.0001, 1.0), (1.0, 2.0)))
    assert count_positive_roots_sampled(gp, 10.0) == 2


def test_root_count_where_a_piece_is_flat_then_steep():
    # the derivative's piece (3.38, 50) is flat near 3.38 and falls to
    # -1.4e9 at 50: false position without a midpoint safeguard kept its
    # lower end for 200 steps, returned 8.89 for the critical point 4.03
    # and counted 0 roots
    gp = GeneralizedPolynomial((
        (-1.048864324176278, -0.8432484611688347),
        (-0.9269267496131243, -0.16562211520101489),
        (0.20442317649662195, 3.1164023718705707),
        (-0.5278197155872505, 3.983771947645767),
        (0.47582094388154905, 4.615069344195943),
        (-0.08359649758070431, 5.432335575017549)))
    assert count_positive_roots_sampled(gp, 50.0) == 2


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


def _counted(f):
    """f and the list of points it is evaluated at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def _assert_adjacent_pick(f, x):
    """x is an exact zero of f, or one of two adjacent floats where f has
    opposite signs, and the one of the two with the smaller |f|."""
    fx = f(x)
    if fx == 0.0:
        return
    other = [y for y in (math.nextafter(x, -math.inf),
                         math.nextafter(x, math.inf))
             if (f(y) > 0.0) != (fx > 0.0)]
    assert other, x
    assert any(abs(fx) <= abs(f(y)) for y in other), x


@pytest.mark.parametrize("lo, hi, flo, fhi", [
    (1.0, 2.0, 3.0, 0.5), (1.0, 2.0, -3.0, -0.5),
    (0.0, 2.0, 1.0, 4.0), (0.0, 2.0, -1.0, -4.0),
])
def test_bisect_ends_of_one_sign_give_none(lo, hi, flo, fhi):
    f, seen = _counted(lambda x: 1.0)
    assert signs.bisect(f, lo, hi, flo, fhi) is None
    assert seen == []


def test_bisect_zero_at_an_end_or_a_step():
    f, seen = _counted(lambda x: x - 0.5)
    assert signs.bisect(f, 0.25, 0.5, -0.25, 0.0) == 0.5
    assert signs.bisect(f, 0.5, 1.0, 0.0, 0.5) == 0.5
    assert seen == []
    # the false-position point of a line is its root, where f is exactly 0
    assert signs.bisect(f, 0.25, 1.0, -0.25, 0.5) == 0.5
    assert seen == [0.5]


def test_bisect_walks_down_from_a_zero_lower_end():
    # flo is only the sign of f just right of 0; lo walks down from hi by
    # halving until f changes sign, then the solve runs on that bracket
    f, seen = _counted(lambda x: x - 1e-5)
    root = signs.bisect(f, 0.0, 1.0, -1.0, 1.0 - 1e-5)
    walk = [2.0 ** -k for k in range(1, 18)]
    assert seen[:len(walk)] == walk
    assert abs(root - 1e-5) <= 1e-15 * 1e-5
    assert len(seen) <= len(walk) + 8


def test_bisect_takes_geometric_means_on_a_wide_bracket():
    f, seen = _counted(lambda x: math.log(x / 3.0))
    root = signs.bisect(f, 1e-3, 1e6, math.log(1e-3 / 3.0), math.log(1e6 / 3.0))
    assert seen[0] == math.sqrt(1e-3 * 1e6)
    assert seen[1] == math.sqrt(1e-3 * seen[0])
    assert abs(root - 3.0) <= 2e-15 * 3.0


# functions on which plain false position keeps one end and stalls: the
# midpoint must still bring the bracket down to adjacent floats, well inside
# the 200-step cap; the step function has no slope for false position to use
@pytest.mark.parametrize("f, lo, hi, root", [
    pytest.param(lambda x: x ** 40 - 1e-30, 0.1, 1.0, 10.0 ** -0.75,
                 id="x^40"),
    pytest.param(lambda x: math.exp(50.0 * x) - 1e10, 0.1, 1.0,
                 math.log(1e10) / 50.0, id="steep-exp"),
    pytest.param(lambda x: (x - 1.0) ** 3, 0.5, 2.0, 1.0, id="triple-root"),
    pytest.param(lambda x: -1.0 if x < 0.3 else 1.0, 0.1, 1.0, 0.3,
                 id="step"),
])
def test_bisect_reaches_the_stop_where_false_position_stalls(f, lo, hi, root):
    g, seen = _counted(f)
    x = signs.bisect(g, lo, hi, f(lo), f(hi))
    assert abs(x - root) <= 2e-15 * root
    assert len(seen) < 200
    _assert_adjacent_pick(f, x)


def test_bisect_converges_superlinearly_on_a_smooth_function():
    # halving from a bracket of width 0.5 or 1 to adjacent floats takes
    # about 52 steps; false position with Anderson-Bjorck scaling takes at
    # most 12 here
    for f, lo, hi, root in ((lambda x: x ** 3 - 2.0, 1.0, 1.5, 2.0 ** (1 / 3)),
                            (lambda x: math.log(x) - 0.5, 1.0, 2.0,
                             math.exp(0.5)),
                            (lambda x: 1.0 - 2.0 * x ** -1.5, 1.0, 2.0,
                             2.0 ** (2 / 3))):
        g, seen = _counted(f)
        x = signs.bisect(g, lo, hi, f(lo), f(hi))
        assert abs(x - root) <= 2e-15 * root
        assert len(seen) <= 12
        _assert_adjacent_pick(f, x)


def test_bisect_calls_f_at_most_once_per_point():
    # the final pick reads the values the steps computed, and no call
    # repeats an end given to bisect or a point evaluated before; a false
    # position that rounds onto an end steps one float inside it, so the
    # solve does not creep to adjacent floats by halving
    rng = np.random.default_rng(19)
    picks = 0
    for _ in range(300):
        c, k = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.2, 6.0)
        root, sign = c ** (1.0 / k), float(rng.choice((-1.0, 1.0)))

        def f(x, c=c, k=k, sign=sign):
            return sign * (x ** k - c)

        hi = root * 10.0 ** rng.uniform(0.01, 3.0)
        lo = 0.0 if rng.random() < 0.25 else root / 10.0 ** rng.uniform(0.01,
                                                                         3.0)
        flo = -sign if lo == 0.0 else f(lo)
        g, seen = _counted(f)
        x = signs.bisect(g, lo, hi, flo, f(hi))
        assert lo < x < hi
        assert len(seen) == len(set(seen)) and hi not in seen
        assert lo not in seen
        assert len(seen) <= 24
        if f(x) != 0.0:
            picks += 1
            _assert_adjacent_pick(f, x)
    assert picks >= 150


def test_bisect_geometric_mean_of_a_bracket_whose_product_overflows():
    # lo * hi = 1e320 is past the largest float; sqrt(lo) sqrt(hi) is not
    f, seen = _counted(lambda x: math.log(x / 1e160))
    root = signs.bisect(f, 1e150, 1e170, math.log(1e-10), math.log(1e10))
    assert 1e150 < seen[0] < 1e170
    assert abs(root - 1e160) <= 2e-15 * 1e160



@pytest.mark.parametrize("terms, expect", [
    # zero at (2.5 / 0.2531)^200, about 8e198: past 600 doublings of 1
    pytest.param([(-2.5, 0.0), (0.2531, 0.005)], [(2.5 / 0.2531) ** 200],
                 id="past-600-doublings"),
    # critical point near 1e399: g is monotone up to the largest float
    pytest.param([(1.0, 0.0), (-1e4, 0.5), (1.0, 0.51)], [1e-8],
                 id="critical-point-past-the-largest-float"),
    # zeros at 50^200, about 1e340, and at (1e-10)^200 = 1e-2000
    pytest.param([(-50.0, 0.0), (1.0, 0.005)], [], id="past-the-largest"),
    pytest.param([(-1e-10, 0.0), (1.0, 0.005)], [], id="below-the-smallest"),
])
def test_roots_of_an_unbounded_window(terms, expect):
    def g(x):
        return sum(c * x ** e for c, e in terms)

    found = signs.roots(terms, math.inf)
    assert len(found) == len(expect)
    for x, root in zip(found, expect):
        assert abs(x - root) <= 1e-3 * root
        assert g(x * (1 - 1e-13)) * g(x * (1 + 1e-13)) < 0.0


def test_sampled_root_count_of_no_terms_and_of_an_empty_window():
    assert count_positive_roots_sampled(GeneralizedPolynomial(()), 1.0) == 0
    assert count_positive_roots_sampled(
        GeneralizedPolynomial(((0.0, 1.0),)), -1.0) == 0
    gp = GeneralizedPolynomial(((1.0, 0.0), (-2.0, 1.0)))
    for s_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="s_max must be positive"):
            count_positive_roots_sampled(gp, s_max)
