"""Tests for amplitude root finding a(omega, gamma) and the omega -> 0 limit."""

import math

import numpy as np
import pytest

from tristab import (
    NonlinearityParams,
    endpoints,
    eval_F1,
    eval_U,
    find_a,
    find_a0,
    gamma_omega_ne,
    sweep_grid,
    u_value,
)
from tristab import profile

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)
DF234 = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)


def test_amplitude_forward_inverse():
    # F1(1) = 16/15 at gamma = 0, so a(16/15, 0) = 1
    prof = find_a(FF234, 16.0 / 15.0, 0.0)
    assert prof is not None
    assert math.isclose(prof.a, 1.0, rel_tol=1e-10)
    assert prof.exists
    assert not prof.on_boundary
    assert prof.uprime_at_a < 0.0


def test_amplitude_satisfies_defining_equation():
    rng = np.random.default_rng(17)
    found = 0
    while found < 60:
        p = 1.2 + 2.8 * rng.random()
        q = p + 0.2 + 2.0 * rng.random()
        r = q + 0.2 + 2.0 * rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        omega = 10.0 ** rng.uniform(-2, 1)
        gamma = rng.normal() * 2.0
        prof = find_a(params, omega, gamma)
        if prof is None:
            continue
        out = eval_U(params, omega, gamma, prof.a)
        assert abs(out.value / prof.a) <= 1e-12 * (1.0 + omega)
        # U > 0 strictly before the first zero
        if prof.exists:
            s = np.linspace(prof.a * 1e-4, prof.a * 0.999, 60)
            assert np.all(u_value(params, omega, gamma, s) > 0.0)
        found += 1


def test_fd_not_found_for_large_omega():
    # F1 attains a finite max in the FD case; above it there is no zero
    assert find_a(FD357, 50.0, 0.0) is None
    assert find_a(FD357, 1.0, 3.0) is None


def test_boundary_point_detected():
    for a in (0.1, 0.3, 0.5):
        om, ga = gamma_omega_ne(FF234, a)
        prof = find_a(FF234, om, ga)
        assert prof is not None
        assert prof.on_boundary
        assert not prof.exists
        assert math.isclose(prof.a, a, rel_tol=1e-6)


def test_omega_validation():
    with pytest.raises(ValueError):
        find_a(FF234, 0.0, 0.0)
    with pytest.raises(ValueError):
        find_a(FF234, -1.0, 0.0)


def test_a0_df_example():
    # (2/5) s^{3/2} = (2/3) s^{1/2}  =>  a0 = 5/3
    a0 = find_a0(DF234, 0.0)
    assert a0 is not None
    assert math.isclose(a0, 5.0 / 3.0, rel_tol=1e-12)


def test_a0_satisfies_f1_zero():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = 1.2 + 2.0 * rng.random()
        q = p + 0.2 + 1.5 * rng.random()
        r = q + 0.2 + 1.5 * rng.random()
        params = NonlinearityParams(p, q, r, sign1=-1,
                                    sign3=int(rng.choice([-1, 1])))
        gamma = rng.normal() * 2.0
        a0 = find_a0(params, gamma)
        if a0 is None:
            assert params.sign3 == -1
            continue
        assert abs(eval_F1(params, gamma, a0)) <= 1e-12 * (1.0 + abs(gamma))


def test_a0_dd_near_endpoint():
    curve = endpoints(DD357)
    a_b, gamma1 = curve[0], curve[1]
    assert math.isclose(a_b, math.sqrt(2.0), rel_tol=1e-12)
    for eps in (1e-3, 1e-5, 1e-7):
        a0 = find_a0(DD357, gamma1 - eps)
        assert a0 is not None
        assert abs(a0 - a_b) <= 50.0 * math.sqrt(eps)
    # at or beyond gamma1 the zero disappears
    assert find_a0(DD357, gamma1 + 1e-6) is None
    assert find_a0(DD357, gamma1 + 1.0) is None


def test_a0_requires_defocusing_low_power():
    with pytest.raises(ValueError):
        find_a0(FF234, 0.0)


def test_monotonic_in_omega():
    rng = np.random.default_rng(29)
    done = 0
    while done < 200:
        p = 1.2 + 2.8 * rng.random()
        q = p + 0.2 + 2.0 * rng.random()
        r = q + 0.2 + 2.0 * rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        gamma = rng.normal() * 2.0
        w2 = 10.0 ** rng.uniform(-2, 0.5)
        w1 = w2 * (1.0 + rng.uniform(0.01, 0.5))
        p1 = find_a(params, w1, gamma)
        p2 = find_a(params, w2, gamma)
        if p1 is None or p2 is None or p1.on_boundary or p2.on_boundary:
            continue
        assert p2.a < p1.a
        done += 1


def test_monotonic_in_gamma():
    rng = np.random.default_rng(31)
    done = 0
    while done < 200:
        p = 1.2 + 2.8 * rng.random()
        q = p + 0.2 + 2.0 * rng.random()
        r = q + 0.2 + 2.0 * rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        omega = 10.0 ** rng.uniform(-2, 0.5)
        g1 = rng.normal() * 2.0
        g2 = g1 - rng.uniform(0.05, 2.0)
        p1 = find_a(params, omega, g1)
        p2 = find_a(params, omega, g2)
        if p1 is None or p2 is None or p1.on_boundary or p2.on_boundary:
            continue
        assert p2.a < p1.a
        done += 1


def test_amplitude_vanishes_as_gamma_to_minus_infinity():
    for params in (FF234, FD357):
        prev = math.inf
        for k in (1, 2, 3, 4):
            prof = find_a(params, 0.5, -10.0 ** k)
            assert prof is not None and prof.exists
            assert prof.a < prev
            prev = prof.a
        # the middle term dominates, so a ~ (omega (q+1) / (2|gamma|))^{2/(q-1)}
        rate = (0.5 * (params.q + 1.0) / 2e4) ** (2.0 / (params.q - 1.0))
        assert prev < 2.0 * rate


def test_one_sided_continuity_across_curve():
    a_star = 0.3
    om, ga = gamma_omega_ne(FF234, a_star)
    # lower-left approach: a converges to the parameterizing value
    for eps in (1e-3, 1e-5, 1e-7):
        prof = find_a(FF234, om * (1.0 - eps), ga * (1.0 - eps))
        assert prof is not None and prof.exists
        assert abs(prof.a - a_star) <= 20.0 * math.sqrt(eps)
    # upper-right approach: limit is strictly larger than a_star
    gap = []
    for eps in (1e-3, 1e-5, 1e-7):
        prof = find_a(FF234, om * (1.0 + eps), ga * (1.0 + eps))
        assert prof is not None and prof.exists
        gap.append(prof.a - a_star)
    assert min(gap) > 0.1


def test_bisect_same_sign_piece_from_zero_is_not_walked():
    # a monotone piece whose ends share a sign holds no root: no evaluation
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 + x

    assert profile._bisect(f, 0.0, 5.0, 1.0, 6.0) is None
    assert profile._bisect(f, 0.0, 5.0, -1.0, -6.0) is None
    assert calls == []


def test_sweep_row_finds_critical_points_once_per_gamma():
    fd367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)
    profile._f1_critical_points.cache_clear()
    grid = sweep_grid(fd367, (0.05, 3.0), (-25.0, 2.0), 12, 3, jobs=1)
    info = profile._f1_critical_points.cache_info()
    assert info.misses == len(grid.gamma_axis)
    assert info.hits >= grid.values.size - len(grid.gamma_axis)
    crits = profile._f1_critical_points(fd367, float(grid.gamma_axis[0]))
    assert isinstance(crits, tuple)


@pytest.mark.parametrize("r", [7.5, 8.0])
def test_wide_exponent_gap_does_not_overflow(r):
    # with r - p above about 5.1 the doubling search on the last monotone
    # piece of h overflowed x ** beta; that piece runs from h's value at
    # its start towards sign(d_r) * inf, so ends of one sign are skipped
    params = NonlinearityParams(2.0, 3.0, r)
    prof = find_a(params, 0.1, -1.0)
    assert prof.exists and not prof.on_boundary
    assert prof.uprime_at_a < 0.0
    assert abs(u_value(params, 0.1, -1.0, prof.a)) <= 1e-14 * 0.1 * prof.a
