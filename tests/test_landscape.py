"""Tests for the potential landscape evaluations F1, U, A_l, N, D."""

import math

import numpy as np
import pytest

from tristab import (
    NonlinearityParams,
    eval_F1,
    eval_U,
    find_a,
)
from tristab.landscape import power_sum, terms

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
DF234 = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)


def eval_A(l, a, s):
    """A_l(a, s) = (1 - s^{(l-1)/2}) / (l+1) * a^{(l-1)/2} on s in [0, 1]:
    the direct reference form of the pieces of N and D."""
    e = (l - 1.0) / 2.0
    s = np.asarray(s, dtype=float)
    out = (1.0 - s ** e) / (l + 1.0) * a ** e
    return float(out) if out.ndim == 0 else out


def test_f1_anchor_ff():
    # 2/3 + 2/5 = 16/15 at s = 1, gamma = 0
    got = eval_F1(FF234, 0.0, 1.0)
    assert math.isclose(got, 16.0 / 15.0, rel_tol=1e-15)


def test_f1_anchor_df():
    # -2/3 + 2/5 = -4/15
    got = eval_F1(DF234, 0.0, 1.0)
    assert math.isclose(got, -4.0 / 15.0, rel_tol=1e-14)


def test_f1_vectorized():
    s = np.linspace(0.1, 2.0, 17)
    vec = eval_F1(FF234, 0.5, s)
    for si, vi in zip(s, vec):
        assert math.isclose(vi, eval_F1(FF234, 0.5, float(si)), rel_tol=1e-15)


def test_f1_and_u_reject_a_negative_scalar():
    # Python's ** would give a complex power here
    for call in (lambda: eval_F1(FF234, 0.5, -1.0),
                 lambda: eval_U(FF234, 0.1, 0.5, -1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()


def test_eval_u_at_zero():
    out = eval_U(FF234, 0.7, 1.3, 0.0)
    assert out.value == 0.0
    assert out.first_deriv == 0.7


def test_eval_u_zero_at_special_omega():
    # omega = F1(1) makes s = 1 a zero of U
    out = eval_U(FF234, 16.0 / 15.0, 0.0, 1.0)
    assert abs(out.value) <= 1e-15


def test_u_equals_s_times_omega_minus_f1():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = 1.2 + 2.8 * rng.random()
        q = p + 0.2 + 2.0 * rng.random()
        r = q + 0.2 + 2.0 * rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        omega = 10.0 ** rng.uniform(-2, 1)
        gamma = rng.normal() * 3.0
        s = 10.0 ** rng.uniform(-3, 1)
        u = eval_U(params, omega, gamma, s).value
        expect = s * (omega - eval_F1(params, gamma, s))
        assert abs(u - expect) <= 1e-12 * (1.0 + abs(u))


def test_u_derivs_match_finite_differences():
    params = FD357
    omega, gamma = 0.2, -0.4
    h = 1e-6
    for s in (0.05, 0.3, 0.9):
        out = eval_U(params, omega, gamma, s)
        up_fd = (eval_U(params, omega, gamma, s + h).value
                 - eval_U(params, omega, gamma, s - h).value) / (2 * h)
        upp_fd = (eval_U(params, omega, gamma, s + h).value
                  - 2 * out.value
                  + eval_U(params, omega, gamma, s - h).value) / h ** 2
        assert abs(out.first_deriv - up_fd) <= 1e-6 * (1 + abs(up_fd))
        assert abs(out.second_deriv - upp_fd) <= 1e-4 * (1 + abs(upp_fd))


def test_eval_u_and_f1_agree_with_the_solver_at_probe_waves():
    # eval_U and a scalar eval_F1 sum as Python floats, as the amplitude
    # solve does, so U'(a) and F1(a) are the solver's to the bit; numpy's
    # power differs from Python's ** in the last bit on some inputs.
    # The draws are those of the probe at numpy default_rng(2026):
    # p U(1.05, 6), q - p and r - q U(0.05, 4), s1 and s3 from {-1, 1},
    # gamma U(-8, 8), omega = 10^U(-2, 1.5), in that order.
    rng = np.random.default_rng(2026)
    found = 0
    while found < 2000:
        p = rng.uniform(1.05, 6.0)
        q = p + rng.uniform(0.05, 4.0)
        r = q + rng.uniform(0.05, 4.0)
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice((-1, 1))),
                                    sign3=int(rng.choice((-1, 1))))
        gamma = rng.uniform(-8.0, 8.0)
        omega = 10.0 ** rng.uniform(-2.0, 1.5)
        res = find_a(params, omega, gamma)
        if res is None:
            continue
        found += 1
        t = terms(params, gamma)
        point = (params, omega, gamma, res.a)
        assert eval_U(params, omega, gamma, res.a).first_deriv \
            == res.uprime_at_a, point
        assert eval_F1(params, gamma, res.a) \
            == power_sum(t.f1, t.e, res.a), point


def test_u_second_at_zero_one_sided():
    def upp0(params):
        return eval_U(params, 0.0, 0.0, 0.0).second_deriv

    # p < 3: infinite one-sided limit with sign -a1
    assert upp0(NonlinearityParams(2.0, 3.0, 4.0)) == -math.inf
    assert upp0(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1)) == math.inf
    # p = 3: finite limit -a1 (p - 1) / 2 = -a1
    assert upp0(NonlinearityParams(3.0, 5.0, 7.0)) == -1.0
    assert upp0(NonlinearityParams(3.0, 5.0, 7.0, sign1=-1)) == 1.0
    # p > 3: limit 0
    assert upp0(NonlinearityParams(3.5, 5.0, 7.0)) == 0.0


def test_eval_a_values():
    assert math.isclose(eval_A(3.0, 1.0, 0.0), 0.25, rel_tol=1e-15)
    for l in (2.0, 3.0, 5.5):
        assert eval_A(l, 2.0, 1.0) == 0.0
    assert math.isclose(eval_A(2.0, 4.0, 0.25), 1.0 / 3.0, rel_tol=1e-14)


def test_eval_a_bounded_near_one():
    # (1 - s^{(l-1)/2}) / (1 - s) stays bounded as s -> 1
    s = 1.0 - np.geomspace(1e-12, 0.5, 40)
    for l in (1.5, 3.0, 6.0):
        vals = eval_A(l, 1.0, s) / (1.0 - s)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) <= (l - 1) / (l + 1) + 1e-6)


def eval_ND(params, gamma, a, s):
    """N(a, s) and D(a, s) of the transformed slope integrand, summed
    directly from the term table: sum n_l a^{e_l} (1 - s^{e_l}) and the
    same with d_l.  A reference for the tests; vectorized over s."""
    t = terms(params, gamma)
    s = np.asarray(s, dtype=float)
    powers = [a ** e for e in t.e]
    row = [c * x for triple in (t.n, t.d) for c, x in zip(triple, powers)]
    E = [1.0 - s ** e for e in t.e]
    N = row[0] * E[0] + row[1] * E[1] + row[2] * E[2]
    D = row[3] * E[0] + row[4] * E[1] + row[5] * E[2]
    return N, D


def test_eval_nd_at_one():
    n, d = eval_ND(FF234, 0.0, 1.0, 1.0)
    assert n == 0.0 and d == 0.0


def test_eval_nd_at_zero():
    n, d = eval_ND(FF234, 0.0, 1.0, 0.0)
    assert math.isclose(n, 6.0 / 5.0, rel_tol=1e-15)
    assert math.isclose(d, 8.0 / 15.0, rel_tol=1e-15)


def test_d_at_zero_is_half_omega():
    # 2 D(a, 0) = U(a)/a = omega - F1(a) ... at the profile amplitude
    # F1(a) = omega, so D(a, 0) = omega / 2
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = 1.5 + rng.random()
        q = p + 0.5 + rng.random()
        r = q + 0.5 + rng.random()
        params = NonlinearityParams(p, q, r)
        omega = 10.0 ** rng.uniform(-2, 0)
        gamma = rng.uniform(-1, 2)
        prof = find_a(params, omega, gamma)
        if prof is None or prof.on_boundary:
            continue
        _, d = eval_ND(params, gamma, prof.a, 0.0)
        assert abs(d - omega / 2.0) <= 1e-10 * (1 + omega)


def test_nd_identity_against_u():
    # 2 [a1 A_p - gamma A_q + a3 A_r](a, s) = U(a s) / (a s) at a = a(omega, gamma)
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 40:
        p = 1.3 + 1.5 * rng.random()
        q = p + 0.3 + rng.random()
        r = q + 0.3 + rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        omega = 10.0 ** rng.uniform(-2, 0.5)
        gamma = rng.normal()
        prof = find_a(params, omega, gamma)
        if prof is None or prof.on_boundary:
            continue
        a = prof.a
        for s in (0.1, 0.37, 0.62, 0.95):
            _, d = eval_ND(params, gamma, a, s)
            u = eval_U(params, omega, gamma, a * s).value
            assert abs(2.0 * d - u / (a * s)) <= 1e-10 * (1.0 + abs(u / (a * s)))
        checked += 1


@pytest.mark.parametrize("params, gamma, column", [
    pytest.param(NonlinearityParams(5.0, 6.0, 7.0, sign3=-1), -2.0, 0,
                 id="p=5"),
    pytest.param(NonlinearityParams(2.0, 3.0, 5.0, sign1=-1), -1.0, 2,
                 id="r=5"),
    pytest.param(NonlinearityParams(7.0 / 3.0, 3.0, 4.0, sign3=-1), 0.0, 1,
                 id="gamma=0"),
])
def test_term_table_where_a_coefficient_vanishes(params, gamma, column):
    # (5 - l) kills the l-power term of N at l = 5, and gamma = 0 the whole
    # q column; N still equals its A_l form term by term
    t = terms(params, gamma)
    assert t.n[column] == 0.0
    if column == 1:
        assert t.f1[1] == t.up[1] == t.d[1] == 0.0
    s = np.linspace(0.0, 1.0, 11)
    n, d = eval_ND(params, gamma, 0.7, s)
    coef = (params.a1, -gamma, params.a3)
    ls = (params.p, params.q, params.r)
    n_ref = sum(c * (5.0 - l) * eval_A(l, 0.7, s) for c, l in zip(coef, ls))
    d_ref = sum(c * eval_A(l, 0.7, s) for c, l in zip(coef, ls))
    assert np.allclose(n, n_ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(d, d_ref, rtol=1e-13, atol=1e-15)
