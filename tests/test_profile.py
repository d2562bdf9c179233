"""Tests for amplitude root finding a(omega, gamma) and the omega -> 0 limit."""

import dataclasses
import json
import math
import os
import sys

import mpmath
import numpy as np
import pytest

from tristab import (
    NonlinearityParams,
    UnsupportedRegime,
    endpoints,
    eval_F1,
    eval_J_mass_fd,
    eval_U,
    find_a,
    find_a0,
    gamma_omega_ne,
    sweep_grid,
)
from tristab import profile, verify
from tristab.landscape import power_sum, terms

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)
DF234 = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)
FD367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)

EPS = np.finfo(float).eps
# omega - F1(a) at a float a within a few ulps of the root rounds to a few
# eps S, where S = |omega| + sum |f1_l| a^{e_l} is the size of its terms
RESIDUAL_C = 4.0
# a float root moved by k eps S of residual sits k eps S / |F1'(a)| away
FORWARD_K = 4.0
FORWARD_ULPS = 4.0


def _term_scale(params, omega, gamma, a):
    """S = |omega| + sum |f1_l| a^{e_l}, the scale of omega - F1(a)."""
    t = terms(params, gamma)
    return power_sum([abs(c) for c in t.f1], t.e, a, lead=abs(omega))


def _forward_bound(params, omega, gamma, a):
    """FORWARD_K eps S / |F1'(a)| plus FORWARD_ULPS ulps of a."""
    t = terms(params, gamma)
    slope = abs(sum(c * e * a ** (e - 1.0) for c, e in zip(t.f1, t.e)))
    return (FORWARD_K * EPS * _term_scale(params, omega, gamma, a) / slope
            + FORWARD_ULPS * math.ulp(a))


def _mp_root_near(params, omega, gamma, a):
    """A 40-digit root of omega - F1 next to the float a, or None: bisection
    on the narrowest bracket a -/+ a 2^-k, k = 52, 51, ..., 20, whose ends
    differ in sign.  The coefficients are those of the float inputs, exactly."""
    with mpmath.workdps(40):
        p, q, r = (mpmath.mpf(x) for x in (params.p, params.q, params.r))
        c = (2 * params.sign1 / (p + 1), -2 * mpmath.mpf(gamma) / (q + 1),
             2 * params.sign3 / (r + 1))
        e = ((p - 1) / 2, (q - 1) / 2, (r - 1) / 2)
        w, x = mpmath.mpf(omega), mpmath.mpf(a)

        def phi(s):
            return w - c[0] * s ** e[0] - c[1] * s ** e[1] - c[2] * s ** e[2]

        for k in range(52, 19, -1):
            lo, hi = x - x * 2.0 ** -k, x + x * 2.0 ** -k
            flo, fhi = phi(lo), phi(hi)
            if (flo > 0) != (fhi > 0):
                break
        else:
            return None
        while hi - lo > x * mpmath.mpf(10) ** -35:
            mid = (lo + hi) / 2
            fm = phi(mid)
            if fm == 0:
                return mid
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2


def _reference_points():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "reference_points.json")
    with open(path) as fh:
        return json.load(fh)["points"]


def _random_roots(seed, n):
    """(params, omega, gamma, a) at n random draws with a root: a from
    find_a, or from find_a0 at omega = 0; exponents also on the borders
    p = 7/3, p = 5, r = 5 and 2p + q = 7."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        kind = rng.integers(5)
        p = 1.1 + 3.9 * rng.random()
        q = p + 0.05 + 3.0 * rng.random()
        r = q + 0.05 + 3.0 * rng.random()
        if kind == 1:
            p = 7.0 / 3.0
            q = p + 0.05 + 3.0 * rng.random()
            r = q + 0.05 + 3.0 * rng.random()
        elif kind == 2:
            p, q = 5.0, 5.05 + 2.0 * rng.random()
            r = q + 0.05 + 2.0 * rng.random()
        elif kind == 3:
            q = 1.5 + 3.0 * rng.random()
            p, r = 1.05 + (q - 1.1) * rng.random(), 5.0
        elif kind == 4:
            p = 1.1 + 1.2 * rng.random()
            q = 7.0 - 2.0 * p
            r = q + 0.05 + 3.0 * rng.random()
        params = NonlinearityParams(p, q, r,
                                    sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        gamma = 3.0 * rng.normal()
        if params.sign1 == -1 and rng.random() < 0.25:
            omega, a = 0.0, find_a0(params, gamma)
        else:
            omega = 10.0 ** rng.uniform(-3, 1.5)
            prof = find_a(params, omega, gamma)
            a = None if prof is None or prof.on_boundary else prof.a
        if a is not None:
            out.append((params, omega, gamma, a))
    return out


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
        assert abs(out.value / prof.a) \
            <= RESIDUAL_C * EPS * _term_scale(params, omega, gamma, prof.a)
        # U > 0 strictly before the first zero
        if prof.exists:
            s = np.linspace(prof.a * 1e-4, prof.a * 0.999, 60)
            assert all(eval_U(params, omega, gamma, si).value > 0.0
                       for si in s)
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
        assert abs(eval_F1(params, gamma, a0)) \
            <= RESIDUAL_C * EPS * _term_scale(params, 0.0, gamma, a0)


def _assert_near_mp_root(params, omega, gamma, a):
    root = _mp_root_near(params, omega, gamma, a)
    assert root is not None, (params, omega, gamma, a)
    assert float(abs(mpmath.mpf(a) - root)) \
        <= _forward_bound(params, omega, gamma, a), (params, omega, gamma, a)


def test_roots_match_high_precision_at_reference_points():
    checked = 0
    for pt in _reference_points():
        params = NonlinearityParams(pt["p"], pt["q"], pt["r"],
                                    pt["s1"], pt["s3"])
        omega, gamma = pt["omega"], pt["gamma"]
        if omega == 0.0:
            a = find_a0(params, gamma)
        else:
            prof = find_a(params, omega, gamma)
            # a touch point is a double zero: no sign change to bracket
            if prof is None or prof.on_boundary:
                continue
            a = prof.a
        _assert_near_mp_root(params, omega, gamma, a)
        checked += 1
    assert checked >= 35


def test_roots_match_high_precision_at_random_draws():
    for params, omega, gamma, a in _random_roots(41, 150):
        _assert_near_mp_root(params, omega, gamma, a)


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
    name, ok, detail = verify.amplitude_order(29, 200)[0]
    assert ok, (name, detail)


def test_monotonic_in_gamma():
    name, ok, detail = verify.amplitude_order(31, 200)[1]
    assert ok, (name, detail)


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


def _counted_solves(monkeypatch):
    """A list that gets, for each amplitude solve, the number of calls of
    phi and the number after the walk down from 0: profile's bisect is
    wrapped, and the phi it is handed counts its calls."""
    solves = []
    solve = profile._bisect

    def counted(f, lo, hi, flo, fhi):
        seen = []

        def g(x):
            seen.append(x)
            return f(x)

        root = solve(g, lo, hi, flo, fhi)
        walk, x = 0, hi
        while lo == 0.0 and walk < len(seen) and seen[walk] == 0.5 * x:
            walk, x = walk + 1, 0.5 * x
        solves.append((len(seen), len(seen) - walk))
        return root

    monkeypatch.setattr(profile, "_bisect", counted)
    return solves


def test_solve_steps_inside_an_end_false_position_lands_on(monkeypatch):
    # one end lies within an ulp of the root, and the false-position point
    # rounds onto it; halving the far end in took 57 calls here
    solves = _counted_solves(monkeypatch)
    res = find_a(FD367, 2.714516129032258, -24.129032258064516)
    assert res.a == float.fromhex("0x1.52d3d1740d68cp-1")
    assert len(solves) == 1 and solves[0][0] <= 20


@pytest.mark.parametrize("params, omega_range, gamma_range, n", [
    pytest.param(FF234, (0.02, 0.6), (0.0, 8.0), 24, id="ff_diagram"),
    pytest.param(FD367, (0.05, 3.0), (-25.0, 2.0), 32, id="fd_diagram"),
    pytest.param(DD357, (0.05, 20.0), (-10.0, 0.5), 40, id="dd-40x40"),
])
def test_amplitude_solves_of_a_diagram_window_take_few_calls(
        monkeypatch, params, omega_range, gamma_range, n):
    # past the walk from 0, no solve on these windows creeps to adjacent
    # floats by halving: at most 20 calls each, where halving took up to 51
    solves = _counted_solves(monkeypatch)
    for gamma in np.linspace(*gamma_range, n):
        for omega in np.linspace(*omega_range, n):
            find_a(params, float(omega), float(gamma))
    assert len(solves) >= n * n // 3
    assert max(after for _, after in solves) <= 20


def test_profile_carries_the_powers_of_its_amplitude():
    # U'(a), its tolerance and every J row read these; they are a ** e_l
    # bit for bit, and a ProfileResult compares and prints without them
    rng = np.random.default_rng(19)
    points = [(FF234, 0.1, 1.0), (FD357, 0.1, 0.0), (DF234, 0.5, 2.0),
              (DD357, 1.0, -5.0)]
    for _ in range(40):
        p = rng.uniform(1.05, 6.0)
        q = p + rng.uniform(0.05, 4.0)
        r = q + rng.uniform(0.05, 4.0)
        params = NonlinearityParams(p, q, r, sign1=int(rng.choice((-1, 1))),
                                    sign3=int(rng.choice((-1, 1))))
        points.append((params, 10.0 ** rng.uniform(-2.0, 1.5),
                       rng.uniform(-8.0, 8.0)))
    found = 0
    for params, omega, gamma in points:
        res = find_a(params, omega, gamma)
        if res is None:
            continue
        found += 1
        t = terms(params, gamma)
        assert [x.hex() for x in res.powers] == \
            [(res.a ** e).hex() for e in t.e]
        assert res.uprime_at_a == power_sum(t.up, t.e, res.a, lead=omega)
        bare = profile.ProfileResult(res.a, res.uprime_at_a, res.exists,
                                     res.on_boundary)
        assert bare.powers == () and bare == res and repr(bare) == repr(res)
        assert "powers" not in repr(res)
    assert found >= 25


def test_sweep_row_finds_critical_points_once_per_gamma():
    fd367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)
    terms.cache_clear()
    grid = sweep_grid(fd367, (0.05, 3.0), (-25.0, 2.0), 12, 3, jobs=1)
    info = terms.cache_info()
    assert info.misses == len(grid.gamma_axis)
    assert info.hits >= grid.values.size - len(grid.gamma_axis)
    crits = terms(fd367, float(grid.gamma_axis[0])).crits
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
    assert abs(eval_U(params, 0.1, -1.0, prof.a).value) \
        <= 1e-14 * 0.1 * prof.a


@pytest.mark.parametrize("gamma", [-10.0, 10.0])
def test_narrow_exponent_gap_with_a_far_critical_point(gamma):
    # at FF(2, 3, 3.01) and gamma = 10 F1's second critical point is near
    # 6e199, past 600 doublings of 1; a is the first zero of omega - F1
    params = NonlinearityParams(2.0, 3.0, 3.01)
    prof = find_a(params, 0.1, gamma)
    assert prof.exists and not prof.on_boundary
    t = terms(params, gamma)

    def phi(s):
        return 0.1 - power_sum(t.f1, t.e, s)

    below, above = (math.nextafter(prof.a, x) for x in (0.0, math.inf))
    assert phi(below) * phi(above) <= 0.0
    crits = terms(params, gamma).crits
    assert len(crits) == (2 if gamma > 0 else 0)


@pytest.mark.parametrize("params", [FF234, FD357], ids=["FF234", "FD357"])
@pytest.mark.parametrize("omega", [1e-9, 1e-10, 1e-12])
def test_waves_at_small_scales_are_not_double_zeros(params, omega):
    # the double-zero slacks scale with the size of the terms below 1; with
    # an absolute floor of 1 every wave at omega <= 1e-9 read on_boundary
    prof = find_a(params, omega, 0.0)
    assert prof.exists and not prof.on_boundary
    _assert_near_mp_root(params, omega, 0.0, prof.a)


def test_a0_at_a_small_scale_is_the_first_zero_of_f1():
    # F1 dips to a local minimum near 1.8e-41 still 3% of its terms' size
    # below 0; read as a double zero there, a0 was that minimum.  The first
    # zero is 2.029893e-40 (mpmath, 50 digits)
    params = NonlinearityParams(1.8, 1.85, 2.5, sign1=-1)
    a0 = find_a0(params, -10.0)
    assert math.isclose(a0, 2.029893e-40, rel_tol=1e-6)
    _assert_near_mp_root(params, 0.0, -10.0, a0)
    c = terms(params, -10.0).crits[0]
    assert c < a0 and eval_F1(params, -10.0, c) < 0.0


@pytest.mark.parametrize("omega", [1e18, 1e25, 1e30, 5.8e30])
def test_amplitudes_past_600_doublings_are_found(omega):
    # FF(1.05, 1.1, 1.2) has a = 2.5937e180, 2.5937e250 and 2.5937e300
    # (mpmath) at the first three; the upper end of the bracket doubles up
    # to the largest float, and the last a lies in its top binade
    params = NonlinearityParams(1.05, 1.1, 1.2)
    prof = find_a(params, omega, 0.0)
    assert prof.exists and not prof.on_boundary
    assert prof.a > 2.0 ** 599
    _assert_near_mp_root(params, omega, 0.0, prof.a)


def test_amplitude_past_the_largest_float_is_unsupported():
    # at omega = 1e31 F1 stays below omega up to the largest float
    with pytest.raises(UnsupportedRegime):
        find_a(NonlinearityParams(1.05, 1.1, 1.2), 1e31, 0.0)


@pytest.mark.parametrize("p, q, r, omega", [
    (1.0126953125, 1.1015625, 2.1015625, 0.0036607292429389035),
    (1.0127, 1.1016, 2.1016, 0.006),
])
def test_amplitude_below_the_smallest_float_is_unsupported(p, q, r, omega):
    # at p = 1.0127, a ~ omega^(2/(p-1)) lies below 5e-324.  bisect ends on
    # (0, 5e-324) and returns the end with the smaller |omega - F1|: 0 at
    # the first point, where find_a gave a = 0 with exists and on_boundary
    # both False; 5e-324 at the second (a ~ 1e-350), where it gave a wave
    # with U'(a) ~ -0.003
    params = NonlinearityParams(p, q, r, sign3=-1)
    with pytest.raises(UnsupportedRegime, match="below the float range"):
        find_a(params, omega, 0.0)
    # the smallest wave above it is kept
    assert find_a(params, 0.01, 0.0).a < 1e-300


def test_near_branch_is_found_before_a_critical_point_past_overflow():
    # at FF(3, 5, 5.01) and gamma = 8 F1's second critical point is near
    # 3.5e180, where s ** e_r overflows; the crossing on the first piece is
    # found without looking past it
    params = NonlinearityParams(3.0, 5.0, 5.01)
    prof = find_a(params, 0.01, 8.0)
    assert prof.exists and not prof.on_boundary
    assert math.isclose(prof.a, 0.022334724078522886, rel_tol=1e-14)
    grid = sweep_grid(params, (0.005, 0.02), (7.0, 9.0), 3, 3, jobs=1)
    assert np.all(np.isfinite(grid.values))


@pytest.mark.parametrize("gamma", [8.0, 20.0])
def test_amplitude_beyond_the_float_range_is_unsupported(gamma):
    # at omega = 0.1 the crossing lies past the critical point near 3.5e180
    # (gamma = 8) or 1.4e260 (gamma = 20), where F1's terms overflow; this
    # raised a bare OverflowError from s ** e_r
    params = NonlinearityParams(3.0, 5.0, 5.01)
    for fn in (find_a, eval_J_mass_fd):
        with pytest.raises(UnsupportedRegime, match="beyond the float range"):
            fn(params, 0.1, gamma)


# A DD point on the curve where F1's terms exceed omega by about 2e4, so
# phi is round-off over about 1e-4 relative around the peak of F1
DD_FLAT_PEAK = NonlinearityParams(5.0, 5.207900562210743, 5.320054348093732,
                                  sign1=-1, sign3=-1)


@pytest.mark.parametrize("ulps", [0, -5, -2, -1, 1, 2, 5, 23, 40])
def test_touch_at_a_flat_peak_reads_on_boundary_when_the_peak_moves(monkeypatch, ulps):
    # the touch test scales its slack by the size of F1's terms at the peak;
    # scaled by |omega| + |max F1| it was below their round-off, and a peak
    # moved by one ulp could read exists
    omega, gamma = 0.01408496608371479, -1.9117443822455904
    table = terms(DD_FLAT_PEAK, gamma)
    crits = list(table.crits)
    for _ in range(abs(ulps)):
        crits[-1] = math.nextafter(crits[-1], math.copysign(math.inf, ulps))
    moved = dataclasses.replace(table, crits=tuple(crits))
    monkeypatch.setattr(profile, "terms", lambda params, g: moved)
    res = find_a(DD_FLAT_PEAK, omega, gamma)
    assert res.on_boundary and not res.exists


def _probe_waves(n):
    """(params, omega, gamma, a) at the first n waves that exist among the
    draws of numpy default_rng(2024): p U(1.05, 6), q - p and r - q
    U(0.05, 4), s1 and s3 from {-1, 1}, gamma U(-8, 8),
    omega = 10^U(-2, 1.5), drawn in that order."""
    rng = np.random.default_rng(2024)
    out = []
    while len(out) < n:
        p = rng.uniform(1.05, 6)
        q = p + rng.uniform(0.05, 4)
        r = q + rng.uniform(0.05, 4)
        params = NonlinearityParams(p, q, r, sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        gamma = rng.uniform(-8, 8)
        omega = 10.0 ** rng.uniform(-2, 1.5)
        prof = find_a(params, omega, gamma)
        if prof is not None and prof.exists:
            out.append((params, omega, gamma, prof.a))
    return out


def test_amplitude_is_the_adjacent_float_with_the_smaller_residual():
    # a is an exact zero of omega - F1, or one of the two adjacent floats
    # where it changes sign, the one where |omega - F1| is smaller
    for params, omega, gamma, a in _probe_waves(200):
        t = terms(params, gamma)

        def phi(s):
            return omega - power_sum(t.f1, t.e, s)

        fa = phi(a)
        if fa == 0.0:
            continue
        other = [s for s in (math.nextafter(a, 0.0),
                             math.nextafter(a, math.inf))
                 if (phi(s) > 0.0) != (fa > 0.0)]
        assert other, (params, omega, gamma, a)
        assert any(abs(fa) <= abs(phi(s)) for s in other), \
            (params, omega, gamma, a)


def _mp_critical_points(params, gamma):
    """F1's critical points at 40 digits, for the float inputs exactly: the
    roots of h(x) = F1'(x) / x^{e_p - 1} = d_p + d_q x^al + d_r x^be,
    bisected on the pieces of h split at the one zero of h', which exists
    when d_q and d_r differ in sign, up to the largest float."""
    with mpmath.workdps(40):
        p, q, r = (mpmath.mpf(x) for x in (params.p, params.q, params.r))
        e = ((p - 1) / 2, (q - 1) / 2, (r - 1) / 2)
        c = (2 * params.sign1 / (p + 1), -2 * mpmath.mpf(gamma) / (q + 1),
             2 * params.sign3 / (r + 1))
        d = [cl * el for cl, el in zip(c, e)]
        al, be = e[1] - e[0], e[2] - e[0]

        def h(x):
            return d[0] + d[1] * x ** al + d[2] * x ** be

        ends = [mpmath.mpf(0)]
        if d[1] != 0 and (d[1] > 0) != (d[2] > 0):
            ends.append((-al * d[1] / (be * d[2])) ** (1 / (be - al)))
        ends.append(mpmath.inf)
        found = []
        for lo, hi in zip(ends[:-1], ends[1:]):
            flo = d[0] if lo == 0 else h(lo)
            if hi == mpmath.inf:
                if (d[2] > 0) == (flo > 0):
                    continue
                hi = max(2 * lo, mpmath.mpf(1))
                while (h(hi) > 0) == (flo > 0):
                    hi *= 2
            elif (h(hi) > 0) == (flo > 0):
                continue
            while hi - lo > hi * mpmath.mpf(10) ** -36:
                mid = (lo + hi) / 2
                if (h(mid) > 0) == (flo > 0):
                    lo = mid
                else:
                    hi = mid
            found.append((lo + hi) / 2)
        found = [x for x in found if x <= sys.float_info.max]
        return found, h, d, (al, be)


def _critical_point_draws(n, narrow):
    """n draws of (params, gamma): exponents as in the probe, gamma = 0 at
    every fifth, and FF(2, 3, 7.5) and FF(2, 3, 8), whose wide exponent
    gap overflowed a doubling search, at gamma = -1 and +1; then `narrow`
    draws with r - q U(0.005, 0.05) and |gamma| = 10^U(1, 5), and
    FF(2, 3, 3.01) at gamma = -10, 10 and 1e4, where the zero of h' lies
    past 600 doublings of 1 or past the largest float."""
    rng = np.random.default_rng(2026)
    out = [(NonlinearityParams(2.0, 3.0, r), g)
           for r in (7.5, 8.0) for g in (-1.0, 1.0)]
    while len(out) < n + narrow:
        wide = len(out) < n
        p = rng.uniform(1.05, 6)
        q = p + rng.uniform(0.05, 4)
        r = q + (rng.uniform(0.05, 4) if wide else rng.uniform(0.005, 0.05))
        params = NonlinearityParams(p, q, r, sign1=int(rng.choice([-1, 1])),
                                    sign3=int(rng.choice([-1, 1])))
        if not wide:
            gamma = float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(1, 5)
        elif len(out) % 5 == 0:
            gamma = 0.0
        else:
            gamma = rng.uniform(-8, 8)
        out.append((params, gamma))
    return out + [(NonlinearityParams(2.0, 3.0, 3.01), g)
                  for g in (-10.0, 10.0, 1e4)]


def test_f1_critical_points_match_high_precision():
    # each float critical point c lies within a few eps of h's round-off,
    # over |h'(c)|, of its 40-digit root, plus a few ulps; h's terms carry
    # the rounding of their exponents too, eps |g ln c| relative
    counts = [0, 0, 0]
    for params, gamma in _critical_point_draws(240, 60):
        crits = terms(params, gamma).crits
        ref, h, d, gaps = _mp_critical_points(params, gamma)
        assert len(crits) == len(ref), (params, gamma, crits, ref)
        counts[len(crits)] += 1
        for c, root in zip(crits, ref):
            with mpmath.workdps(40):
                x = mpmath.mpf(c)
                slope = abs(d[1] * gaps[0] * x ** (gaps[0] - 1)
                            + d[2] * gaps[1] * x ** (gaps[1] - 1))
                size = abs(d[0]) + sum(
                    abs(dl) * x ** g * (1 + abs(g * mpmath.log(x)))
                    for dl, g in zip(d[1:], gaps))
                bound = 8 * EPS * size / slope + 4 * math.ulp(c)
                assert abs(x - root) <= bound, (params, gamma, c, root)
    assert min(counts) >= 20, counts
