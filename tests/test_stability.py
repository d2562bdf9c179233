"""Tests for the slope functional J: three methods, sentinels, omega -> 0."""

import json
import math
import os
import statistics

import numpy as np
import pytest

from tristab import (
    DivergingIntegral,
    NoStandingWave,
    NonlinearityParams,
    StabilityValue,
    UnsupportedRegime,
    eval_J,
    eval_J0,
    eval_J_mass_fd,
    endpoints,
    eval_F1,
    eval_J_raw,
    eval_J_rows,
    find_a,
    gamma_omega_ne,
    integrate,
    mass_Q,
    omega_star,
    sweep_grid,
)
from tristab import stability
from tristab.landscape import terms

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)
DF357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)
DF_LOW = NonlinearityParams(1.3, 1.8, 2.5, sign1=-1)
DF_HIGH = NonlinearityParams(2.2, 2.8, 4.0, sign1=-1)
DF_CRIT = NonlinearityParams(2.0, 2.5, 3.0, sign1=-1)
FD367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)


def trapezoid_mass(params, omega, gamma, n=400001):
    """Independent mass oracle: Q = int_0^a sqrt(s)/sqrt(U(s)) ds.

    Substitutes s = a - u^2 so the u = 0 endpoint (where U has a simple
    zero) becomes regular; evaluates on a dense uniform grid.
    """
    prof = find_a(params, omega, gamma)
    a = prof.a
    u = np.linspace(0.0, math.sqrt(a), n)
    s = a - u ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * u * np.sqrt(s) / np.sqrt(
            s * (omega - eval_F1(params, gamma, s)))
    # endpoint limits: u=0 gives 2 sqrt(a)/sqrt(-U'(a)); u=sqrt(a) gives
    # 2 sqrt(a)/sqrt(omega) since U(s)/s -> omega at s=0
    g[0] = 2.0 * math.sqrt(a) / math.sqrt(-prof.uprime_at_a)
    g[-1] = 2.0 * math.sqrt(a) / math.sqrt(omega)
    return np.trapezoid(g, u)


def test_transformed_value_regression():
    sv = eval_J(FF234, 0.05, 0.0)
    assert sv.method == "transformed"
    assert not sv.diverging
    assert math.isclose(sv.j, 1.96994840635582, rel_tol=1e-9)
    assert sv.abs_error <= 1e-6 * abs(sv.j)
    assert sv.verdict() == "stable"


# (j, abs_error) of every J route at one interior point per case, as
# float.hex: any change to the rows, the map, the quadrature or the bar
# shows in the last bits.  Each raw value lies within its bar of
# perfbench/reference_points.json's oracle, 0.007 of it at most (FF234)
PINNED_ROUTES = [
    (FF234, 0.05, 0.0, {
        "transformed": ("0x1.f84e89ec1a1adp+0", "0x1.158a385099b1ep-45"),
        "raw": ("0x1.f84e89ec1a1b1p+0", "0x1.1742edb716337p-45"),
        "mass_fd": ("0x1.f84e89ec1d4d3p+0", "0x1.7eaf35f8b734ap-29")}),
    (FD367, 0.1, 0.0, {
        "transformed": ("0x1.dfcfb677c6810p+2", "0x1.27d9f2ec34289p-41"),
        "raw": ("0x1.dfcfb677c680ep+2", "0x1.27a4b738033f8p-41"),
        "mass_fd": ("0x1.dfcfb677c704cp+2", "0x1.0e281ef313653p-26")}),
    (DF357, 1.0, 0.0, {
        "transformed": ("-0x1.b5249fcc02e23p-2", "0x1.cd8413a53fa5cp-33"),
        "raw": ("-0x1.b5249fcc02e24p-2", "0x1.cd8418dc7c429p-33"),
        "mass_fd": ("-0x1.b5249fcc34415p-2", "0x1.c004139cb74fcp-30")}),
    (DD357, 1.0, -5.0, {
        "transformed": ("0x1.cb0c2e6146e8bp-8", "0x1.5f61494493df9p-38"),
        "raw": ("0x1.cb0c2e6146e21p-8", "0x1.5f6151cd1a3d9p-38"),
        "mass_fd": ("0x1.cb0c2e65b1d55p-8", "0x1.562ae4fe3eb74p-31")}),
]


@pytest.mark.parametrize("params, omega, gamma, pinned", PINNED_ROUTES,
                         ids=["FF234", "FD367", "DF357", "DD357"])
def test_every_route_is_pinned_bit_for_bit(params, omega, gamma, pinned):
    for method in (eval_J, eval_J_raw, eval_J_mass_fd):
        sv = method(params, omega, gamma)
        assert sv.converged and not sv.diverging
        assert (sv.j.hex(), sv.abs_error.hex()) == pinned[sv.method]


def test_mass_and_j0_are_pinned_bit_for_bit():
    assert mass_Q(FF234, 0.05, 0.0).hex() == "0x1.1042a26d0fe74p-4"
    sv = eval_J0(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1), 0.0)
    assert sv.converged and sv.method == "omega_zero"
    assert (sv.j.hex(), sv.abs_error.hex()) == ("-0x1.5e48e77ca53e9p+1",
                                                "0x1.33e7261876fd9p-29")


def test_three_methods_agree_spot():
    pts = [
        (FF234, 0.05, 0.0),
        (FF234, 0.5, 1.0),
        (FD357, 0.1, 0.0),
        (DF357, 1.0, 0.0),
        (DD357, 1.0, -4.0),
    ]
    for params, om, ga in pts:
        jt = eval_J(params, om, ga)
        jr = eval_J_raw(params, om, ga)
        jm = eval_J_mass_fd(params, om, ga)
        assert jr.method == "raw"
        assert jm.method == "mass_fd"
        scale = abs(jt.j)
        assert abs(jr.j - jt.j) <= 1e-4 * scale
        assert abs(jm.j - jt.j) <= 1e-3 * scale


def test_mass_q_regression_and_oracle():
    got = mass_Q(FF234, 0.05, 0.0)
    assert math.isclose(got, 0.06646979758896765, rel_tol=1e-9)
    # independent dense-trapezoid oracle at the amplitude-1 point
    got = mass_Q(FF234, 16.0 / 15.0, 0.0)
    want = trapezoid_mass(FF234, 16.0 / 15.0, 0.0)
    assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_fd_positive_slope_sample():
    ws = omega_star(FD357, 0.0)
    assert math.isclose(ws, 0.2721655269758484, rel_tol=1e-12)
    sv = eval_J(FD357, 0.5 * ws, 0.0)
    assert math.isclose(sv.j, 7.5728612302761835, rel_tol=1e-9)
    assert sv.verdict() == "stable"


def test_df_negative_slope_sample():
    sv = eval_J(DF357, 1.0, 0.0)
    assert math.isclose(sv.j, -0.4268975227612106, rel_tol=1e-9)
    assert sv.verdict() == "unstable"


def test_no_standing_wave_raises():
    ws = omega_star(FD357, 0.0)
    with pytest.raises(NoStandingWave):
        eval_J(FD357, 1.5 * ws, 0.0)
    with pytest.raises(NoStandingWave):
        eval_J_raw(FD357, 1.5 * ws, 0.0)
    with pytest.raises(NoStandingWave):
        mass_Q(FD357, 1.5 * ws, 0.0)


def test_on_curve_sentinel():
    om, ga = gamma_omega_ne(FF234, 0.3)
    sv = eval_J(FF234, om, ga)
    assert sv.diverging
    assert math.isinf(sv.j)
    assert sv.verdict() in ("stable", "unstable")
    with pytest.raises(DivergingIntegral):
        mass_Q(FF234, om, ga)
    # FD curve: only the lower-left side exists, sentinel is +inf
    ws = omega_star(FD357, 1.0)
    sv = eval_J(FD357, ws, 1.0)
    assert sv.diverging and sv.j == math.inf
    # FF curve: within round-off of omega_star every route reads the
    # sentinel, +inf on the lower side and -inf on the upper side
    ws = omega_star(FF234, 3.0)
    for factor, sign in ((1.0 - 1e-14, 1.0), (1.0 + 1e-14, -1.0)):
        for route in (eval_J, eval_J_raw, eval_J_mass_fd):
            sv = route(FF234, ws * factor, 3.0)
            assert sv.diverging and sv.j == sign * math.inf, (route, factor)


def test_blow_up_signs_near_curve():
    om, ga = gamma_omega_ne(FF234, 0.3)
    lower = eval_J(FF234, om * (1 - 1e-3), ga * (1 - 1e-3))
    upper = eval_J(FF234, om * (1 + 1e-3), ga * (1 + 1e-3))
    assert not lower.diverging and lower.j > 100.0
    assert not upper.diverging and upper.j < -100.0


def test_unconverged_quadrature_is_indeterminate(monkeypatch):
    # no rule in double precision reaches 1e-16 relative: the value and
    # its error bar stand, but the sign is not trusted
    assert eval_J(FF234, 0.05, 0.0).converged
    monkeypatch.setitem(stability._ROUTES, "transformed",
                        stability._ROUTES["transformed"]._replace(tol=1e-16))
    sv = eval_J(FF234, 0.05, 0.0)
    assert not sv.converged
    assert sv.verdict() == "indeterminate"
    assert abs(sv.j) > sv.abs_error
    unsure = StabilityValue(2.0, 1e-9, False, "transformed", converged=False)
    assert unsure.verdict() == "indeterminate"


@pytest.mark.parametrize("omega", [0.125, 0.2])
def test_an_integral_that_underflows_is_not_converged(omega):
    # FF(3,5,5.01) at gamma = 4 takes the far branch, a = 3.6e120 and
    # U'(a) = -8.7e238: the raw integral underflows to 0 +- 0, and
    # mass_fd's difference of stencil masses near 1e106 is noise.  The
    # split kernel's piece from c = 0.25 to a reaches no closer to c than
    # 1.8e59 and misses the right half of the peak there: its J, -5.63 at
    # omega = 0.125 against -13.608 (perfbench/oracle.py split at every
    # power of 100), is unconverged, since that piece stops at level 12
    params = NonlinearityParams(3.0, 5.0, 5.01)
    assert find_a(params, omega, 4.0).a > 1e120
    for route in (eval_J, eval_J_raw, eval_J_mass_fd):
        sv = route(params, omega, 4.0)
        assert not sv.converged and sv.verdict() == "indeterminate"
    # a sweep stores j alone, which equals scalar eval_J's
    row = eval_J_rows(params, [omega], [4.0])[0]
    assert row[0] == eval_J(params, omega, 4.0)
    assert math.isfinite(row[0].j)


def test_left_piece_is_finite_at_its_end():
    # p = 3 gives the left piece m = 1, and refinement at x = 2 reaches a
    # node at exactly x = 2, where the Jacobian's (m - 1) ln t was
    # 0 * -inf = NaN: the masses on the adaptive kernel were NaN and mass_fd
    # raised.  There they stop on round-off; mass_fd's stencil masses take
    # the tanh-sinh kernel, and it converges on perfbench/oracle.py's
    # j_value at 40 digits
    params = NonlinearityParams(3.0, 4.0, 4.0625, -1, 1)
    cell = (1.0, 3.0, find_a(params, 1.0, 3.0))
    quad = stability._quads(cell, "mass", stability._left_m(params, 1.0),
                            {3.0: terms(params, 3.0)})
    assert stability._left_m(params, 1.0) == 1
    assert math.isfinite(quad.value) and math.isfinite(quad.abs_error)
    sv = eval_J_mass_fd(params, 1.0, 3.0)
    assert sv.converged and sv.verdict() == "unstable"
    assert abs(sv.j - (-0.5093822271804807)) <= sv.abs_error


def test_a_batch_takes_each_cells_kernel_and_stretch_from_its_omega():
    # the cell at omega = 0 (eval_J0's) takes the adaptive kernel with its
    # own m, and the cells at omega > 0 the tanh-sinh kernel, in one batch:
    # each equals its block of one bit for bit
    from tristab.profile import _profile
    params = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1)
    cells = [(0.0, 1.0, _profile(params, 0.0, 1.0)),
             (0.1, 1.0, find_a(params, 0.1, 1.0)),
             (0.5, 2.0, find_a(params, 0.5, 2.0))]
    j0, *rest = stability._values(
        stability._transformed(params, cells, "transformed"), "transformed")
    alone = eval_J0(params, 1.0)
    assert (j0.j, j0.abs_error, j0.converged) == (
        alone.j, alone.abs_error, alone.converged)
    assert rest == [eval_J(params, 0.1, 1.0), eval_J(params, 0.5, 2.0)]


@pytest.mark.parametrize("route", [eval_J, eval_J_raw, eval_J_mass_fd,
                                   mass_Q])
def test_routes_reject_a_non_finite_omega_or_gamma(route):
    # FD(3,6,7) and DF(2,3,4) at omega = inf, and DF and DD at
    # gamma = -inf, read a +inf "stable" sentinel; NaN gammas in FF and DF
    # raised TypeError
    df234 = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1)
    dd234 = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1, sign3=-1)
    for params, omega, gamma in ((FD367, math.inf, 1.0),
                                 (df234, math.inf, 1.0),
                                 (df234, 0.1, -math.inf),
                                 (dd234, 0.1, -math.inf),
                                 (FF234, 0.1, math.nan),
                                 (FF234, 0.1, -math.inf)):
        with pytest.raises(ValueError, match="must be finite|< inf"):
            route(params, omega, gamma)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_eval_J0_rejects_a_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be finite"):
        eval_J0(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1), gamma)


def test_mass_fd_raises_where_its_difference_is_not_finite(monkeypatch):
    inf = stability.QuadratureResult(math.inf, 0.0, 1, True, "level")
    monkeypatch.setattr(stability, "_masses",
                        lambda params, omegas, gamma: [inf] * len(omegas))
    with pytest.raises(UnsupportedRegime, match="not finite"):
        eval_J_mass_fd(FF234, 0.1, 1.0)


def test_mass_fd_reraises_after_six_step_cuts(monkeypatch):
    steps = []

    def no_wave(params, omegas, gamma):
        steps.append(omegas[0] - omegas[1])
        raise NoStandingWave("stencil past the curve")

    monkeypatch.setattr(stability, "_masses", no_wave)
    with pytest.raises(NoStandingWave, match="stencil past the curve"):
        eval_J_mass_fd(FF234, 0.1, 1.0)
    assert len(steps) == 6
    assert all(b < 0.3 * a for a, b in zip(steps, steps[1:]))


def test_verdict_rules():
    assert StabilityValue(2.0, 1e-9, False, "transformed").verdict() == "stable"
    assert StabilityValue(-2.0, 1e-9, False, "raw").verdict() == "unstable"
    assert StabilityValue(1e-12, 1e-9, False, "raw").verdict() == "indeterminate"
    assert StabilityValue(math.inf, math.inf, True, "transformed").verdict() == "stable"
    assert StabilityValue(-math.inf, math.inf, True, "transformed").verdict() == "unstable"
    # a sweep's cell with no standing wave
    assert StabilityValue(math.nan, math.nan, False, "transformed").verdict() == "indeterminate"


def test_j0_regressions():
    table = {
        -10.0: 0.01918725393399668,
        -3.0: 0.5701015352457223,
        0.0: 4.7981845238428305,
        3.0: 4.6551170819613965,
        10.0: 3.1797144486009143,
    }
    for g, want in table.items():
        sv = eval_J0(DF_LOW, g)
        assert sv.method == "omega_zero"
        assert math.isclose(sv.j, want, rel_tol=1e-7)
        assert sv.j > 0.0

    for g, want in {-10.0: -2.3432139903170395,
                    0.0: -9.480627193300746,
                    10.0: -4.652678384897889}.items():
        sv = eval_J0(DF_HIGH, g)
        assert math.isclose(sv.j, want, rel_tol=1e-7)
        assert sv.j < 0.0


def test_j0_sign_change_family():
    # 2p + q = 6.5 < 7 and 2q + r = 8 > 7: opposite signs at the two ends
    lo = eval_J0(DF_CRIT, -1000.0)
    hi = eval_J0(DF_CRIT, 1000.0)
    assert lo.j > 0.0 > hi.j


def test_j0_matches_small_omega_limit():
    j0 = eval_J0(DF_LOW, 0.0)
    j5 = eval_J(DF_LOW, 1e-5, 0.0)
    assert abs(j5.j - j0.j) <= 1e-4 * abs(j0.j)
    # near the p = 7/3 threshold convergence is slow; check sign and
    # that the gap shrinks as omega decreases
    j0 = eval_J0(DF_HIGH, 0.0)
    g1 = abs(eval_J(DF_HIGH, 1e-4, 0.0).j - j0.j)
    g2 = abs(eval_J(DF_HIGH, 1e-6, 0.0).j - j0.j)
    assert g2 < g1
    assert eval_J(DF_HIGH, 1e-6, 0.0).j < 0.0


def test_j0_domain_errors():
    with pytest.raises(ValueError):
        eval_J0(FF234, 0.0)          # focusing low power has no omega->0 zero
    with pytest.raises(UnsupportedRegime):
        eval_J0(NonlinearityParams(2.5, 3.0, 4.0, sign1=-1), 0.0)  # p >= 7/3
    from tristab import endpoints
    # need p < 7/3 so the existence check is reached at all
    dd234 = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1, sign3=-1)
    _, gamma1, _ = endpoints(dd234)
    with pytest.raises(NoStandingWave):
        eval_J0(dd234, gamma1 + 0.5)
    # at gamma1 itself F1's peak touches zero: a double zero
    with pytest.raises(DivergingIntegral):
        eval_J0(dd234, gamma1)


# J(0, gamma) from perfbench/oracle.py's j_value at omega = 0 and 40 digits,
# its s^{-3(p-1)/4} end at s = 0 flattened (tests/oracle_tables.py prints
# this table); p = 2.3 lies 0.033 below 7/3
J0_POINTS = [
    (1.3, 1.8, 2.5, -1, 1, -10.0, 0.019187253933995774, 1.9e-42),
    (1.3, 1.8, 2.5, -1, 1, -3.0, 0.570101535245691, 5.7e-41),
    (1.3, 1.8, 2.5, -1, 1, 0.0, 4.798184523842615, 4.8e-40),
    (1.3, 1.8, 2.5, -1, 1, 3.0, 4.655117081961273, 4.7e-40),
    (1.3, 1.8, 2.5, -1, 1, 10.0, 3.179714448600631, 3.2e-40),
    (2.2, 2.8, 4.0, -1, 1, -10.0, -2.3432139903162224, 1.9e-25),
    (2.2, 2.8, 4.0, -1, 1, 0.0, -9.480627193296744, 9.5e-40),
    (2.2, 2.8, 4.0, -1, 1, 10.0, -4.6526783848953235, 3e-26),
    (2.0, 2.5, 3.0, -1, 1, -1000.0, 0.008573179092593163, 2.2e-37),
    (2.0, 2.5, 3.0, -1, 1, 0.0, 6.924535123073913e-24, 6.9e-24),
    (2.0, 2.5, 3.0, -1, 1, 1000.0, -0.008573179092593163, 8.6e-43),
    (2.0, 3.0, 4.0, -1, -1, -3.0, 1.371903392201768, 3.5e-25),
    (2.0, 3.0, 4.0, -1, -1, -2.5, 3.7064864374341706, 3.1e-24),
    (2.3, 3.0, 4.0, -1, 1, -2.0, -39.50472854540113, 6.6e-25),
    (2.3, 3.0, 4.0, -1, 1, 0.0, -42.009698117488156, 4.2e-39),
    (2.3, 3.0, 4.0, -1, 1, 2.0, -39.48296059219395, 6.8e-26),
]


def _case(s1, s3):
    return "DF"[s1 > 0] + "DF"[s3 > 0]


@pytest.mark.parametrize("p, q, r, s1, s3, gamma, j_ref, ref_err", J0_POINTS,
                         ids=["%s(%g,%g,%g)-g=%g" % (_case(*pt[3:5]), *pt[:3],
                                                     pt[5])
                              for pt in J0_POINTS])
def test_j0_matches_the_oracle(p, q, r, s1, s3, gamma, j_ref, ref_err):
    sv = eval_J0(NonlinearityParams(p, q, r, sign1=s1, sign3=s3), gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error + ref_err


def test_j0_next_to_7_3_reads_indeterminate():
    # at p = 7/3 - 1e-6 the omega = 0 stretch m = ceil(4/(7 - 3p)) + 1 was
    # 1,333,335, and eval_J0 gave -0.6156 +- 1.4e-11, converged, against
    # -1434437.36 by perfbench/oracle.py's j_value at omega = 0 and 30
    # digits, its s = 0 end flattened as for J0_POINTS.  Capped at _MAX_M as
    # at omega > 0, it stays unconverged, as at 7/3 - 1e-2 to 1e-5: the cap
    # keeps a wrong value from deciding, it does not mend it
    sv = eval_J0(NonlinearityParams(7.0 / 3.0 - 1e-6, 3.0, 4.0, sign1=-1),
                 0.0)
    assert not sv.converged and sv.verdict() == "indeterminate"


# J at small scales from perfbench/oracle.py's j_value at 30 digits: the
# law J ~ a^((7 - 3p)/4) of criterion 7, with a ~ omega^(2/(p-1))
SMALL_SCALE_POINTS = [
    (2.0, 3.0, 4.0, 1, 1, 1e-9, 0.0002846049894151541, 1.1e-23),
    (2.0, 3.0, 4.0, 1, 1, 1e-10, 9e-05, 1.1e-24),
    (2.0, 3.0, 4.0, 1, 1, 1e-12, 9e-06, 1.1e-24),
    (3.0, 5.0, 7.0, 1, -1, 1e-9, 63245.553203367585, 5.1e-24),
    (3.0, 5.0, 7.0, 1, -1, 1e-10, 200000.0, 5.1e-23),
    (3.0, 5.0, 7.0, 1, -1, 1e-12, 2000000.0, 5.1e-21),
]


@pytest.mark.parametrize("p, q, r, s1, s3, omega, j_ref, ref_err",
                         SMALL_SCALE_POINTS,
                         ids=["%s-w=%g" % (_case(*pt[3:5]), pt[5])
                              for pt in SMALL_SCALE_POINTS])
def test_j_at_small_scales_matches_the_oracle(p, q, r, s1, s3, omega,
                                              j_ref, ref_err):
    # with an absolute floor of 1 on the double-zero slack these waves read
    # on_boundary and J was the +inf curve sentinel
    params = NonlinearityParams(p, q, r, sign1=s1, sign3=s3)
    sv, raw = eval_J(params, omega, 0.0), eval_J_raw(params, omega, 0.0)
    for v in (sv, raw):
        assert v.converged and not v.diverging
        assert abs(v.j - j_ref) <= v.abs_error + ref_err
    assert abs(sv.j - raw.j) <= sv.abs_error + raw.abs_error
    a, a_ref = find_a(params, omega, 0.0).a, find_a(params, 1e-8, 0.0).a
    slope = math.log(sv.j / eval_J(params, 1e-8, 0.0).j) / math.log(a / a_ref)
    assert abs(slope - (7.0 - 3.0 * p) / 4.0) <= 1e-6


def test_j0_at_a_small_scale_amplitude_converges():
    # DF(1.8, 1.85, 2.5) has 2q + r < 7, so J(0, gamma) > 0 for every gamma
    # (OmegaZeroAllPositive); a0 = 2.03e-40 was read as a double zero at
    # F1's local minimum and eval_J0 raised DivergingIntegral.  Oracle value
    # from perfbench/oracle.py's j_value at omega = 0 and 30 digits
    sv = eval_J0(NonlinearityParams(1.8, 1.85, 2.5, sign1=-1), -10.0)
    assert sv.converged and sv.verdict() == "stable"
    assert abs(sv.j - 6.088079581252809e-14) <= sv.abs_error + 3.5e-19


def test_mass_fd_handles_moderate_points():
    rng = np.random.default_rng(41)
    for _ in range(5):
        om = 10.0 ** rng.uniform(-1.5, -0.5)
        ga = rng.uniform(-1.0, 1.0)
        jt = eval_J(FF234, om, ga)
        jm = eval_J_mass_fd(FF234, om, ga)
        assert abs(jm.j - jt.j) <= 2e-3 * abs(jt.j)
        assert jm.abs_error > 0.0


@pytest.mark.parametrize("params, omega, gamma", [
    pytest.param(DF357, 1.0, 0.0, id="DF357"),
    pytest.param(FF234, 0.05, 0.0, id="FF234"),
    pytest.param(DD357, 1.0, -5.0, id="DD357"),
    pytest.param(FF234, 0.3, 4.0, id="FF234-dip"),
])
def test_mass_fd_is_the_difference_of_scalar_masses(params, omega, gamma):
    # the four stencil masses run as one batch, each as mass_Q alone, on
    # the tanh-sinh kernel, on FF's dip branch on two pieces split at c
    h = min(max(1e-4 * omega, 1e-6), 0.5 * omega)
    sv = eval_J_mass_fd(params, omega, gamma)
    d_h = (mass_Q(params, omega + h, gamma)
           - mass_Q(params, omega - h, gamma)) / (2.0 * h)
    d_h2 = (mass_Q(params, omega + 0.5 * h, gamma)
            - mass_Q(params, omega - 0.5 * h, gamma)) / h
    assert sv.j == (4.0 * d_h2 - d_h) / 3.0
    assert sv.converged


def test_mass_fd_stencil_keeps_to_its_side_of_the_fold():
    # 1e-5 above the FF curve at a = a#/2 a stencil of h = 1e-4 omega would
    # straddle the fold (+1.27e6 where J = -1.28e6); kept to a quarter of
    # the distance, it converges on the oracle value of perfbench/oracle.py
    om, ga = gamma_omega_ne(FF234, endpoints(FF234)[0] / 2.0)
    sv = eval_J_mass_fd(FF234, om * (1.0 + 1e-5), ga)
    assert sv.converged and sv.verdict() == "unstable"
    assert abs(sv.j - (-1280555.4088662195)) <= sv.abs_error


def test_mass_fd_error_covers_the_oracle():
    # oracle value from perfbench/oracle.py (40-digit mpmath quadrature of
    # the defining integral); j is 6.1e-6 off it, which the Richardson
    # estimate alone (3.6e-6) missed without the mass error amplified by 1/h
    sv = eval_J_mass_fd(NonlinearityParams(1.309, 2.690, 3.222, sign1=-1),
                        0.0116, 1.626)
    assert abs(sv.j - (-0.22392163546492827)) <= sv.abs_error
    assert sv.converged and sv.verdict() == "unstable"


def test_mass_fd_shrinks_a_step_that_lands_on_the_curve(monkeypatch):
    # about 2e4 ulps below the FD curve, omega + h of the first stencil
    # (h = 1.17e-12, a quarter of the distance to omega_star) rounds into
    # find_a's on-boundary band; h shrinks once, by 4, and the second
    # stencil gives a converged value with eval_J's verdict, within its bar
    # of perfbench/oracle.py's j_value at 30 digits
    calls = []
    masses = stability._masses

    def recorded(params, omegas, gamma):
        calls.append(list(omegas))
        return masses(params, omegas, gamma)

    monkeypatch.setattr(stability, "_masses", recorded)
    omega, gamma = 1.0141961654534897, -1.246134790676523
    sv = eval_J_mass_fd(FD367, omega, gamma)
    assert len(calls) == 2
    widths = [c[0] - c[1] for c in calls]
    assert math.isclose(widths[0] / widths[1], 4.0, rel_tol=1e-2)
    assert sv.converged and sv.verdict() == "stable"
    assert abs(sv.j - 141672036614.55634) <= sv.abs_error
    assert eval_J(FD367, omega, gamma).verdict() == "stable"


# Points on the equality borders p = 5, r = 5, 2p + q = 7 and p = 7/3, where
# a coefficient of the integrand vanishes or the paper's sign rules change.
# j and its error are perfbench/oracle.py's
# j_value(p, q, r, s1, s3, omega, gamma, dps=30).
BORDER_POINTS = [
    pytest.param(NonlinearityParams(5.0, 6.0, 7.0, sign3=-1), 0.5, -2.0,
                 -0.03778903516926149, 3.8e-32, id="FD567"),
    pytest.param(NonlinearityParams(5.0, 6.0, 7.0, sign1=-1), 1.0, 0.0,
                 -0.6018702441795147, 6.1e-31, id="DF567"),
    pytest.param(NonlinearityParams(2.0, 3.0, 5.0), 0.1, 0.5,
                 3.5948105436089723, 3.7e-30, id="FF235"),
    pytest.param(NonlinearityParams(2.0, 3.0, 5.0, sign1=-1), 0.5, -1.0,
                 -0.02379234531966018, 2.4e-32, id="DF235"),
    pytest.param(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1), 0.3, 1.0,
                 -0.7265222413822818, 7.3e-31, id="DF234"),
    pytest.param(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1, sign3=-1), 0.3,
                 -3.0, 2.5772793753098746, 1.1e-20, id="DD234"),
    pytest.param(NonlinearityParams(7.0 / 3.0, 3.0, 4.0, sign1=-1, sign3=-1),
                 0.2, -3.0, 3.3873140626405718, 3.5e-30, id="DD734"),
    pytest.param(NonlinearityParams(7.0 / 3.0, 3.0, 4.0, sign3=-1), 0.2, 0.0,
                 22.867984422905206, 2.3e-29, id="FD734"),
]


@pytest.mark.parametrize("params, omega, gamma, j_ref, ref_err",
                         BORDER_POINTS)
def test_transformed_integrand_is_n_over_d_at_borders(params, omega, gamma,
                                                      j_ref, ref_err):
    # u >= 0.1 keeps the direct 1 - s^e clear of its cancellation.
    # s >= 1/2 lies on the right piece, x = sqrt(2 (1 - s)) with Jacobian
    # x; s < 1/2 on the left, x = 2 - t with s = 0.5 t^m and Jacobian
    # 0.5 m t^(m-1), m the smallest integer with m (p-1)/2 >= 1
    res = find_a(params, omega, gamma)
    a = res.a
    u = np.linspace(0.1, 0.95, 18)
    s = 1.0 - u * u
    m = 1
    while m * (params.p - 1.0) / 2.0 < 1.0:
        m += 1
    t = (2.0 * s) ** (1.0 / m)
    right = s >= 0.5
    x = np.where(right, math.sqrt(2.0) * u, 2.0 - t)
    jacobian = np.where(right, x, 0.5 * m * t ** (m - 1))
    table = terms(params, gamma)
    powers = [a ** e for e in table.e]
    row = tuple(c * x for triple in (table.n, table.d)
                for c, x in zip(triple, powers))
    # N and D summed directly: sum n_l a^{e_l} (1 - s^{e_l}) and alike
    E = [1.0 - s ** e for e in table.e]
    n = row[0] * E[0] + row[1] * E[1] + row[2] * E[2]
    d = row[3] * E[0] + row[4] * E[1] + row[5] * E[2]
    expect = jacobian * n / d ** 1.5
    # each point a panel of its own, on its side of x = 1
    row = (2.0 * omega + res.uprime_at_a, 0.5 * omega) + row
    integrand = stability._piecewise(table.e, m, [row], stability._n_over_d,
                                     1.5)
    got = integrand(x[:, None], [0]).ravel()
    assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("method", [eval_J, eval_J_raw, eval_J_mass_fd])
@pytest.mark.parametrize("params, omega, gamma, j_ref, ref_err",
                         BORDER_POINTS)
def test_border_points_match_the_oracle(method, params, omega, gamma, j_ref,
                                        ref_err):
    sv = method(params, omega, gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error + ref_err


# J(omega, -10) of FD(3,6,7) changes sign here (brentq on eval_J)
FD367_J_ZERO = 0.39620117873208216


def _record_quadratures(monkeypatch):
    results = []

    def recorded(*args, **kwargs):
        out = integrate(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(stability, "integrate", recorded)
    return results


def _record_tanh_sinh(monkeypatch):
    results = []

    def recorded(*args):
        out = tanh_sinh(*args)
        results.extend(out)
        return out

    tanh_sinh = stability._tanh_sinh
    monkeypatch.setattr(stability, "_tanh_sinh", recorded)
    return results


@pytest.mark.parametrize("rel, verdict", [(-1e-6, "stable"),
                                          (1e-6, "unstable")])
def test_eval_J_next_to_a_zero_of_J_is_cheap_and_definite(monkeypatch, rel,
                                                          verdict):
    # rel_tol * |J| falls below the round-off floor of the nodes here; the
    # adaptive kernel used to spend its 2,000 panels and read indeterminate
    quads = _record_tanh_sinh(monkeypatch)
    sv = eval_J(FD367, FD367_J_ZERO * (1.0 + rel), -10.0)
    (quad,) = quads
    assert quad.n_panels <= 4 and quad.stop == "roundoff"
    assert sv.converged and sv.verdict() == verdict


def test_eval_J_at_a_zero_of_J_converges_indeterminate(monkeypatch):
    quads = _record_tanh_sinh(monkeypatch)
    sv = eval_J(FD367, FD367_J_ZERO, -10.0)
    (quad,) = quads
    assert quad.n_panels <= 4 and quad.stop == "roundoff"
    assert sv.converged
    assert abs(sv.j) <= sv.abs_error
    assert sv.verdict() == "indeterminate"


# j from perfbench/reference_points.json (40-digit mpmath quadrature)
@pytest.mark.parametrize("params, omega, gamma, j_ref", [
    pytest.param(FD367, 0.1, 0.0, 7.497052781074686, id="FD367-interior"),
    pytest.param(DD357, 1.0, -5.0, 0.007004510234107258, id="DD357-w1"),
    pytest.param(DD357, 5.0, -8.0, 0.00916121912428323, id="DD357-w5"),
    pytest.param(FF234, 0.14640159712457032, 1.8973665961010275,
                 6401685.752195047, id="FF234-1e-6-below-curve"),
    pytest.param(FD367, 0.34999965, -0.35, 1904760.9786480851,
                 id="FD367-1e-6-below-curve"),
])
def test_raw_bracket_does_not_cancel(params, omega, gamma, j_ref):
    # 3 + s (U'(a) - U'(s)) / U(s) written as differences of powers of s
    # used to cancel near s = a: 7.1e-13 off against a stated 8.3e-14 at
    # the FD367 interior point, and unconverged next to the curves
    sv = eval_J_raw(params, omega, gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error


def _record_integrand_rows(monkeypatch):
    rows = []

    def recorded(f, *args, **kwargs):
        def g(x):
            rows.extend(x)
            return f(x)
        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(stability, "integrate", recorded)
    return rows


@pytest.mark.parametrize("params", [
    pytest.param(FF234, id="FF234"),
    pytest.param(NonlinearityParams(1.5, 2.5, 3.5), id="FF(1.5,2.5,3.5)"),
])
def test_ff_sweep_cells_take_few_panels(monkeypatch, params):
    # the s^{(p-1)/2} endpoint at s = 0, left rough by s = 1 - u^2 alone,
    # cost 23 panels a cell; the left piece's s = 0.5 t^m flattens it.
    # Cells where F1 has no local maximum below a take the tanh-sinh kernel,
    # cells where F1 dips below omega the fixed rule, and only those it
    # flags take the split kernel
    quads = _record_quadratures(monkeypatch)
    levels = _record_tanh_sinh(monkeypatch)
    rule = []

    def recorded(*args):
        out = rule_values(*args)
        rule.extend(out)
        return out

    rule_values = stability._rule
    monkeypatch.setattr(stability, "_rule", recorded)
    sweep_grid(params, (0.02, 0.6), (0.0, 8.0), 12, 12, jobs=1)
    flagged = sum(q is None for q in rule)
    assert len(rule) >= 50 and len(levels) >= 40
    assert len(quads) + len(levels) + len(rule) - flagged == 144
    assert sum(q.n_panels for q in quads) <= 8.0 * len(quads)
    assert max(q.n_panels for q in levels) <= 5
    assert flagged <= 0.05 * len(rule)


# the windows of the benchmark's fd_diagram and, as CI runs it, cli_diagram,
# where every wave takes the tanh-sinh kernel
@pytest.mark.parametrize("params, omegas, gammas", [
    pytest.param(FD367, np.linspace(0.05, 3.0, 32),
                 np.linspace(-25.0, 2.0, 32), id="FD367"),
    pytest.param(DD357, np.linspace(0.05, 20.0, 40),
                 np.linspace(-10.0, 0.5, 40), id="DD357"),
])
def test_tanh_sinh_rows_equal_scalar_eval_J(monkeypatch, params, omegas,
                                            gammas):
    levels = _record_tanh_sinh(monkeypatch)
    rows = stability.eval_J_rows(params, omegas, gammas)
    waves = sum(not math.isnan(sv.j) for row in rows for sv in row)
    assert len(levels) == waves >= 500
    assert any(q.n_panels > 3 for q in levels)
    for gamma, row in zip(gammas, rows):
        for omega, sv in zip(omegas, row):
            if math.isnan(sv.j):
                # no wave: NaN, NaN, not diverging, converged
                assert (math.isnan(sv.abs_error), sv.diverging, sv.method,
                        sv.converged) == (True, False, "transformed", True)
                with pytest.raises(NoStandingWave):
                    eval_J(params, float(omega), float(gamma))
            else:
                assert eval_J(params, float(omega), float(gamma)) == sv
    # a cell on the curve: inf, inf, diverging, as scalar eval_J gives it
    gamma = float(gammas[0])
    ws = omega_star(params, gamma)
    sv, = eval_J_rows(params, [ws], [gamma])[0]
    assert (sv.j, sv.abs_error, sv.diverging, sv.converged) == (
        math.inf, math.inf, True, True)
    assert eval_J(params, ws, gamma) == sv


def test_no_panel_straddles_the_split(monkeypatch):
    # x = 1 is an edge of the first round, and bisection only adds edges;
    # eval_J0 runs the adaptive kernel at every j0 point of the benchmark's
    # point_checks, the last route that does
    rows = _record_integrand_rows(monkeypatch)
    for params, _, gamma in _reference_value_points("j0"):
        eval_J0(params, gamma)
    assert any(row.max() < 1.0 for row in rows)
    assert any(row.min() > 1.0 for row in rows)
    assert not any(row.min() < 1.0 < row.max() for row in rows)


# j from perfbench/reference_points.json (40-digit mpmath quadrature); the
# quadrature error alone no longer covers the error that J carries from a
@pytest.mark.parametrize("method", [eval_J, eval_J_raw])
@pytest.mark.parametrize("params, omega, gamma, j_ref", [
    pytest.param(FF234, 0.14640159712457032, 1.8973665961010275,
                 6401685.752195047, id="FF234-1e-6-below-curve"),
    pytest.param(FF234, 0.14640174206229642, 1.8973665961010275,
                 640180417.1714835, id="FF234-1e-8-below-curve"),
    pytest.param(FD367, 0.34999965, -0.35, 1904760.9786480851,
                 id="FD367-1e-6-below-curve"),
    pytest.param(FD367, 0.34999999649999997, -0.35, 190476187.28650555,
                 id="FD367-1e-8-below-curve"),
])
def test_error_bar_carries_the_root_residual(method, params, omega, gamma,
                                             j_ref):
    sv = method(params, omega, gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error


# Random draws where the terms of D(a, 0) = omega/2 are 1e6 to 1e55 times
# larger, sum |d_l| a^{e_l} >= 1e6 omega/2, in ascending order of that
# ratio, then three points of rounded exponents.  j and its error are
# perfbench/oracle.py's j_value at 40 digits plus the log10 of the ratio;
# tests/oracle_tables.py says how the draws were made and prints this
# table.  Built as sums of those terms, D and N at s -> 0 were round-off:
# 23 of these read converged=False, and 5 converged ones missed the oracle
# by more than their error bar.
CANCELLATION_DRAWS = [
    (2.9249932898425257, 6.902659699589711, 7.726557153198099, 1, 1,
     4.615823021616727, 6.948376364230029, -0.07578713286377532, 3.2e-35),
    (4.467721067577404, 4.527422121286469, 5.220462502436159, 1, 1,
     0.014134249130340754, 6.1475660801546095, -20.799811780035327, 2.1e-46),
    (1.4873174483668654, 4.481806404453744, 5.267422994545744, -1, 1,
     0.01974500617715637, 7.1573798263779835, -0.6380590320688385, 4.4e-32),
    (1.6045327084654555, 5.335443241246633, 6.0421372093864045, -1, 1,
     0.05350415389261383, 6.042199576246164, -0.8402397943214379, 8.4e-48),
    (2.0495861560924378, 5.848938892735001, 6.61584927839611, -1, 1,
     0.014522881194064445, 5.128672469565425, -2.4956849360487774, 2.5e-48),
    (5.292429455007374, 6.111167774348035, 6.989728270095694, -1, 1,
     0.018662647487216043, 6.752781086136064, -27.629208518237128, 2.8e-47),
    (3.76077246912097, 4.28902250427422, 4.531416911080953, -1, 1,
     15.718975157728293, 3.8727127034363544, -0.04092273788843429, 1.3e-34),
    (4.070584436281296, 7.069324739405552, 7.762961704127293, 1, 1,
     1.071856333887958, 6.622527264826232, -0.44308882780438674, 4.4e-49),
    (3.6370594999801593, 7.497835659259938, 8.177661450994146, -1, 1,
     0.12084545693890773, 5.524374107794255, -3.4826232212753463, 3.5e-49),
    (5.401877201563616, 8.039640754692295, 8.867479171667846, 1, 1,
     0.056525751523310255, 6.33478732070807, -20.301011837861953, 6.3e-37),
    (3.08040856312315, 5.309494371648388, 5.729681979641844, -1, 1,
     0.08767256891170942, 5.003895840235327, -3.0806831910979677, 5.2e-36),
    (5.441675012614607, 8.835742273900859, 9.03334053823389, 1, 1,
     14.840156185164172, 1.7917077950636475, -0.02961113334957791, 3e-52),
    (1.3357761299738202, 3.0052435368100427, 3.174498041242033, -1, 1,
     0.0127567279694077, 3.5004504794943223, -1.029990520807964, 7.4e-32),
    (4.329885015483555, 5.021416245472036, 5.35365507564523, -1, 1,
     9.545882824408165, 6.5132216252175485, -0.0363929688079393, 9.8e-40),
    (5.6913480813949615, 7.576059490314535, 8.09849403882635, 1, 1,
     0.13853019575630768, 4.884827513886258, -6.257113153752266, 6.3e-51),
    (3.5362115788936626, 7.33318021202328, 7.8664837354407116, 1, 1,
     0.13122374389101857, 6.194771646475996, -13.477254240622738, 2.4e-41),
    (5.169257919322761, 8.59051168641922, 9.284088142859153, 1, 1,
     0.04342836578660591, 7.5457576190345605, -35.85968198743917, 3.6e-51),
    (5.4586870589334335, 8.230008378019372, 8.67296203796124, -1, 1,
     0.49762610641693733, 4.790735711220886, -1.0060263061518622, 7.9e-44),
    (5.002853192423771, 8.288419932729836, 8.835089558028816, 1, 1,
     0.14186321200899965, 7.687951990827852, -6.01206474960557, 6e-54),
    (2.9733773367322183, 5.770417909651233, 6.023079714855163, -1, 1,
     0.4982957591015558, 5.375292685661503, -0.6792879144769348, 6.8e-56),
    (4.447892669402501, 5.311842644581596, 5.515393775956795, -1, 1,
     0.11508040360705794, 4.504085569742218, -3.5672233514935834, 3.6e-56),
    (3.6429703456762033, 7.112548096215841, 7.337609238428991, 1, 1,
     5.0493034726694805, 4.474661316349557, -0.08044584992201975, 4.1e-48),
    (3.2265405612342226, 5.105162576235352, 5.2606726881051635, 1, 1,
     12.360698996163858, 6.31791963170221, -0.03157323802383256, 1.2e-21),
    (5.269767294366586, 8.648840547080553, 8.891973400033036, 1, 1,
     4.640777647858231, 4.749391312554712, -0.07917935160954452, 9.9e-22),
    (5.801920289408206, 9.439533108294693, 9.603606004919742, -1, 1,
     29.750306622130495, 2.9420496298774257, -0.00785732007920879, 7.9e-67),
    (2.482984762345003, 6.472729978317675, 6.634434081038258, -1, 1,
     1.1828964791241878, 4.601870274317108, -0.30245213327290305, 3e-65),
    (5.006416950514261, 7.014150282434923, 7.200760428401269, -1, 1,
     2.136174580385492, 5.389176900000155, -0.17244356352729984, 1.7e-65),
    (5.202786904299449, 7.615111697808426, 7.830013109551795, 1, 1,
     28.467713407474644, 7.005775501376872, -0.007862922653850841, 1.3e-26),
    (2.6539043693468223, 5.303147350358113, 5.385011342441861, 1, 1,
     0.2964910465216359, 3.643146211650814, -5.245945096203795, 1.6e-29),
    (4.996050442291837, 7.8802136018767905, 7.965763881689021, 1, 1,
     0.23836554627768583, 2.7112176338616365, -6.00273974903525, 1.3e-34),
    (4.977291742131865, 5.8394514504214055, 5.919338155619764, -1, 1,
     0.017678554499232304, 7.020838317704152, -26.052621947947333, 1.6e-51),
    (5.89456626260863, 8.460961838377038, 8.538088555338739, 1, 1,
     0.036355156884285325, 3.5590586805810247, -71.88134378361654, 3.6e-53),
    (3.344, 6.611, 7.134, 1, 1,
     0.4183, 4.005, -2.2745563110596905, 3.1e-36),
    (2.8, 5.851, 6.542, 1, 1,
     0.1539, 7.125, -9.367569424009732, 3.7e-35),
    (2.042, 5.365, 5.942, -1, 1,
     0.02018, 6.006, -2.1301057389806166, 2.1e-49),
]


@pytest.mark.parametrize("p, q, r, s1, s3, omega, gamma, j_ref, ref_err",
                         CANCELLATION_DRAWS,
                         ids=["%s-%d" % (_case(*pt[3:5]), k)
                              for k, pt in enumerate(CANCELLATION_DRAWS)])
def test_cancelling_terms_keep_the_error_bar(p, q, r, s1, s3, omega, gamma,
                                             j_ref, ref_err):
    sv = eval_J(NonlinearityParams(p, q, r, sign1=s1, sign3=s3), omega, gamma)
    if sv.converged:
        assert abs(sv.j - j_ref) <= sv.abs_error + ref_err
    else:
        assert sv.verdict() == "indeterminate"


def test_cancelling_terms_leave_few_unconverged():
    # the adaptive kernel's layer where the terms reach omega/2 lies at
    # s = 1e-22 to 7e-10 at four of these draws, and x = 2 - t, spaced
    # 4.4e-16 near x = 2, did not resolve it: they stopped on round-off.
    # The tanh-sinh kernel's nodes take ln v directly and reach 5e-62: the
    # DF draw at (0.01768, 7.0208) gave -1.2e-27 on the adaptive kernel and
    # converges to -26.0526219479 on the one-piece kernel, and the three FF
    # draws with a maximum below a, which gave -0.0316, -5.95 and -3.2e-15,
    # converge on the split kernel to -0.0315732380238, -6.00273974904 and
    # -71.8813437836
    unconverged = [d for d in CANCELLATION_DRAWS
                   if not eval_J(NonlinearityParams(*d[:3], sign1=d[3],
                                                    sign3=d[4]),
                                 d[5], d[6]).converged]
    assert len(unconverged) == 0


def test_cancelling_terms_leave_no_raw_value_unconverged():
    # the raw route's adaptive kernel stopped unconverged at 4 of these
    # draws; on eval_J's tanh-sinh kernel every one converges
    unconverged = [d for d in CANCELLATION_DRAWS
                   if not eval_J_raw(NonlinearityParams(*d[:3], sign1=d[3],
                                                        sign3=d[4]),
                                     d[5], d[6]).converged]
    assert len(unconverged) == 0


@pytest.mark.parametrize("method", [eval_J_raw, eval_J_mass_fd])
@pytest.mark.parametrize("p, q, r, s1, s3, omega, gamma, j_ref, ref_err",
                         CANCELLATION_DRAWS,
                         ids=["%s-%d" % (_case(*pt[3:5]), k)
                              for k, pt in enumerate(CANCELLATION_DRAWS)])
def test_cancelling_terms_keep_the_raw_and_mass_bars(method, p, q, r, s1, s3,
                                                     omega, gamma, j_ref,
                                                     ref_err):
    # V = U(s)/s as the sum of the differences 1 - (s/a)^e cancelled at
    # s -> 0 too: 24 raw and 27 mass_fd values read converged=False, and 4
    # and 3 converged ones missed the oracle by more than their bar
    sv = method(NonlinearityParams(p, q, r, sign1=s1, sign3=s3), omega,
                gamma)
    if sv.converged:
        assert abs(sv.j - j_ref) <= sv.abs_error + ref_err
    else:
        assert sv.verdict() == "indeterminate"


# FF(2,3,4) 1e-8 above the curve at a = a#/2, j from
# perfbench/reference_points.json.  The wave is on the far branch
# (a = 1.736); F1 has a local maximum at c = 0.278 where omega - F1(c) is
# 1.5e-9, and the float sums of D and V there are off by up to
# eps S(c) / (omega - F1(c)) = 1e-7 relative, which J, scaling as one over
# that dip, inherits: 20.1 off against a bar of 6.45 without that term.
@pytest.mark.parametrize("method", [eval_J, eval_J_raw])
def test_error_bar_carries_the_dip_at_a_local_maximum(method):
    sv = method(FF234, 0.1464017449903313, 1.8973665961010275)
    miss = abs(sv.j - (-1280361515.5079741))
    assert miss <= sv.abs_error <= 10.0 * miss


def test_raw_route_converges_next_to_the_ff_curve_on_the_dip_branch():
    # the raw route's adaptive kernel stopped on round-off here after 39
    # panels, 5.0e-9 relative against a tolerance of 1e-9, and read
    # indeterminate; split at c on the tanh-sinh kernel, as eval_J is, it
    # converges within its bar of the oracle (2.4e-7)
    sv = eval_J_raw(FF234, 0.1464017449903313, 1.8973665961010275)
    assert sv.converged and sv.verdict() == "unstable"
    assert abs(sv.j - (-1280361515.5079741)) <= sv.abs_error + 2.4e-7


# j from perfbench/reference_points.json (40-digit mpmath quadrature)
@pytest.mark.parametrize("params, omega, gamma, j_ref", [
    pytest.param(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1), 1e-6, 0.0,
                 -2.727607488898984, id="DF234"),
    pytest.param(NonlinearityParams(2.0, 3.0, 4.0, sign1=-1, sign3=-1), 1e-6,
                 -4.0, 0.47603175928609665, id="DD234"),
])
def test_raw_route_converges_at_small_omega(params, omega, gamma, j_ref):
    # s = a - u^2 kept the non-smooth s^{(p-1)/2} end at s = 0, and the
    # raw route stopped on round-off there; the left piece's m flattens it
    sv = eval_J_raw(params, omega, gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error


# Draws of the route-agreement probe (default_rng(777) as in
# tests/oracle_tables.py, 3,000 draws) where eval_J_raw missed the oracle
# by 28.3 and 1.82 times its bar; j and its error are perfbench/oracle.py's
# j_value, printed by tests/oracle_tables.py.
ROUTE_DRAWS = [
    (4.49484084073488, 5.294512391695198, 6.764033611233371, -1, 1,
     0.24185080938609663, 4.727690316154831, -1.6260305083155455, 1.6e-44),
    (3.042523005635259, 5.80203106446864, 9.399823420461601, -1, 1,
     22.079026441988322, 5.988076350044629, -0.011850666947774174, 2.5e-28),
]


@pytest.mark.parametrize("method", [eval_J, eval_J_raw, eval_J_mass_fd])
@pytest.mark.parametrize("p, q, r, s1, s3, omega, gamma, j_ref, ref_err",
                         ROUTE_DRAWS, ids=["DF-0", "DF-1"])
def test_route_probe_draws_match_the_oracle(method, p, q, r, s1, s3, omega,
                                            gamma, j_ref, ref_err):
    sv = method(NonlinearityParams(p, q, r, sign1=s1, sign3=s3), omega,
                gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error + ref_err


# Points just above p = 1.  The left piece's stretch m = ceil(2/(p-1)) was
# 20,000 and more there, and crushed the mass into a layer at x = 1 that no
# panel saw: at DF(1.0001, 5, 5.0625) mass_Q read 9.43629 and mass_fd 0, and
# at FF(1.000001, 1.125, 2.125) all three routes read 10.13115724, converged.
# j and its error are perfbench/oracle.py's j_value at 40 digits, the mass
# its mass_value, with its change at 55 digits as the error.
NEAR_ONE_POINTS = [
    (1.0001, 5.0, 5.0625, -1, 1, 1.0, 3.0, -0.30752743458012993, 2.4e-30,
     73.93557271367011, 4.4e-24),
    (1.000001, 1.125, 2.125, 1, 1, 10.0, 1.0, 13.897071542792952, 1.4e-39,
     110.89944959683427, 9.6e-31),
    (1.0000000000000002, 1.125, 2.125, 1, 1, 10.0, 1.0, 13.897073616367873,
     1.4e-39, 110.89948272187888, 2.1e-23),
    (1.0000000000000002, 5.0, 5.0625, -1, 1, 1.0, 3.0, -0.30751487406576433,
     2.4e-30, 73.93555527480403, 3.0e-31),
]


@pytest.mark.parametrize("p, q, r, s1, s3, omega, gamma, j_ref, j_err, "
                         "q_ref, q_err", NEAR_ONE_POINTS,
                         ids=["%s-p=%r" % (_case(*pt[3:5]), pt[0])
                              for pt in NEAR_ONE_POINTS])
def test_points_next_to_p_1_match_the_oracle(p, q, r, s1, s3, omega, gamma,
                                             j_ref, j_err, q_ref, q_err):
    params = NonlinearityParams(p, q, r, sign1=s1, sign3=s3)
    for method in (eval_J, eval_J_raw, eval_J_mass_fd):
        sv = method(params, omega, gamma)
        assert sv.converged, sv
        assert abs(sv.j - j_ref) <= sv.abs_error + j_err, sv
    mass, = stability._masses(params, [omega], gamma)
    assert mass.converged and mass.value == mass_Q(params, omega, gamma)
    assert abs(mass.value - q_ref) <= mass.abs_error + q_err


# Masses at waves of the default_rng(2026) probe, printed by
# tests/oracle_tables.py from perfbench/oracle.py's mass_value: 10 of each
# case off the dip branch, which take the tanh-sinh kernel on one piece,
# and 8 FF waves on it, which take it on two pieces split at F1's maximum
# c.  Q and its error are the oracle's.
MASS_DRAWS = [
    (4.1975604805160245, 7.220852263978417, 9.305709364451706, 1, 1,
     0.15340643820799252, -0.8259112735983489, 1.983414824558178, 8.1e-33),
    (3.2661244126166684, 4.758588577089615, 5.580409096582253, -1, 1,
     0.11219416303940037, -1.0349895047896869, 2.889340505193402, 3.8e-33),
    (2.086609800119287, 5.591374826028396, 8.791350972338055, 1, 1,
     20.600097146358813, -2.4783907413233255, 0.8719266977572613, 8.7e-41),
    (2.34468757924341, 5.163009092771789, 6.1131824094558525, 1, -1,
     0.04583236592329446, 1.2804552483288987, 0.24232988279990136, 2.4e-42),
    (3.376356016410541, 6.095130946666552, 8.424982089426539, 1, -1,
     6.013242422951562, -7.971162342290896, 0.9281165326718135, 9.3e-42),
    (1.3407393267021357, 2.8057526401380923, 5.739507722523472, 1, -1,
     0.2870769794849748, 1.0727961338311829, 0.014245476458145662, 6.6e-28),
    (4.882350180272831, 8.718284564080765, 12.277446498031637, 1, 1,
     20.640361131025877, -5.435610997310883, 0.546991837073733, 5.5e-41),
    (1.1669805219252916, 2.3929328747876943, 3.555306172535048, -1, 1,
     0.02114024035106524, -0.20219094283981676, 3.256086677134459, 3.3e-42),
    (1.1136465443374053, 3.550693744093275, 5.542052906839933, 1, 1,
     13.079973949943767, 1.0243818218485519, 2.3818824229465996, 4.4e-26),
    (5.5960644464594544, 6.389680232813796, 10.161057667222407, -1, 1,
     2.035285957655655, 2.224420035567462, 1.6698917148137233, 1.7e-42),
    (3.7529981380081807, 7.426188171597401, 8.39757783608795, 1, 1,
     0.029625458515137076, 5.027888989946408, 1.663944013824036, 3e-33),
    (2.4359591337696687, 2.6151967276474846, 2.9966388140501135, 1, 1,
     0.6401607704680031, -4.292828457723084, 0.34260332001701393, 3.4e-41),
    (4.3148691887105635, 7.845554597141181, 9.298045604765909, 1, -1,
     0.02585078620034698, -2.9813321349790716, 1.9190985444012036, 5e-26),
    (4.3327576550534594, 7.620393251730441, 9.538762452139247, -1, 1,
     2.793850098873514, 7.335681819129894, 1.6389275942254495, 1.6e-44),
    (4.7379226889058765, 8.301441200258765, 9.203813975791034, -1, 1,
     8.867429698228475, 3.4783120852222975, 1.6256294438156667, 3e-35),
    (2.751738452709377, 5.522477540275915, 7.959859933196208, 1, -1,
     0.17205587962006483, -6.373027886685387, 0.8682795822203173, 8.7e-42),
    (5.81924950319637, 6.724517334566924, 7.2233874092402175, 1, -1,
     0.08613829306267025, -6.384307326304286, 1.6478156657344085, 3.1e-26),
    (4.95955644721375, 6.680193324061541, 7.455651853072695, 1, 1,
     0.341591878157555, 0.8685206244357246, 2.5917172428461583, 2.6e-41),
    (4.603280068550346, 7.492513228409076, 10.902190704446678, -1, 1,
     1.5815379056222465, -3.5923063541919724, 1.254077507812302, 1.2e-33),
    (4.70934093840332, 5.073876821826966, 7.742574106013919, -1, -1,
     0.8378194772432714, -5.416495317424786, 1.4292997995895853, 1.7e-33),
    (2.4795186625966563, 3.9365941452579922, 7.045403124568703, 1, 1,
     4.032242261245677, -4.697237118995016, 1.115170183724897, 1.1e-40),
    (2.06758465510353, 4.295518505446657, 5.383117376314998, 1, -1,
     0.09686364967595137, -7.664882493401503, 0.19630045669854715, 5.8e-34),
    (2.3898704621572557, 6.070435901417948, 8.442918257117608, 1, -1,
     0.5312226300422914, -1.1589673193385632, 2.0413371493102095, 2e-41),
    (3.463412489253341, 4.97018942954459, 6.1864889954581175, 1, 1,
     0.33367331492287144, -2.148239110719995, 1.2649897730645847, 1.3e-40),
    (4.895399025241553, 8.682821766698694, 12.657766337686544, -1, -1,
     0.01222454232462678, -5.789295119991889, 4.035339836844024, 3.4e-26),
    (1.5951539890372095, 5.263052898221169, 7.770228374984882, 1, 1,
     18.55298448781132, -2.324264712474168, 1.0268793054797847, 1e-40),
    (5.881698145017489, 8.137598167040078, 12.085617259325232, 1, 1,
     5.610725285240643, -0.964155457049193, 0.9376105326098337, 9.4e-42),
    (1.1006479156755171, 1.5790227415757376, 2.9364705223491656, 1, -1,
     0.03958714830175475, 4.095181317711662, 1.435551141892444e-26, 5.4e-50),
    (1.6247184436747595, 4.429700980243884, 7.987427854192392, 1, 1,
     27.700368738715706, 3.8706592165025384, 1.0934055624726984, 8.6e-27),
    (3.8539232290477594, 5.4516634696754105, 7.3147199332279556, -1, -1,
     8.843711022892608, -5.071753362686481, 1.7356890835853545, 7.4e-26),
    (2.5843205880974485, 6.117316357448278, 7.742256156393921, 1, 1,
     0.2546228595777352, 3.3841688130127956, 5.570941423503841, 2.8e-27),
    (5.144114344716128, 7.032253627165232, 10.876974000174796, 1, 1,
     15.109048444525381, 6.404246674445789, 0.9009216589808436, 5.7e-27),
    (1.1688560908931025, 3.827328143294272, 5.03434585324935, -1, -1,
     0.6385729447130898, -3.416820480152408, 2.0973689447129664, 9.7e-26),
    (4.305351462039488, 5.014659229242117, 8.134002861023903, 1, 1,
     0.21499746538246167, 7.074650106549591, 2.926742321244152, 1.2e-26),
    (5.371999747105869, 5.792057444354415, 9.767987366618286, -1, -1,
     0.021245262022643048, -2.01841368942981, 4.0695094664278715, 8.9e-33),
    (2.2196388842776886, 4.865275347150156, 5.03451980072514, -1, 1,
     0.014783183374430424, -0.42231699094180186, 3.2178646873788197, 6.5e-27),
    (3.199202054442903, 4.4536328259444655, 5.485793212644843, -1, 1,
     0.03463787656976131, 1.5727495198480295, 6.485027286580049, 8.1e-34),
    (3.0071164092765734, 3.190913567094336, 3.4571015831321903, -1, 1,
     3.317841737200553, -2.9363430357034126, 2.2251612397659675, 2.2e-41),
    (1.4203908906433984, 4.393909327996972, 5.2899157069731, -1, 1,
     2.585809761044286, 6.504515879319978, 7.749819845731947, 1.3e-26),
    (2.1910114704953756, 3.8188113283967473, 4.570659656685736, 1, -1,
     22.333026514100688, -6.796889179142255, 1.9347642492821533, 1.9e-41),
    (5.636553095180021, 8.003894659728397, 9.446314243490793, 1, 1,
     26.514015637598042, 7.113873669667543, 1.0561186222779608, 1.1e-44),
    (3.126925605175372, 5.090110705020144, 8.997627320114423, 1, 1,
     18.5613324719782, 2.7495832817684533, 0.9949696050661326, 8.1e-34),
    (3.680936705428448, 3.9642091653926936, 4.678946745778375, 1, 1,
     0.012566113778521836, 2.864179921408118, 13.599187869071773, 3.7e-26),
    (2.6005369979822754, 5.960834534018598, 9.95491751880416, -1, -1,
     0.031527221670403775, -7.919028314214666, 1.6962103222028142, 1.7e-26),
    (4.458131518053241, 4.571741949133448, 4.743851486714367, -1, -1,
     0.03615424378580121, -2.347871068572454, 4.146233536287738, 8e-26),
    (2.8109373409789367, 3.282004447712265, 4.7926891775797955, -1, -1,
     0.03251340140700542, -4.786236879420299, 0.4458395804003418, 5.2e-26),
    (5.879517878701234, 7.6405355307373535, 9.858463754653075, -1, -1,
     1.2737160152614087, -7.0542894260706905, 1.240141931239789, 1.2e-41),
    (5.891371583685401, 8.645457965992483, 9.77644449805271, -1, -1,
     0.1747009349400419, -6.20984709047417, 2.1170616411315266, 1.5e-33),
]


def test_mass_draws_lie_within_their_bars(monkeypatch):
    quads = _record_quadratures(monkeypatch)
    levels = _record_tanh_sinh(monkeypatch)
    for p, q, r, s1, s3, omega, gamma, q_ref, q_err in MASS_DRAWS:
        mass, = stability._masses(
            NonlinearityParams(p, q, r, sign1=s1, sign3=s3), [omega], gamma)
        assert mass.converged
        assert abs(mass.value - q_ref) <= mass.abs_error + q_err
    # 40 masses on one piece and 8 on two: no adaptive mass is left
    assert len(levels) == 40 + 2 * 8 and not quads


@pytest.mark.parametrize("omegas", [
    pytest.param([0.05, 0.3], id="near-dip"),
    # the dip-branch pieces stop at different levels, so the later levels
    # run pieces of cells that are not adjacent in the batch
    pytest.param([0.05, 0.07, 3.0, 0.06], id="near-3dip"),
])
def test_near_and_dip_branch_masses_share_one_tanh_sinh_call(monkeypatch,
                                                             omegas):
    # at gamma = 4, F1's maximum c = 0.031 lies above a at omega = 0.05 and
    # below it at 0.06 and above: one mass on one piece and the others split
    # at c, all their integrands in one call, each mass as mass_Q gives it
    # alone
    calls = []
    tanh_sinh = stability._tanh_sinh

    def recorded(f, m, tol):
        calls.append(m)
        return tanh_sinh(f, m, tol)

    c = terms(FF234, 4.0).maxima[0][0]
    assert find_a(FF234, 0.05, 4.0).a < c < min(
        find_a(FF234, omega, 4.0).a for omega in omegas[1:])
    monkeypatch.setattr(stability, "_tanh_sinh", recorded)
    masses = stability._masses(FF234, omegas, 4.0)
    assert calls == [1 + 2 * (len(omegas) - 1)]
    fields = ("value", "abs_error", "n_panels", "converged", "stop")
    for omega, mass in zip(omegas, masses):
        alone, = stability._masses(FF234, [omega], 4.0)
        assert mass.converged
        assert mass.value == mass_Q(FF234, omega, 4.0)
        assert [getattr(mass, f) for f in fields] == [
            getattr(alone, f) for f in fields]


def test_mass_draws_bars_are_not_overstated():
    # an overstated bar is honest but decides less: the median of bar over
    # miss was 97.7 over the 34 of these masses that miss at all
    ratios = []
    for p, q, r, s1, s3, omega, gamma, q_ref, _ in MASS_DRAWS:
        mass, = stability._masses(
            NonlinearityParams(p, q, r, sign1=s1, sign3=s3), [omega], gamma)
        miss = abs(mass.value - q_ref)
        if mass.converged and miss > 0.0:
            ratios.append(mass.abs_error / miss)
    assert len(ratios) >= 30
    assert statistics.median(ratios) <= 2.0 * 97.7


def _reference_value_points(expect="value"):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "reference_points.json")
    with open(path) as fh:
        points = json.load(fh)["points"]
    return [(NonlinearityParams(pt["p"], pt["q"], pt["r"], pt["s1"],
                                pt["s3"]), pt["omega"], pt["gamma"])
            for pt in points if pt["expect"] == expect]


def test_raw_route_checks_eval_J_on_the_tanh_sinh_kernel_everywhere(
        monkeypatch):
    # at every value point of the benchmark's point_checks eval_J_raw takes
    # the tanh-sinh kernel, on one piece or split at c, and never the fixed
    # rule or the adaptive kernel: it checks eval_J's rows, form and split,
    # and agrees with it within the sum of their bars
    quads = _record_quadratures(monkeypatch)
    rule = []
    rule_values = stability._rule

    def recorded(*args):
        rule.append(args)
        return rule_values(*args)

    monkeypatch.setattr(stability, "_rule", recorded)
    points = _reference_value_points()
    assert len(points) == 34
    for params, omega, gamma in points:
        sv = eval_J(params, omega, gamma)
        rule.clear()
        raw = eval_J_raw(params, omega, gamma)
        assert not quads and not rule
        assert raw.converged
        assert abs(raw.j - sv.j) <= raw.abs_error + sv.abs_error


def test_adaptive_routes_call_the_module_integrate_once(monkeypatch):
    # perfbench's traced run wraps stability.integrate and reads initial
    # from its keywords: eval_J0 makes one call, and eval_J, eval_J_raw and
    # eval_J_mass_fd, which take the other kernels, none
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(stability, "integrate", recorded)
    j0_points = _reference_value_points("j0")
    assert len(j0_points) == 7
    for params, _, gamma in j0_points:
        eval_J0(params, gamma)
        assert len(calls) == 1 and calls.pop()["initial"] == 2
    for params, omega, gamma in _reference_value_points():
        eval_J(params, omega, gamma)
        eval_J_raw(params, omega, gamma)
        eval_J_mass_fd(params, omega, gamma)
        assert not calls


@pytest.mark.parametrize("method", [eval_J_raw, eval_J_mass_fd],
                         ids=["raw", "mass_fd"])
def test_raw_and_mass_routes_take_few_panels(monkeypatch, method):
    # over the value points of the benchmark's point_checks, all on the
    # tanh-sinh kernel.  The raw cells, a mean of 8.9 adaptive panels when
    # they took that kernel: 28 on one piece at levels 3 to 5 (a mean of
    # 3.96), and the 6 FF value points on the dip branch on two pieces
    # each, split at c, at levels 5 and 6.  The stencil masses: 112 on one
    # piece at a mean level of 4.14, and the 24 at those 6 points, which
    # took the adaptive kernel's 591 panels, split at c at levels 3 to 6
    quads = _record_quadratures(monkeypatch)
    levels = _record_tanh_sinh(monkeypatch)
    one, split = [], []
    de_cells = stability._de_cells

    def record(cells, index, route, tables):
        out = de_cells(cells, index, route, tables)
        for i, quad in out.items():
            _, gamma, res = cells[i]
            maxima = tables[gamma].maxima
            (split if maxima and maxima[0][0] < res.a else one).append(quad)
        return out

    monkeypatch.setattr(stability, "_de_cells", record)
    for params, omega, gamma in _reference_value_points():
        method(params, omega, gamma)
    assert not quads
    assert len(levels) == len(one) + 2 * len(split)
    assert max(q.n_panels for q in split) <= 6
    if method is eval_J_raw:
        assert len(one) == 28 and len(split) == 6
        assert max(q.n_panels for q in one) <= 5
        assert sum(q.n_panels for q in one) / len(one) <= 4.0
    else:
        assert len(one) == 112 and len(split) == 24
        assert sum(q.n_panels for q in one) / len(one) <= 4.5
