"""Tests for the slope functional J: three methods, sentinels, omega -> 0."""

import math

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
    eval_J_raw,
    find_a,
    find_a0,
    gamma_omega_ne,
    integrate_many,
    mass_Q,
    omega_star,
    omega_zero_pieces,
)
from tristab import stability
from tristab.landscape import eval_ND
from tristab.stability import _batch_integrand

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
    from tristab import u_value

    prof = find_a(params, omega, gamma)
    a = prof.a
    u = np.linspace(0.0, math.sqrt(a), n)
    s = a - u ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 2.0 * u * np.sqrt(s) / np.sqrt(u_value(params, omega, gamma, s))
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


def test_blow_up_signs_near_curve():
    om, ga = gamma_omega_ne(FF234, 0.3)
    lower = eval_J(FF234, om * (1 - 1e-3), ga * (1 - 1e-3))
    upper = eval_J(FF234, om * (1 + 1e-3), ga * (1 + 1e-3))
    assert not lower.diverging and lower.j > 100.0
    assert not upper.diverging and upper.j < -100.0


def test_unconverged_quadrature_is_indeterminate():
    # no rule in double precision reaches 1e-16 relative: the value and
    # its error bar stand, but the sign is not trusted
    sv = eval_J(FF234, 0.05, 0.0, rel_tol=1e-16)
    assert not sv.converged
    assert sv.verdict() == "indeterminate"
    assert abs(sv.j) > sv.abs_error
    assert eval_J(FF234, 0.05, 0.0).converged
    unsure = StabilityValue(2.0, 1e-9, False, "transformed", converged=False)
    assert unsure.verdict() == "indeterminate"


def test_verdict_rules():
    assert StabilityValue(2.0, 1e-9, False, "transformed").verdict() == "stable"
    assert StabilityValue(-2.0, 1e-9, False, "raw").verdict() == "unstable"
    assert StabilityValue(1e-12, 1e-9, False, "raw").verdict() == "indeterminate"
    assert StabilityValue(math.inf, math.inf, True, "transformed").verdict() == "stable"
    assert StabilityValue(-math.inf, math.inf, True, "transformed").verdict() == "unstable"


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


def test_omega_zero_pieces_beta():
    # at gamma = 0 the defining equation forces beta = 1 exactly
    for params in (DF_LOW, DF_CRIT):
        a0 = find_a0(params, 0.0)
        pieces = omega_zero_pieces(params, a0)
        assert math.isclose(pieces.beta, 1.0, rel_tol=1e-12)


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
])
def test_mass_fd_is_the_difference_of_scalar_masses(params, omega, gamma):
    # the four stencil masses run as one batch, each as mass_Q alone
    h = min(max(1e-4 * omega, 1e-6), 0.5 * omega)
    sv = eval_J_mass_fd(params, omega, gamma)
    assert sv.j == (mass_Q(params, omega + 0.5 * h, gamma)
                    - mass_Q(params, omega - 0.5 * h, gamma)) / h
    assert sv.converged


def test_mass_fd_unconverged_near_curve_is_indeterminate():
    # 1e-5 above the FF curve at a = a#/2 the stencil masses exhaust their
    # panel budget; the value (+1.27e6 where J = -1.28e6) decides nothing
    om, ga = gamma_omega_ne(FF234, endpoints(FF234)[0] / 2.0)
    sv = eval_J_mass_fd(FF234, om * (1.0 + 1e-5), ga)
    assert not sv.converged
    assert sv.verdict() == "indeterminate"


def test_mass_fd_error_covers_the_oracle():
    # oracle value from perfbench/oracle.py (40-digit mpmath quadrature of
    # the defining integral); j is 6.1e-6 off it, which the Richardson
    # estimate alone (3.6e-6) missed without the mass error amplified by 1/h
    sv = eval_J_mass_fd(NonlinearityParams(1.309, 2.690, 3.222, sign1=-1),
                        0.0116, 1.626)
    assert abs(sv.j - (-0.22392163546492827)) <= sv.abs_error
    assert sv.converged and sv.verdict() == "unstable"


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
    # u >= 0.1 keeps eval_ND's direct 1 - s^e clear of its cancellation
    a = find_a(params, omega, gamma).a
    u = np.linspace(0.1, 0.95, 18)
    n, d = eval_ND(params, gamma, a, 1.0 - u * u)
    expect = 2.0 * u * n / d ** 1.5
    got = _batch_integrand(params, gamma, [a])(u, [0])
    assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("method", [eval_J, eval_J_raw])
@pytest.mark.parametrize("params, omega, gamma, j_ref, ref_err",
                         BORDER_POINTS)
def test_border_points_match_the_oracle(method, params, omega, gamma, j_ref,
                                        ref_err):
    # eval_J_mass_fd is left out: at DF567 it misses the oracle by 4.2e-9
    # against a stated 3.5e-9
    sv = method(params, omega, gamma)
    assert sv.converged
    assert abs(sv.j - j_ref) <= sv.abs_error + ref_err


# J(omega, -10) of FD(3,6,7) changes sign here (brentq on eval_J)
FD367_J_ZERO = 0.39620117873208216


def _record_quadratures(monkeypatch):
    results = []

    def recorded(*args, **kwargs):
        out = integrate_many(*args, **kwargs)
        results.extend(out)
        return out

    monkeypatch.setattr(stability, "integrate_many", recorded)
    return results


@pytest.mark.parametrize("rel, verdict", [(-1e-6, "stable"),
                                          (1e-6, "unstable")])
def test_eval_J_next_to_a_zero_of_J_is_cheap_and_definite(monkeypatch, rel,
                                                          verdict):
    # rel_tol * |J| falls below the round-off floor of the panels here; the
    # quadrature used to spend its 2,000 panels and read indeterminate
    quads = _record_quadratures(monkeypatch)
    sv = eval_J(FD367, FD367_J_ZERO * (1.0 + rel), -10.0)
    (quad,) = quads
    assert quad.n_panels < 30 and quad.stop == "roundoff"
    assert sv.converged and sv.verdict() == verdict


def test_eval_J_at_a_zero_of_J_converges_indeterminate(monkeypatch):
    quads = _record_quadratures(monkeypatch)
    sv = eval_J(FD367, FD367_J_ZERO, -10.0)
    (quad,) = quads
    assert quad.n_panels < 30 and quad.stop == "roundoff"
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
