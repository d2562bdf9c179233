"""Tests for the limit-classification tables and guaranteed-sign statements."""

import math

import numpy as np
import pytest

from tristab import (
    Direction,
    GuaranteeStatement,
    LimitKind,
    NonlinearityParams,
    UnsupportedRegime,
    asymptotic_exponent,
    classify_limit,
    endpoints,
    eval_J,
    eval_J0,
    find_a,
    sign_guarantees,
)


def FF(p, q, r):
    return NonlinearityParams(p, q, r)


def FD(p, q, r):
    return NonlinearityParams(p, q, r, sign3=-1)


def DF(p, q, r):
    return NonlinearityParams(p, q, r, sign1=-1)


def DD(p, q, r):
    return NonlinearityParams(p, q, r, sign1=-1, sign3=-1)


def test_omega_zero_focusing_table():
    # contract examples
    assert classify_limit(FF(3, 4, 5), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.PosInfinity
    assert classify_limit(FF(2, 3, 4), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.ZeroPlus
    # remaining branches of the small-omega table
    assert classify_limit(FF(6, 7, 8), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.NegInfinity
    assert classify_limit(FF(7 / 3, 3, 4), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.FinitePositive
    # p = 5 with gamma resolving the sign
    assert classify_limit(FF(5, 10, 11), Direction.OmegaToZero, 1.0).kind \
        is LimitKind.ZeroPlus
    assert classify_limit(FF(5, 10, 11), Direction.OmegaToZero, -1.0).kind \
        is LimitKind.ZeroMinus
    assert classify_limit(FF(5, 9, 11), Direction.OmegaToZero, 1.0).kind \
        is LimitKind.FinitePositive
    assert classify_limit(FF(5, 8, 11), Direction.OmegaToZero, 1.0).kind \
        is LimitKind.PosInfinity
    assert classify_limit(FF(5, 8, 11), Direction.OmegaToZero, -1.0).kind \
        is LimitKind.NegInfinity
    # p = 5, gamma = 0: r vs 9, opposite signs in FF and FD
    assert classify_limit(FF(5, 8, 10), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.ZeroMinus
    assert classify_limit(FD(5, 8, 10), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.ZeroPlus
    assert classify_limit(FF(5, 8, 9), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.FiniteNegative
    assert classify_limit(FD(5, 8, 9), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.FinitePositive
    assert classify_limit(FF(5, 6, 7), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.NegInfinity
    assert classify_limit(FD(5, 6, 7), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.PosInfinity


def test_omega_zero_defocusing():
    # p >= 7/3: J -> -infinity
    assert classify_limit(DF(2.5, 3, 4), Direction.OmegaToZero, 0.0).kind \
        is LimitKind.NegInfinity
    # shortcut branches
    assert classify_limit(DF(1.3, 1.8, 2.5), Direction.OmegaToZero, 5.0).kind \
        is LimitKind.FinitePositive
    assert classify_limit(DF(2.2, 2.8, 4), Direction.OmegaToZero, -5.0).kind \
        is LimitKind.FiniteNegative
    # between the shortcuts the sign comes from evaluating J(0, gamma)
    assert classify_limit(DF(2.0, 2.5, 3.0), Direction.OmegaToZero,
                          -1000.0).kind is LimitKind.FinitePositive
    assert classify_limit(DF(2.0, 2.5, 3.0), Direction.OmegaToZero,
                          1000.0).kind is LimitKind.FiniteNegative
    # DD beyond gamma1: no standing waves near omega = 0
    dd = DD(3, 5, 7)
    _, gamma1, _ = endpoints(dd)
    with pytest.raises(ValueError):
        classify_limit(dd, Direction.OmegaToZero, gamma1 + 0.5)
    assert classify_limit(dd, Direction.OmegaToZero, gamma1 - 0.5).kind \
        is LimitKind.NegInfinity


def test_omega_zero_defocusing_needs_a_definite_j0():
    # at DF(1.5, 3, 4), gamma = 0, J(0, gamma) = -1.04e-17 +- 5.2e-15 has no
    # sign, and the classifier read FiniteNegative from it
    params = DF(1.5, 3, 4)
    val = eval_J0(params, 0.0)
    assert val.verdict() == "indeterminate" and val.j < 0.0
    with pytest.raises(UnsupportedRegime, match="decides no sign"):
        classify_limit(params, Direction.OmegaToZero, 0.0)
    # off gamma = 0 its sign is definite
    assert classify_limit(params, Direction.OmegaToZero, -1.0).kind \
        is LimitKind.FinitePositive


def test_omega_inf_table():
    assert classify_limit(FF(2, 3, 6), Direction.OmegaToInf, 0.0).kind \
        is LimitKind.ZeroMinus
    assert classify_limit(FF(1.5, 2, 3), Direction.OmegaToInf, 0.0).kind \
        is LimitKind.ZeroPlus
    assert classify_limit(FF(1.5, 2, 7 / 3), Direction.OmegaToInf, 0.0).kind \
        is LimitKind.FinitePositive
    assert classify_limit(FF(1.2, 1.5, 2), Direction.OmegaToInf, 0.0).kind \
        is LimitKind.PosInfinity
    # r = 5 border: gamma = 0 joins opposite branches in FF vs DF
    assert classify_limit(FF(2, 3, 5), Direction.OmegaToInf, 1.0).kind \
        is LimitKind.ZeroMinus
    assert classify_limit(FF(2, 3, 5), Direction.OmegaToInf, 0.0).kind \
        is LimitKind.ZeroPlus
    assert classify_limit(DF(2, 3, 5), Direction.OmegaToInf, 0.0).kind \
        is LimitKind.ZeroMinus
    assert classify_limit(DF(2, 3, 5), Direction.OmegaToInf, -1.0).kind \
        is LimitKind.ZeroPlus


def test_invalid_directions_raise():
    with pytest.raises(ValueError):
        classify_limit(FD(3, 5, 7), Direction.OmegaToInf, 0.0)
    with pytest.raises(ValueError):
        classify_limit(DD(3, 5, 7), Direction.OmegaToInf, 0.0)
    with pytest.raises(ValueError):
        classify_limit(FD(3, 5, 7), Direction.GammaToInf, 1.0)
    with pytest.raises(ValueError):
        classify_limit(DD(3, 5, 7), Direction.GammaToInf, 1.0)
    # a direction that is no Direction member, and a non-finite value
    with pytest.raises(ValueError, match="Direction member"):
        classify_limit(FF(2, 3, 4), "omega->0", 1.0)
    with pytest.raises(ValueError, match="Direction member"):
        asymptotic_exponent(FF(2, 3, 4), "omega->0")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            classify_limit(FF(2, 3, 4), Direction.OmegaToZero, bad)


def test_gamma_inf_table():
    assert classify_limit(FF(1.2, 1.5, 2), Direction.GammaToInf, 1.0).kind \
        is LimitKind.PosInfinity
    assert classify_limit(FF(1.2, 2, 7 / 3), Direction.GammaToInf, 1.0).kind \
        is LimitKind.FinitePositive
    # FF guard: q >= 7/3 forces the -infinity branch
    assert classify_limit(FF(3, 6, 7), Direction.GammaToInf, 1.0).kind \
        is LimitKind.NegInfinity
    # below the guard the r + 2q comparison decides
    assert classify_limit(FF(1.1, 1.3, 4), Direction.GammaToInf, 1.0).kind \
        is LimitKind.ZeroPlus  # r + 2q = 6.6 < 7
    assert classify_limit(FF(1.1, 1.5, 4), Direction.GammaToInf, 1.0).kind \
        is LimitKind.ExactZero  # r + 2q = 7
    assert classify_limit(FF(1.1, 2, 4), Direction.GammaToInf, 1.0).kind \
        is LimitKind.ZeroMinus  # r + 2q = 8 > 7
    # DF states the r + 2q trichotomy without the q < 7/3 guard
    assert classify_limit(DF(2, 2.5, 6), Direction.GammaToInf, 1.0).kind \
        is LimitKind.ZeroMinus


def test_gamma_neg_inf_table():
    assert classify_limit(FF(3, 6, 7), Direction.GammaToNegInf, 1.0).kind \
        is LimitKind.ZeroMinus
    assert classify_limit(DF(3, 4, 7), Direction.GammaToNegInf, 1.0).kind \
        is LimitKind.ZeroPlus
    # q = 5 sits with 0^+ for F*, 0^- for D*
    assert classify_limit(FF(3, 5, 7), Direction.GammaToNegInf, 1.0).kind \
        is LimitKind.ZeroPlus
    assert classify_limit(DF(3, 5, 7), Direction.GammaToNegInf, 1.0).kind \
        is LimitKind.ZeroMinus


def test_sign_guarantees_examples():
    stmts = [g.statement for g in sign_guarantees(FD(3, 5, 7))]
    assert stmts == [GuaranteeStatement.AllStablePositiveJ]
    stmts = [g.statement for g in sign_guarantees(DF(3, 5, 7))]
    assert GuaranteeStatement.AllUnstableNegativeJ in stmts
    # 2p + q = 11 > 7 holds too, so the omega = 0 statement rides along
    assert GuaranteeStatement.OmegaZeroAllNegative in stmts
    stmts = [g.statement for g in sign_guarantees(FF(3, 6, 7))]
    assert stmts == [GuaranteeStatement.UnstableForLargeOmega]
    stmts = [g.statement for g in sign_guarantees(DF(1.3, 1.8, 2.5))]
    assert GuaranteeStatement.OmegaZeroAllPositive in stmts
    stmts = [g.statement for g in sign_guarantees(DF(2.2, 2.8, 4))]
    assert GuaranteeStatement.OmegaZeroAllNegative in stmts
    stmts = [g.statement for g in sign_guarantees(DF(2, 2.5, 3))]
    assert GuaranteeStatement.OmegaZeroSignChange in stmts
    # no hypothesis holds: FF with small q
    assert sign_guarantees(FF(2, 3, 4)) == []


def test_asymptotic_exponents():
    assert asymptotic_exponent(FF(2, 3, 4), Direction.OmegaToZero) == 0.25
    assert asymptotic_exponent(FF(2, 3, 4), Direction.OmegaToInf) == -1.25
    assert asymptotic_exponent(FF(3, 4, 7), Direction.OmegaToInf) == -3.5
    assert asymptotic_exponent(FF(3, 6, 7), Direction.GammaToNegInf) == 1.0
    # q = 5 and the p/r = 5 borders
    assert asymptotic_exponent(FF(3, 5, 7), Direction.GammaToNegInf) == 2.0
    assert asymptotic_exponent(FF(5, 8, 11), Direction.OmegaToZero) == -0.5
    assert asymptotic_exponent(FF(5, 8, 11), Direction.OmegaToZero,
                               gamma=0.0) == 1.0
    assert asymptotic_exponent(FF(2, 3, 5), Direction.OmegaToInf) == -3.0
    assert asymptotic_exponent(FF(2, 3, 5), Direction.OmegaToInf,
                               gamma=0.0) == -3.5
    # no power law declared
    assert asymptotic_exponent(FF(2, 3, 4), Direction.GammaToInf) is None
    assert asymptotic_exponent(DF(2, 3, 4), Direction.OmegaToZero) is None
    assert asymptotic_exponent(FD(3, 5, 7), Direction.OmegaToInf) is None


def test_rate_against_numeric_slope():
    # FF(2,3,4), gamma = 0, omega -> 0: slope of log J vs log a near 1/4
    params = FF(2, 3, 4)
    loga, logj = [], []
    for w in (1e-3, 1e-4, 1e-5):
        prof = find_a(params, w, 0.0)
        sv = eval_J(params, w, 0.0)
        loga.append(math.log(prof.a))
        logj.append(math.log(abs(sv.j)))
    slope = np.polyfit(loga, logj, 1)[0]
    want = asymptotic_exponent(params, Direction.OmegaToZero)
    assert abs(slope - want) <= 0.1 * abs(want)


def test_classifier_matches_numeric_sign():
    # spot-check ZeroMinus: FF(3,6,7), gamma -> -infinity at fixed omega
    params = FF(3, 6, 7)
    vals = [eval_J(params, 1.0, g).j for g in (-20.0, -100.0, -400.0)]
    assert all(v < 0 for v in vals)
    assert all(abs(v2) < abs(v1) for v1, v2 in zip(vals, vals[1:]))
    got = classify_limit(params, Direction.GammaToNegInf, 1.0)
    assert got.kind is LimitKind.ZeroMinus
