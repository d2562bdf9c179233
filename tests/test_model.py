"""Tests for case classification and the two-parameter scaling reduction."""

import copy
import dataclasses
import functools
import math
import pickle

import numpy as np
import pytest

from tristab import NonlinearityParams, classify_case, normalize


def test_classify_case_table():
    assert classify_case(1, 1) == "FF"
    assert classify_case(1, -1) == "FD"
    assert classify_case(-1, 1) == "DF"
    assert classify_case(-1, -1) == "DD"


def test_classify_case_rejects_other_values():
    for bad in (0, 2, -2):
        with pytest.raises(ValueError):
            classify_case(bad, 1)
        with pytest.raises(ValueError):
            classify_case(1, bad)


def test_params_validation():
    # exponents must satisfy 1 < p < q < r
    with pytest.raises(ValueError):
        NonlinearityParams(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        NonlinearityParams(2.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        NonlinearityParams(2.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        NonlinearityParams(3.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        NonlinearityParams(2.0, 3.0, 4.0, sign1=0)
    with pytest.raises(ValueError):
        NonlinearityParams(2.0, 3.0, 4.0, sign3=5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exponents must be finite"):
            NonlinearityParams(2.0, 3.0, bad)
    ok = NonlinearityParams(2.0, 3.0, 4.0, sign1=-1, sign3=1)
    assert ok.case == "DF"
    assert ok.a1 == -1.0 and ok.a3 == 1.0


def test_params_frozen():
    params = NonlinearityParams(2.0, 3.0, 4.0)
    with pytest.raises(Exception):
        params.p = 5.0


def test_params_keep_eq_repr_and_hash_through_pickle_and_replace():
    params = NonlinearityParams(3, 5, 7, sign1=-1)
    text = "NonlinearityParams(p=3.0, q=5.0, r=7.0, sign1=-1, sign3=1)"
    # the hash is the one the dataclass computes from its fields
    assert hash(params) == hash((3.0, 5.0, 7.0, -1, 1))
    for other in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params),
                  dataclasses.replace(params),
                  NonlinearityParams(3.0, 5.0, 7.0, -1, 1)):
        assert other == params and hash(other) == hash(params)
        assert repr(other) == repr(params) == text
    moved = dataclasses.replace(params, sign3=-1)
    assert moved != params and moved.case == "DD"
    assert hash(moved) == hash((3.0, 5.0, 7.0, -1, -1))
    assert dataclasses.astuple(params) == (3.0, 5.0, 7.0, -1, 1)


def test_params_are_a_cache_key():
    calls = []

    @functools.lru_cache(maxsize=None)
    def cached(params):
        calls.append(params)
        return params.case

    params = NonlinearityParams(2.0, 3.0, 4.0, sign3=-1)
    for other in (params, pickle.loads(pickle.dumps(params)),
                  dataclasses.replace(params), NonlinearityParams(2, 3, 4, 1, -1)):
        assert cached(other) == "FD"
    assert cached(dataclasses.replace(params, sign3=1)) == "FF"
    assert len(calls) == 2
    assert {params: 1}[NonlinearityParams(2.0, 3.0, 4.0, 1, -1)] == 1


def test_normalize_already_reduced():
    # a1 = 1, a2 = -gamma0, a3 = 1 is the canonical form itself
    gamma0 = 1.75
    red = normalize(1.0, -gamma0, 1.0, 2.0, 3.0, 4.0)
    assert red.normalized.case == "FF"
    assert math.isclose(red.kappa, 1.0, rel_tol=1e-14)
    assert math.isclose(red.lam, 1.0, rel_tol=1e-14)
    assert math.isclose(red.gamma, gamma0, rel_tol=1e-14)


def test_normalize_kappa_example():
    red = normalize(4.0, 0.0, 1.0, 2.0, 3.0, 4.0)
    assert math.isclose(red.kappa, 2.0, rel_tol=1e-13)
    assert red.normalized.case == "FF"


def test_normalize_dd_example():
    red = normalize(-2.0, 1.0, -8.0, 2.0, 3.0, 4.0)
    assert red.normalized.case == "DD"
    assert math.isclose(red.kappa, 0.5, rel_tol=1e-13)
    assert math.isclose(red.lam, 1.0, rel_tol=1e-13)
    assert math.isclose(red.gamma, -0.25, rel_tol=1e-13)


def test_normalize_rejects_zero_outer_coefficients():
    with pytest.raises(ValueError):
        normalize(0.0, 1.0, 1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        normalize(1.0, 1.0, 0.0, 2.0, 3.0, 4.0)


def test_normalize_substitution_invariant():
    # after u = kappa * v(lam x), the outer coefficients must have unit
    # magnitude with the original signs, and the middle one equals -gamma
    rng = np.random.default_rng(20260819)
    for _ in range(300):
        p = 1.2 + 2.8 * rng.random()
        q = p + 0.2 + 2.0 * rng.random()
        r = q + 0.2 + 2.0 * rng.random()
        a1 = (10.0 ** rng.uniform(-3, 3)) * rng.choice([-1.0, 1.0])
        a2 = rng.normal() * 10.0 ** rng.uniform(-2, 2)
        a3 = (10.0 ** rng.uniform(-3, 3)) * rng.choice([-1.0, 1.0])
        red = normalize(a1, a2, a3, p, q, r)
        k, lam = red.kappa, red.lam
        b = a1 * k ** (p - 1) * lam ** 2
        c = a2 * k ** (q - 1) * lam ** 2
        d = a3 * k ** (r - 1) * lam ** 2
        assert abs(abs(b) - 1.0) <= 1e-12
        assert abs(abs(d) - 1.0) <= 1e-12
        assert math.copysign(1.0, b) == red.normalized.a1
        assert math.copysign(1.0, d) == red.normalized.a3
        assert abs(c + red.gamma) <= 1e-12 * (1.0 + abs(c))
        assert red.normalized.case == classify_case(
            1 if a1 > 0 else -1, 1 if a3 > 0 else -1)


@pytest.mark.parametrize("coefs", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                   (1.0, 1.0, -math.inf)])
def test_normalize_rejects_a_non_finite_coefficient(coefs):
    # a NaN a1 gave kappa = lam = gamma = NaN and a DF case
    with pytest.raises(ValueError, match="coefficients must be finite"):
        normalize(*coefs, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("pqr", [(3.0, 2.0, 4.0), (2.0, 3.0, 3.0),
                                 (1.0, 2.0, 3.0)])
def test_normalize_rejects_misordered_exponents(pqr):
    with pytest.raises(ValueError, match="1 < p < q < r"):
        normalize(1.0, 1.0, 1.0, *pqr)
