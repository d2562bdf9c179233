"""Tests for the adaptive Gauss-Kronrod integrator."""

import heapq
import math

import numpy as np
import pytest

from tristab import integrate, integrate_many
from tristab.quadrature import _WG, _WGK, _XGK, _reduce


def test_polynomial_exactness():
    # G7/K15 is exact for low-degree polynomials; a single panel suffices
    res = integrate(lambda x: np.asarray(x) ** 6, 0.0, 1.0)
    assert math.isclose(res.value, 1.0 / 7.0, rel_tol=1e-14)
    assert res.converged


def test_known_integrals():
    res = integrate(np.exp, 0.0, 1.0)
    assert math.isclose(res.value, math.e - 1.0, rel_tol=1e-12)

    res = integrate(lambda x: np.sin(np.asarray(x)), 0.0, math.pi)
    assert math.isclose(res.value, 2.0, rel_tol=1e-12)

    res = integrate(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), 0.0, 1.0)
    assert math.isclose(res.value, math.pi / 4.0, rel_tol=1e-12)


def test_error_estimate_bounds_true_error():
    res = integrate(lambda x: np.cos(7.3 * np.asarray(x)), 0.0, 2.0)
    truth = math.sin(14.6) / 7.3
    assert abs(res.value - truth) <= max(res.abs_error, 1e-13)


def test_integrable_endpoint_singularity():
    # 1/sqrt(x) on (0, 1]: integrable, value 2; panel endpoints are never
    # evaluated so the open endpoint poses no difficulty
    res = integrate(lambda x: 1.0 / np.sqrt(np.asarray(x)), 0.0, 1.0,
                    rel_tol=1e-9, max_panels=2000)
    assert abs(res.value - 2.0) <= 1e-6


def test_log_singularity():
    res = integrate(lambda x: np.log(np.asarray(x)), 0.0, 1.0)
    assert abs(res.value - (-1.0)) <= 1e-8


def test_oscillatory_needs_refinement():
    res = integrate(lambda x: np.sin(40.0 * np.asarray(x)), 0.0, 1.0)
    truth = (1.0 - math.cos(40.0)) / 40.0
    assert math.isclose(res.value, truth, rel_tol=1e-9, abs_tol=1e-12)
    assert res.n_panels > 1


def test_max_panels_reports_nonconvergence():
    # very tight tolerance with a tiny panel budget: must flag converged=False
    res = integrate(lambda x: np.sin(40.0 * np.asarray(x)) / np.sqrt(np.asarray(x)),
                    0.0, 1.0, rel_tol=1e-15, max_panels=3)
    assert not res.converged
    assert res.n_panels <= 3 + 1


def test_initial_subdivision():
    f = lambda x: np.exp(-np.asarray(x))
    r1 = integrate(f, 0.0, 3.0, initial=1)
    r2 = integrate(f, 0.0, 3.0, initial=4)
    assert math.isclose(r1.value, r2.value, rel_tol=1e-12)
    assert r2.n_panels >= 4


def test_degenerate_and_reversed_limits_yield_zero():
    # an empty or reversed interval integrates to exactly zero
    for lo, hi in [(1.0, 1.0), (1.0, 0.0), (-2.0, -3.0)]:
        res = integrate(np.exp, lo, hi)
        assert res.value == 0.0
        assert res.abs_error == 0.0
        assert res.converged


def test_seeded_random_smooth_integrands():
    # compare against dense trapezoid on random smooth functions
    rng = np.random.default_rng(20260819)
    xs = np.linspace(0.0, 1.0, 200001)
    for _ in range(10):
        c = rng.normal(size=4)
        w = rng.uniform(1.0, 9.0)

        def f(x, c=c, w=w):
            x = np.asarray(x)
            return (c[0] + c[1] * x + c[2] * np.sin(w * x)
                    + c[3] * np.exp(-x))

        res = integrate(f, 0.0, 1.0)
        truth = np.trapezoid(f(xs), xs)
        assert abs(res.value - truth) <= 1e-8 * (1.0 + abs(truth))


def _reference_integrate(f, lo, hi, rel_tol=1e-9, max_panels=2000,
                         initial=1):
    """The same adaptive scheme with one integrand call per panel."""
    nodes = np.concatenate([-_XGK[:-1], _XGK[::-1]])
    w_k = np.concatenate([_WGK[:-1], _WGK[::-1]])
    w_g = np.zeros_like(w_k)
    w_g[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])
    eps = np.finfo(float).eps

    def panel(a, b):
        half = 0.5 * (b - a)
        y = np.asarray(f(0.5 * (a + b) + half * nodes), dtype=float)
        kron = half * float(np.dot(w_k, y))
        gauss = half * float(np.dot(w_g, y))
        resabs = half * float(np.dot(w_k, np.abs(y)))
        resasc = half * float(np.dot(w_k, np.abs(y - kron / (b - a))))
        err = abs(kron - gauss)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        if 50.0 * eps * resabs > 0.0:
            err = max(err, 50.0 * eps * resabs)
        return kron, err

    edges = np.linspace(lo, hi, initial + 1)
    heap, total, toterr, counter = [], 0.0, 0.0, 0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err = panel(a, b)
        total += val
        toterr += err
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
    n = initial
    width_floor = 4.0 * eps * max(abs(lo), abs(hi), 1.0)
    frozen = 0.0
    while n < max_panels and toterr > rel_tol * abs(total):
        _, _, a, b, val, err = heapq.heappop(heap)
        if b - a <= width_floor:
            frozen += err
            toterr -= err
            if not heap:
                return total, toterr + frozen, n
            continue
        mid = 0.5 * (a + b)
        v1, e1 = panel(a, mid)
        v2, e2 = panel(mid, b)
        total += (v1 + v2) - val
        toterr += (e1 + e2) - err
        for item in ((a, mid, v1, e1), (mid, b, v2, e2)):
            heapq.heappush(heap, (-item[3], counter) + item)
            counter += 1
        n += 1
    return total, toterr + frozen, n


@pytest.mark.parametrize("initial", [1, 2, 5])
@pytest.mark.parametrize("f, max_panels", [
    pytest.param(lambda x: 1.0 / np.sqrt(x), 2000, id="inv_sqrt"),
    pytest.param(np.log, 2000, id="log"),
    pytest.param(lambda x: np.sin(40.0 * x), 2000, id="sin40"),
    pytest.param(lambda x: np.sin(40.0 * x) / np.sqrt(x), 7,
                 id="sin40_inv_sqrt_budget"),
])
def test_one_integrand_call_per_split(f, max_panels, initial):
    calls = []

    def counted(x):
        calls.append(len(x))
        return f(x)

    res = integrate(counted, 0.0, 1.0, rel_tol=1e-12,
                    max_panels=max_panels, initial=initial)
    assert len(calls) == res.n_panels - initial + 1
    assert calls[0] == 15 * initial
    assert all(c == 30 for c in calls[1:])
    value, err, n = _reference_integrate(f, 0.0, 1.0, rel_tol=1e-12,
                                         max_panels=max_panels,
                                         initial=initial)
    assert (res.value, res.abs_error, res.n_panels) == (value, err, n)


_MIX = [
    pytest.param(lambda x: 1.0 / (1.0 + 25.0 * x * x), id="few_rounds"),
    pytest.param(lambda x: 1.0 / np.sqrt(x), id="inv_sqrt"),
    pytest.param(lambda x: np.sin(1.0 / (x + 0.001)), id="budget"),
    # halving the panel at 0 shrinks its error only by 2^-0.1, so
    # refinement reaches the width floor there and freezes that panel
    pytest.param(lambda x: x ** -0.9, id="width_floor"),
]


@pytest.mark.parametrize("initial", [1, 2])
def test_batch_repeats_each_integrand_alone(initial):
    fs = [p.values[0] for p in _MIX]
    calls = []

    def batch(x, cells):
        calls.append(list(cells))
        out = np.empty_like(x)
        for i, c in enumerate(cells):
            out[i] = fs[c](x[i])
        return out

    kw = dict(rel_tol=1e-10, max_panels=150, initial=initial)
    results = integrate_many(batch, 0.0, 1.0, len(fs), **kw)
    alone = [integrate(f, 0.0, 1.0, **kw) for f in fs]
    for res, ref in zip(results, alone):
        assert (res.value, res.abs_error, res.n_panels, res.converged) == \
            (ref.value, ref.abs_error, ref.n_panels, ref.converged)
    few, inv_sqrt, budget, floor = results
    assert few.converged and few.n_panels <= initial + 3
    assert abs(inv_sqrt.value - 2.0) <= 1e-6
    assert budget.n_panels == 150 and not budget.converged
    assert floor.n_panels < 150 and not floor.converged
    # one call per round: the initial panels, then one split of every
    # integrand still refining
    splits = [r.n_panels - initial for r in results]
    assert len(calls) == 1 + max(splits)
    assert calls[0] == [c for c in range(len(fs)) for _ in range(initial)]
    for k, cells in enumerate(calls[1:]):
        assert cells == [c for c in range(len(fs)) if splits[c] > k
                         for _ in (0, 1)]


def test_panel_reduction_does_not_depend_on_the_batch():
    # a matrix product over the batch (Y @ w) sums each row in an order
    # that depends on the batch shape and fails this bit-for-bit check
    rng = np.random.default_rng(20261018)
    coef = rng.standard_normal((50, 4)) * 10.0 ** rng.uniform(-3, 3, (50, 1))

    def batch(x, cells):
        c = coef[cells]
        return (c[:, :1] + c[:, 1:2] * np.sin(7.0 * x)
                + c[:, 2:3] * np.exp(-x) + c[:, 3:] * x ** 3)

    together = integrate_many(batch, 0.0, 1.0, 50, max_panels=1)
    for i, res in enumerate(together):
        alone = integrate_many(lambda x, cells: batch(x, [i] * len(cells)),
                               0.0, 1.0, 1, max_panels=1)[0]
        assert (res.value, res.abs_error) == (alone.value, alone.abs_error)


def _reference_reduce(y, a, b):
    """G7/K15 (value, error) of the panel [a, b] from its 15 values y,
    each sum an np.dot of that row alone."""
    w_k = np.concatenate([_WGK[:-1], _WGK[::-1]])
    w_g = np.zeros_like(w_k)
    w_g[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])
    eps = np.finfo(float).eps
    half = 0.5 * (b - a)
    kron = half * float(np.dot(w_k, y))
    gauss = half * float(np.dot(w_g, y))
    resabs = half * float(np.dot(w_k, np.abs(y)))
    resasc = half * float(np.dot(w_k, np.abs(y - kron / (b - a))))
    err = abs(kron - gauss)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if 50.0 * eps * resabs > 0.0:
        err = max(err, 50.0 * eps * resabs)
    return kron, err


@pytest.mark.parametrize("k", [1, 2, 48])
def test_reduce_matches_one_dot_product_per_row(k):
    # a (k, 15) @ w product sums rows in another order and fails this
    rng = np.random.default_rng(k)
    Y = rng.standard_normal((k, 15)) * 10.0 ** rng.uniform(-6, 6, (k, 1))
    lo = rng.uniform(-2.0, 2.0, k)
    hi = lo + 10.0 ** rng.uniform(-8, 1, k)
    vals, errs = _reduce(Y, lo, hi)
    assert list(zip(vals, errs)) == [_reference_reduce(y, a, b)
                                     for y, a, b in zip(Y, lo, hi)]


def test_batch_with_one_interval_per_integrand_repeats_each_alone():
    # the width floor 4 eps max(|lo|, |hi|, 1) is 4 eps on [0, 1] and
    # 256 eps on [0, 64]: a floor shared by the batch would freeze the
    # panel of x^-0.9 at 0 too early on [0, 1] or too late on [0, 64]
    fs = [lambda x: x ** -0.9, lambda x: x ** -0.9, lambda x: 1.0 / np.sqrt(x),
          np.exp, lambda x: np.sin(1.0 / (x + 0.001)), np.cos]
    los = [0.0, 0.0, 0.0, 2.0, -0.5, 1.0]
    his = [1.0, 64.0, 4.0, 2.0, 1.5, 0.5]

    def batch(x, cells):
        assert 3 not in cells and 5 not in cells   # empty intervals
        out = np.empty_like(x)
        for i, c in enumerate(cells):
            out[i] = fs[c](x[i])
        return out

    kw = dict(rel_tol=1e-10, max_panels=150, initial=2)
    results = integrate_many(batch, los, his, len(fs), **kw)
    for f, lo, hi, res in zip(fs, los, his, results):
        ref = integrate(f, lo, hi, **kw)
        assert (res.value, res.abs_error, res.n_panels, res.converged) == \
            (ref.value, ref.abs_error, ref.n_panels, ref.converged)
    for frozen in results[:2]:
        assert frozen.n_panels < 150 and not frozen.converged
    assert (results[3].value, results[3].n_panels) == (0.0, 0)
    assert (results[5].value, results[5].n_panels) == (0.0, 0)
    with pytest.raises(ValueError):
        integrate_many(batch, los[:-1], his, len(fs), **kw)


def _noisy(x):
    # e^x with a deterministic relative wobble of 1e-7 from node to node:
    # no rule resolves it, so refinement only churns round-off-like noise
    return np.exp(x) * (1.0 + 1e-7 * np.sin(1e9 * x))


def _sin_2pi(x):
    return np.sin(2.0 * np.pi * x)


def test_noise_plateau_stops_on_roundoff_unconverged():
    # without the round-off counters this runs to its 2,000-panel budget
    res = integrate(_noisy, 0.0, 1.0, rel_tol=1e-10)
    assert res.stop == "roundoff"
    assert res.n_panels < 100
    assert not res.converged
    assert abs(res.value - (math.e - 1.0)) <= res.abs_error


def test_zero_integral_stops_on_roundoff_converged():
    # the integral is 0, so rel_tol * |total| sits below the round-off
    # floor; measured against the integral of |f| (2/pi) the error passes
    res = integrate(_sin_2pi, 0.0, 1.0)
    assert res.stop == "roundoff"
    assert res.converged
    assert res.n_panels < 30
    assert abs(res.value) <= res.abs_error
    assert "stop='roundoff'" in repr(res)


@pytest.mark.parametrize("initial", [1, 2])
def test_roundoff_counters_are_kept_per_integrand(initial):
    fs = [p.values[0] for p in _MIX] + [_sin_2pi, _noisy]

    def batch(x, cells):
        out = np.empty_like(x)
        for i, c in enumerate(cells):
            out[i] = fs[c](x[i])
        return out

    kw = dict(rel_tol=1e-10, max_panels=150, initial=initial)
    results = integrate_many(batch, 0.0, 1.0, len(fs), **kw)
    for f, res in zip(fs, results):
        ref = integrate(f, 0.0, 1.0, **kw)
        assert (res.value, res.abs_error, res.n_panels, res.converged,
                res.stop) == (ref.value, ref.abs_error, ref.n_panels,
                              ref.converged, ref.stop)
    # 1/sqrt(x) and x^-0.9 meet the tolerance on their live panels but
    # carry the error of a panel frozen at the width floor
    assert [r.stop for r in results] == ["tolerance", "width_floor", "budget",
                                         "width_floor", "roundoff",
                                         "roundoff"]
    assert [r.converged for r in results] == [True, False, False, False,
                                              True, False]
