"""Tests for the adaptive Gauss-Kronrod integrator and the tanh-sinh kernel."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tristab import integrate
from tristab.quadrature import (_DE_BATCH, _DE_LAST, _WG, _WGK, _XGK, _nodes,
                                _reduce, _tanh_sinh)


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
    r1 = integrate(f, 0.0, 3.0)
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


def _counted(f, calls):
    def counted(x):
        calls.append(x.copy())
        return f(x)
    return counted


@pytest.mark.parametrize("lo, hi", [(0.0, math.nan), (math.nan, 1.0),
                                    (0.0, math.inf), (-math.inf, 0.0),
                                    (math.inf, 0.0)])
def test_non_finite_ends_raise(lo, hi):
    # a NaN end would spend the whole panel budget on NaNs, and an
    # infinite one would warn inside np.linspace
    calls = []
    with pytest.raises(ValueError, match="finite"):
        integrate(_counted(np.exp, calls), lo, hi)
    assert not calls


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


def _dyadic_panel(row, edges):
    """The panel [a, b] whose 15 nodes are row, found by bisecting the
    initial panel that holds its centre, or None when no dyadic piece of
    the initial panels has exactly those nodes."""
    centre = row[7]
    for a, b in zip(edges[:-1], edges[1:]):
        if a < centre < b:
            break
    else:
        return None
    for _ in range(64):
        if np.array_equal(_nodes(np.array([a]), np.array([b]))[0], row):
            return a, b
        mid = 0.5 * (a + b)
        if centre == mid:
            return None
        a, b = (a, mid) if centre < mid else (mid, b)
    return None


def _check_calls(calls, lo, hi, initial, splits):
    """The call pattern of integrate: calls holds the (k, 15) nodes of each
    call.  The first call starts with the initial panels, there are at most
    as many calls after it as splits, and every other panel is a dyadic
    piece of an initial panel, evaluated once."""
    edges = np.linspace(lo, hi, initial + 1).tolist()
    assert np.array_equal(calls[0][:initial],
                          _nodes(np.array(edges[:-1]), np.array(edges[1:])))
    assert len(calls) <= 1 + splits
    seen = set()
    for row in np.concatenate(calls)[initial:]:
        panel = _dyadic_panel(row, edges)
        assert panel is not None and panel not in seen
        seen.add(panel)


@pytest.mark.parametrize("initial", [1, 2, 5])
@pytest.mark.parametrize("f, max_panels", [
    pytest.param(lambda x: 1.0 / np.sqrt(x), 2000, id="inv_sqrt"),
    pytest.param(np.log, 2000, id="log"),
    pytest.param(lambda x: np.sin(40.0 * x), 2000, id="sin40"),
    pytest.param(lambda x: np.sin(40.0 * x) / np.sqrt(x), 7,
                 id="sin40_inv_sqrt_budget"),
])
def test_one_integrand_call_per_split(f, max_panels, initial):
    # at most one call per split: the panels that refinement needs next
    # ride along with a split's halves, so a later split may need no call
    calls = []
    res = integrate(_counted(f, calls), 0.0, 1.0, rel_tol=1e-12,
                    max_panels=max_panels, initial=initial)
    _check_calls(calls, 0.0, 1.0, initial, res.n_panels - initial)
    value, err, n = _reference_integrate(f, 0.0, 1.0, rel_tol=1e-12,
                                         max_panels=max_panels,
                                         initial=initial)
    assert (res.value, res.abs_error, res.n_panels) == (value, err, n)


def test_long_refinement_takes_half_a_call_per_split():
    # 1/sqrt(x) refines at x = 0, one split after another: each call also
    # evaluates the halves the next split needs
    calls = []

    def counted(x):
        calls.append(len(x))
        return 1.0 / np.sqrt(x)

    res = integrate(counted, 0.0, 1.0, rel_tol=1e-12)
    splits = res.n_panels - 1
    assert splits >= 40
    assert len(calls) <= 2 + splits // 2


_MIX = [
    pytest.param(lambda x: 1.0 / (1.0 + 25.0 * x * x), id="few_rounds"),
    pytest.param(lambda x: 1.0 / np.sqrt(x), id="inv_sqrt"),
    pytest.param(lambda x: np.sin(1.0 / (x + 0.001)), id="budget"),
    # halving the panel at 0 shrinks its error only by 2^-0.1, so
    # refinement reaches the width floor there and freezes that panel
    pytest.param(lambda x: x ** -0.9, id="width_floor"),
]


@pytest.mark.parametrize("initial", [1, 2])
@pytest.mark.parametrize("f, stop, converged, exact", [
    pytest.param(*_MIX[0].values, "tolerance", True, None, id="few_rounds"),
    # 1/sqrt(x) and x^-0.9 meet the tolerance on their live panels but
    # carry the error of a panel frozen at the width floor
    pytest.param(*_MIX[1].values, "width_floor", False, 2.0, id="inv_sqrt"),
    pytest.param(*_MIX[2].values, "budget", False, None, id="budget"),
    pytest.param(*_MIX[3].values, "width_floor", False, None,
                 id="width_floor"),
])
def test_each_stop_equals_the_reference(f, stop, converged, exact, initial):
    calls = []
    kw = dict(rel_tol=1e-10, max_panels=150, initial=initial)
    res = integrate(_counted(f, calls), 0.0, 1.0, **kw)
    assert (res.value, res.abs_error, res.n_panels) == \
        _reference_integrate(f, 0.0, 1.0, **kw)
    assert (res.stop, res.converged) == (stop, converged)
    if exact is not None:
        assert abs(res.value - exact) <= 1e-6
    assert res.n_panels == 150 if stop == "budget" else res.n_panels < 150
    if stop == "tolerance":
        assert res.n_panels <= initial + 3
    _check_calls(calls, 0.0, 1.0, initial, res.n_panels - initial)


def _smooth(w, phase, c):
    # positive, so no cancellation brings in the round-off counters, which
    # _reference_integrate leaves out
    return lambda x: 2.0 + np.sin(w * x + phase) + c * x * x


_SMOOTH = st.builds(_smooth, st.floats(1.0, 60.0), st.floats(0.0, 6.3),
                    st.floats(0.0, 3.0))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(f=st.one_of(st.sampled_from([p.values[0] for p in _MIX]), _SMOOTH),
       initial=st.sampled_from([1, 2, 5]))
def test_random_integrands_equal_the_reference(f, initial):
    calls = []
    kw = dict(rel_tol=1e-10, max_panels=150, initial=initial)
    res = integrate(_counted(f, calls), 0.0, 1.0, **kw)
    assert (res.value, res.abs_error, res.n_panels) == \
        _reference_integrate(f, 0.0, 1.0, **kw)
    tol = kw["rel_tol"] * abs(res.value)
    assert res.converged == (res.abs_error <= tol)
    assert res.stop == ("tolerance" if res.converged
                        else "budget" if res.n_panels == 150
                        else "width_floor")
    _check_calls(calls, 0.0, 1.0, initial, res.n_panels - initial)


def _reference_reduce(y, a, b):
    """G7/K15 (value, error, integral of |f|) of the panel [a, b] from its
    15 values y, each sum an np.dot of that row alone."""
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
    return kron, err, resabs


@pytest.mark.parametrize("k", [1, 2, 48])
def test_reduce_matches_one_dot_product_per_row(k):
    # a (k, 15) @ w product sums rows in another order and fails this
    rng = np.random.default_rng(k)
    Y = rng.standard_normal((k, 15)) * 10.0 ** rng.uniform(-6, 6, (k, 1))
    lo = rng.uniform(-2.0, 2.0, k)
    hi = lo + 10.0 ** rng.uniform(-8, 1, k)
    assert list(zip(*_reduce(Y, lo, hi))) == [_reference_reduce(y, a, b)
                                              for y, a, b in zip(Y, lo, hi)]


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
@pytest.mark.parametrize("f, converged", [
    pytest.param(_sin_2pi, True, id="zero_integral"),
    pytest.param(_noisy, False, id="noise_plateau"),
])
def test_roundoff_stops_from_any_initial_panels(f, converged, initial):
    calls = []
    res = integrate(_counted(f, calls), 0.0, 1.0, rel_tol=1e-10,
                    max_panels=150, initial=initial)
    assert (res.stop, res.converged) == ("roundoff", converged)
    assert res.n_panels < 150
    _check_calls(calls, 0.0, 1.0, initial, res.n_panels - initial)


# -- the tanh-sinh kernel ----------------------------------------------------


def _beta_integrands(exponents):
    """``_tanh_sinh``'s f for the integrands v^alpha (1 - v)^beta, one per
    (alpha, beta), built from ln v and ln(1 - v)."""
    def nodes(ln_v, ln_w, w):
        return lambda cells: np.array([
            np.exp(exponents[c][0] * ln_v + exponents[c][1] * ln_w) * w
            for c in cells])
    return nodes


def _beta(alpha, beta):
    return (math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
            / math.gamma(alpha + beta + 2.0))


EXPONENTS = [(-0.5, 0.0), (0.0, -0.5), (-0.5, -0.5), (2.0, 3.0),
             (0.25, -0.25), (7.5, 0.5)]


def test_tanh_sinh_resolves_endpoint_singularities():
    # v^-1/2 at either end: the nodes come within 5e-62 of both ends, which
    # 1 - v in floats could not resolve at v -> 1
    for (alpha, beta), res in zip(EXPONENTS, _tanh_sinh(
            _beta_integrands(EXPONENTS), len(EXPONENTS), 1e-12)):
        exact = _beta(alpha, beta)
        assert res.converged and res.stop == "tolerance"
        assert abs(res.value - exact) <= res.abs_error <= 1e-12 * exact
        assert 3 <= res.n_panels <= 6


def test_tanh_sinh_batch_repeats_each_integrand_alone():
    # more integrands than one array takes, and cells that stop at
    # different levels leave the batch at different rounds
    exponents = [EXPONENTS[k % len(EXPONENTS)]
                 for k in range(2 * _DE_BATCH + 7)]
    batch = _tanh_sinh(_beta_integrands(exponents), len(exponents), 1e-12)
    assert len({res.n_panels for res in batch}) > 1
    for ab, res in zip(exponents, batch):
        (alone,) = _tanh_sinh(_beta_integrands([ab]), 1, 1e-12)
        assert (alone.value, alone.abs_error, alone.n_panels, alone.stop) == (
            res.value, res.abs_error, res.n_panels, res.stop)


def test_tanh_sinh_zero_integral_stops_on_roundoff_converged():
    def nodes(ln_v, ln_w, w):
        return lambda cells: (np.exp(ln_v) - 0.5) * w

    (res,) = _tanh_sinh(nodes, 1, 1e-9)
    assert res.stop == "roundoff" and res.converged
    assert abs(res.value) <= res.abs_error <= 1e-14


def test_tanh_sinh_jump_ends_unconverged_at_the_last_level():
    # a jump inside (0, 1) halves the difference of levels per level only
    def nodes(ln_v, ln_w, w):
        return lambda cells: np.where(ln_v < math.log(1.0 / 3.0), w, 0.0)

    (res,) = _tanh_sinh(nodes, 1, 1e-9)
    assert res.stop == "budget" and not res.converged
    assert res.n_panels == _DE_LAST
    assert abs(res.value - 1.0 / 3.0) <= res.abs_error
