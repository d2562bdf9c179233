"""Adaptive Gauss-Kronrod quadrature (G7/K15) over a finite interval.

Self-contained: the integrand is evaluated vectorized on numpy arrays of
nodes, error per panel follows the classic QUADPACK refinement, and panels
are split worst-first from a heap.  All integrands in this package are
bounded after substitution, so a finite-interval rule is enough.

One kernel, ``integrate_many``, runs m integrands side by side over one
shared interval.  Each keeps its own heap, panel budget, round-off
counters and stopping test, and all share the interval's width floor.  In
every round the worst panel of each unfinished integrand is bisected, and
the integrand is called at most once, on the new halves.  A call costs
about as much for 6 panels as for 2 (some 100 numpy calls), so in a batch
of at most ``_AHEAD_BATCH`` integrands every call also evaluates the halves
of every new panel (or initial one), the panels worst-first refinement
needs next, kept by their integrand and exact (a, b) until a split takes
them: a long refinement makes about one call per two splits.  Splits,
sums, counters and stop tests are those of one split per call, and a
panel's values do not depend on its batch (below), so no result changes.
``integrate`` is a batch of one.

An integrand stops when its summed error passes rel_tol * |value| (a
purely relative tolerance: there is no absolute one), when its panel
budget runs out, when its only splittable panels are narrower than its
width floor, or when refinement only churns round-off.  The last is QUADPACK's test (Piessens et al. 1983, ``qage``,
``ier = 2``): a split whose halves move the panel's value by at most 1e-5
relative while keeping 99% of its error counts in iroff1, and a split that
raises the error, once the integrand has more than 10 panels, in iroff2; 6
of the first or 20 of the second stop it.  This is what ends the
refinement at a zero of J, where rel_tol * |value| sits below the summed
round-off floors 50 eps resabs of the panels.  After a round-off stop the
result is converged when its error passes the tolerance measured against
the integral of |f| (the summed resabs of its unfrozen panels) instead of
|value|: an error at the round-off floor passes, a noise plateau far above
it does not.  ``QuadratureResult.stop`` names the test that ended it.  The
heap order is untouched, so an integrand that meets its tolerance before
the counters trip is refined through exactly the same splits as without
them.

A round is reduced in one set of array calls.  Each of the four G7/K15
sums is a stacked vector product, ``(k, 1, 15) @ (15, 1)``, which numpy
runs as one BLAS ddot per 15-value row: the same call ``np.dot`` makes on
that row alone.  So a result does not depend on the batch it ran in: an
integrand evaluated elementwise gives every integrand of a batch the value
it gives it alone, bit for bit.  A matrix product ``Y @ w`` would not do:
BLAS sums its rows in an order that depends on the shape of ``Y``, which
changes the last bits, and ``(Y * w).sum(axis=1)`` differs from the dot
product.  The ``** 1.5`` of the error formula stays a Python float power
per panel: numpy's ``power`` differs from libm's ``pow`` in the last bit on
some inputs, which would change panel errors and so the refinement order.
``_rule_sums`` reduces the rows of a fixed rule by the same products.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import List

import numpy as np

# 15-point Kronrod nodes on [-1, 1] (nonnegative half) and weights,
# with the embedded 7-point Gauss weights on the odd-indexed nodes.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full node vector on [-1, 1], ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_W_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_W_G = np.zeros_like(_W_K)
_W_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = float(np.finfo(float).eps)


@dataclass(slots=True, eq=False)
class QuadratureResult:
    """One integral: value, error estimate, panels used, whether the error
    met the tolerance, and why refinement stopped (``stop``): "tolerance",
    "roundoff", "budget", "width_floor", or "rule" for a fixed rule."""

    value: float
    abs_error: float
    n_panels: int
    converged: bool
    stop: str


def _dots(Y, w):
    """w . y for every row y of Y, as a stacked (k, 1, 15) @ (15, 1) product.

    numpy runs a stacked vector product as one BLAS ddot per row, the call
    ``w.dot(y)`` makes on that row alone, so each sum is independent of k.
    """
    return np.matmul(Y[:, None, :], w[:, None])[:, 0, 0]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre nodes on [-1, 1], ascending, and weights,
    by Newton steps on P_n's recurrence from Tricomi's estimates: eigh's
    LAPACK buffers would add about 0.9 MB to a process's peak memory."""
    x = np.cos(np.pi * (np.arange(n, 0.0, -1.0) - 0.25) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _rule_sums(Y, n: int):
    """The n- and 2n-point Gauss-Legendre sums of each row of Y (its first
    n values and the next 2n), and the 2n-point sum of |Y|."""
    w, w2 = _gauss_legendre(n)[1], _gauss_legendre(2 * n)[1]
    return _dots(Y[:, :n], w), _dots(Y[:, n:], w2), _dots(abs(Y[:, n:]), w2)


def _reduce(Y, lo, hi, resabs=None):
    """G7/K15 values and errors of the panels [lo[i], hi[i]] from their 15
    values Y[i], as two lists of floats.  When resabs is a list, the K15
    integral of |f| over each panel is appended to it.

    The four weighted sums of every panel come from ``_dots``; the error
    formula runs per panel on Python floats, because its ``** 1.5`` must be
    libm's pow (numpy's power differs from it in the last bit).
    """
    width = hi - lo
    half = 0.5 * width
    kron = half * _dots(Y, _W_K)
    gauss = half * _dots(Y, _W_G)
    absolute = half * _dots(np.abs(Y), _W_K)
    resasc = half * _dots(np.abs(Y - (kron / width)[:, None]), _W_K)
    errs = []
    for err, asc, floor in zip(np.abs(kron - gauss).tolist(),
                               resasc.tolist(),
                               (50.0 * _EPS * absolute).tolist()):
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        if floor > 0.0:
            err = max(err, floor)
        errs.append(err)
    if resabs is not None:
        resabs += absolute.tolist()
    return kron.tolist(), errs


def _nodes(lo, hi):
    """The 15 nodes of each panel [lo[i], hi[i]], one row per panel."""
    return (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _NODES


def _round(f, lo, hi, cells, ahead=None):
    """Evaluate f once on every panel [lo[i], hi[i]] of integrand cells[i]
    and reduce each panel: (values, errors, integrals of |f|).  With the
    dict ahead, a panel kept there by its (c, a, b) is taken from there,
    and a call of f, if any, also evaluates and keeps the halves of every
    panel."""
    if ahead is None:
        lo, hi = np.array(lo), np.array(hi)
        x = _nodes(lo, hi)
        y = np.asarray(f(x, cells), dtype=float).reshape(x.shape)
        resabs = []
        vals, errs = _reduce(y, lo, hi, resabs)
        return vals, errs, resabs
    panels = list(zip(cells, lo, hi))
    todo = [p for p in panels if p not in ahead]
    for c, a, b in panels if todo else ():
        mid = 0.5 * (a + b)
        todo += ((c, a, mid), (c, mid, b))
    if todo:
        cells, lo, hi = map(list, zip(*todo))
        ahead.update(zip(todo, zip(*_round(f, lo, hi, cells))))
    return map(list, zip(*map(ahead.pop, panels)))


# the constants of qage's round-off counters (module docstring)
_ROFF_REL = 1e-5
_ROFF_KEEP = 0.99
_ROFF_PANELS = 10
_ROFF1_STOP = 6
_ROFF2_STOP = 20

# a batch of at most this many integrands looks one level ahead; in the
# last rounds of a larger one (a sweep block) it saved no call
_AHEAD_BATCH = 5


def integrate_many(f, lo: float, hi: float, m: int,
                   rel_tol: float = 1e-9, max_panels: int = 2000,
                   initial: int = 1) -> List[QuadratureResult]:
    """Integrate m integrands adaptively, side by side.

    Every integrand runs over the one interval [lo, hi].  f(x, cells)
    receives a (k, 15) float array whose row i holds the nodes of one panel
    of integrand cells[i] (a list of k indices in range(m)), and returns the
    k x 15 values; a call may hold panels that refinement never reaches
    (module docstring).  Each integrand is refined exactly as it would be
    alone: panels are bisected worst-error-first until its summed error
    passes the tolerance (relative to its running total), its splits show
    that only round-off is left (QUADPACK's counters), or its panel budget
    runs out.  After a round-off stop it is converged when its error passes
    the tolerance relative to the integral of |f|.  An empty interval
    (hi <= lo) gives 0 without calling f.  Returns one QuadratureResult per
    integrand.
    """
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        return [QuadratureResult(0.0, 0.0, 0, True, "tolerance")
                for _ in range(m)]
    initial = max(1, int(initial))
    edges = np.linspace(lo, hi, initial + 1).tolist()
    cells = [c for c in range(m) for _ in range(initial)]
    span_lo = edges[:-1] * m
    span_hi = edges[1:] * m
    ahead = {} if m <= _AHEAD_BATCH else None
    vals, errs, absols = _round(f, span_lo, span_hi, cells, ahead)
    heaps = [[] for _ in range(m)]
    totals = [0.0] * m
    errors = [0.0] * m
    for i, (c, a, b, val, err, ab) in enumerate(zip(cells, span_lo, span_hi,
                                                    vals, errs, absols)):
        totals[c] += val
        errors[c] += err
        heaps[c].append((-err, i, a, b, val, err, ab))
    for heap in heaps:
        heapq.heapify(heap)
    counter = len(cells)
    n = [initial] * m
    frozen = [0.0] * m
    iroff1 = [0] * m
    iroff2 = [0] * m
    width_floor = 4.0 * _EPS * max(abs(lo), abs(hi), 1.0)
    results = [None] * m
    active = list(range(m))
    while True:
        splits = []
        for c in active:
            heap = heaps[c]
            while True:
                tol = rel_tol * abs(totals[c])
                toterr = errors[c] + frozen[c]
                if errors[c] <= tol:
                    # only frozen panels can keep it from converging
                    stop = "tolerance" if toterr <= tol else "width_floor"
                elif iroff1[c] >= _ROFF1_STOP or iroff2[c] >= _ROFF2_STOP:
                    stop = "roundoff"
                    # the integral of |f| over the live panels, summed here
                    # once rather than carried through every split
                    tol = rel_tol * sum(p[6] for p in heap)
                elif n[c] >= max_panels:
                    stop = "budget"
                else:
                    stop = None
                if stop is not None:
                    results[c] = QuadratureResult(totals[c], toterr, n[c],
                                                  toterr <= tol, stop)
                    break
                _, _, a, b, val, err, _ = heapq.heappop(heap)
                if b - a <= width_floor:
                    # cannot subdivide further in float; freeze its error
                    frozen[c] += err
                    errors[c] -= err
                    if not heap:
                        results[c] = QuadratureResult(
                            totals[c], errors[c] + frozen[c], n[c], False,
                            "width_floor")
                        break
                    continue
                splits.append((c, a, 0.5 * (a + b), b, val, err))
                break
        if not splits:
            return results
        active = [s[0] for s in splits]
        span_lo, span_hi = [], []
        for _, a, mid, b, _, _ in splits:
            span_lo += (a, mid)
            span_hi += (mid, b)
        vals, errs, absols = _round(f, span_lo, span_hi,
                                    [c for c in active for _ in (0, 1)],
                                    ahead)
        for (c, a, mid, b, val, err), v1, v2, e1, e2, ab1, ab2 in zip(
                splits, vals[::2], vals[1::2], errs[::2], errs[1::2],
                absols[::2], absols[1::2]):
            area12 = v1 + v2
            erro12 = e1 + e2
            totals[c] += area12 - val
            errors[c] += erro12 - err
            heapq.heappush(heaps[c], (-e1, counter, a, mid, v1, e1, ab1))
            heapq.heappush(heaps[c], (-e2, counter + 1, mid, b, v2, e2, ab2))
            counter += 2
            n[c] += 1
            # both counters need erro12 >= 0.99 err (erro12 > err implies
            # it), which a split that makes progress fails: one test then
            if erro12 >= _ROFF_KEEP * err:
                if abs(val - area12) <= _ROFF_REL * abs(area12):
                    iroff1[c] += 1
                if erro12 > err and n[c] > _ROFF_PANELS:
                    iroff2[c] += 1


def integrate(f, lo: float, hi: float,
              rel_tol: float = 1e-9, max_panels: int = 2000,
              initial: int = 1) -> QuadratureResult:
    """Integrate f over [lo, hi] adaptively: integrate_many with m = 1.

    f must accept a 1-D float ndarray and return same-shaped values.  It is
    called once on the nodes of the initial panels and of their halves, then
    at most once per split: a split whose halves were evaluated already
    calls nothing, and any other takes the 90 nodes of its halves and of
    their halves.
    """
    return integrate_many(lambda x, cells: f(x.ravel()), lo, hi, 1,
                          rel_tol=rel_tol, max_panels=max_panels,
                          initial=initial)[0]
