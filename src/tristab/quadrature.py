"""Adaptive Gauss-Kronrod quadrature (G7/K15) over a finite interval.

Self-contained: the integrand is evaluated vectorized on numpy arrays of
nodes, error per panel follows the classic QUADPACK refinement, and panels
are split worst-first from a heap.  All integrands in this package are
bounded after substitution, so a finite-interval rule is enough.

One kernel, ``integrate_many``, runs m integrands over the same interval.
Each keeps its own heap, panel budget and stopping test.  In every round
the worst panel of each unfinished integrand is bisected, and the integrand
is called once, on the nodes of all the new halves (and once on all the
initial panels before the first round).  ``integrate`` is a batch of one.

Each panel is reduced from its own 15 values by one dot product per
weight vector (``np.dot``'s BLAS ddot on a 15-value row), so a result does
not depend on the batch it ran in: an integrand evaluated elementwise gives
every integrand of a batch the value it gives it alone, bit for bit.  A
matrix product over the whole round would not do: BLAS sums a row of
``Y @ w`` in an order that depends on the shape of ``Y``, which changes the
last bits, and ``(Y * w).sum(axis=1)`` differs from the dot product.
"""

from __future__ import annotations

import heapq
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


class QuadratureResult(object):
    __slots__ = ("value", "abs_error", "n_panels", "converged")

    def __init__(self, value, abs_error, n_panels, converged):
        self.value = value
        self.abs_error = abs_error
        self.n_panels = n_panels
        self.converged = converged

    def __repr__(self):
        return ("QuadratureResult(value=%r, abs_error=%r, n_panels=%d, "
                "converged=%r)" % (self.value, self.abs_error,
                                   self.n_panels, self.converged))


def _reduce(Y, spans):
    """G7/K15 (value, error) of each panel spans[i] from its 15 values Y[i].

    Every weighted sum is a dot product of one 15-value row (the bound
    ndarray.dot is np.dot without its dispatch cost); only the elementwise
    abs and deviation arrays are formed once for the whole batch.
    """
    k_dot, g_dot = _W_K.dot, _W_G.dot
    halves = [0.5 * (hi - lo) for lo, hi in spans]
    krons = [half * float(k_dot(y)) for half, y in zip(halves, Y)]
    means = np.array([kron / (hi - lo)
                      for kron, (lo, hi) in zip(krons, spans)])
    out = []
    for y, y_abs, y_dev, half, kron in zip(Y, np.abs(Y),
                                           np.abs(Y - means[:, None]),
                                           halves, krons):
        gauss = half * float(g_dot(y))
        resabs = half * float(k_dot(y_abs))
        resasc = half * float(k_dot(y_dev))
        err = abs(kron - gauss)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        floor = 50.0 * _EPS * resabs
        if floor > 0.0:
            err = max(err, floor)
        out.append((kron, err))
    return out


def _nodes(spans):
    """The 15 nodes of each panel (lo, hi), one row per panel."""
    centers = np.array([0.5 * (lo + hi) for lo, hi in spans])
    halves = np.array([0.5 * (hi - lo) for lo, hi in spans])
    return centers[:, None] + halves[:, None] * _NODES


def integrate_many(f, lo: float, hi: float, m: int,
                   rel_tol: float = 1e-9, abs_tol: float = 0.0,
                   max_panels: int = 2000,
                   initial: int = 1) -> List[QuadratureResult]:
    """Integrate m integrands over [lo, hi] adaptively, side by side.

    f(x, cells) receives a (k, 15) float array whose row i holds the nodes
    of one panel of integrand cells[i] (a list of k indices in range(m)),
    and returns the k x 15 values.  Each integrand is refined exactly as it
    would be alone: panels are bisected worst-error-first until its summed
    error passes the tolerance (relative to its running total) or its panel
    budget runs out.  Returns one QuadratureResult per integrand.
    """
    if hi <= lo:
        return [QuadratureResult(0.0, 0.0, 0, True) for _ in range(m)]
    initial = max(1, int(initial))
    edges = np.linspace(lo, hi, initial + 1).tolist()
    spans = list(zip(edges[:-1], edges[1:])) * m
    cells = [c for c in range(m) for _ in range(initial)]
    x = _nodes(spans)
    panels = _reduce(np.asarray(f(x, cells), dtype=float).reshape(x.shape),
                     spans)
    heaps = [[] for _ in range(m)]
    totals = [0.0] * m
    errors = [0.0] * m
    for i, (c, (a, b), (val, err)) in enumerate(zip(cells, spans, panels)):
        totals[c] += val
        errors[c] += err
        heaps[c].append((-err, i, a, b, val, err))
    for heap in heaps:
        heapq.heapify(heap)
    counter = len(cells)
    n = [initial] * m
    frozen = [0.0] * m
    results = [None] * m
    width_floor = 4.0 * _EPS * max(abs(lo), abs(hi), 1.0)
    active = range(m)
    while True:
        splits = []
        for c in active:
            heap = heaps[c]
            while True:
                if (n[c] >= max_panels
                        or errors[c] <= max(abs_tol,
                                            rel_tol * abs(totals[c]))):
                    toterr = errors[c] + frozen[c]
                    results[c] = QuadratureResult(
                        totals[c], toterr, n[c],
                        toterr <= max(abs_tol, rel_tol * abs(totals[c])))
                    break
                _, _, a, b, val, err = heapq.heappop(heap)
                if b - a <= width_floor:
                    # cannot subdivide further in float; freeze its error
                    frozen[c] += err
                    errors[c] -= err
                    if not heap:
                        results[c] = QuadratureResult(
                            totals[c], errors[c] + frozen[c], n[c], False)
                        break
                    continue
                splits.append((c, a, 0.5 * (a + b), b, val, err))
                break
        if not splits:
            return results
        active = [s[0] for s in splits]
        spans = []
        for _, a, mid, b, _, _ in splits:
            spans.append((a, mid))
            spans.append((mid, b))
        x = _nodes(spans)
        y = np.asarray(f(x, [c for c in active for _ in (0, 1)]), dtype=float)
        panels = _reduce(y.reshape(x.shape), spans)
        for i, (c, a, mid, b, val, err) in enumerate(splits):
            (v1, e1), (v2, e2) = panels[2 * i], panels[2 * i + 1]
            totals[c] += (v1 + v2) - val
            errors[c] += (e1 + e2) - err
            heapq.heappush(heaps[c], (-e1, counter, a, mid, v1, e1))
            heapq.heappush(heaps[c], (-e2, counter + 1, mid, b, v2, e2))
            counter += 2
            n[c] += 1


def integrate(f, lo: float, hi: float,
              rel_tol: float = 1e-9, abs_tol: float = 0.0,
              max_panels: int = 2000, initial: int = 1) -> QuadratureResult:
    """Integrate f over [lo, hi] adaptively: integrate_many with m = 1.

    f must accept a 1-D float ndarray and return same-shaped values; it is
    called once on the 15 * initial nodes of the initial panels, then once
    per split on the 30 nodes of both halves.
    """
    return integrate_many(lambda x, cells: f(x.ravel()), lo, hi, 1,
                          rel_tol=rel_tol, abs_tol=abs_tol,
                          max_panels=max_panels, initial=initial)[0]
