"""Adaptive Gauss-Kronrod quadrature (G7/K15) over a finite interval.

Self-contained: the integrand is evaluated vectorized on numpy arrays of
nodes, error per panel follows the classic QUADPACK refinement, and panels
are split worst-first from a heap.  All integrands in this package are
bounded after substitution, so a finite-interval rule is enough.

The integrand is called once per split, on the 30 nodes of both halves,
and once for all the initial panels; each panel is still reduced from its
own 15 values, so the result does not depend on how the calls are grouped.
"""

from __future__ import annotations

import heapq
import math

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

_EPS = np.finfo(float).eps


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


def _rule(y, lo, hi):
    """G7/K15 value and error on [lo, hi] from the 15 values y at its nodes."""
    half = 0.5 * (hi - lo)
    kron = half * float(np.dot(_W_K, y))
    gauss = half * float(np.dot(_W_G, y))
    resabs = half * float(np.dot(_W_K, np.abs(y)))
    mean = kron / (hi - lo)
    resasc = half * float(np.dot(_W_K, np.abs(y - mean)))
    err = abs(kron - gauss)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    if floor > 0.0:
        err = max(err, floor)
    return kron, err


def _panels(f, edges):
    """(value, error) of every panel between consecutive edges; one f call."""
    spans = list(zip(edges[:-1], edges[1:]))
    x = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * _NODES
                        for a, b in spans])
    y = np.asarray(f(x), dtype=float)
    n = len(_NODES)
    return [_rule(y[i * n:(i + 1) * n], a, b) for i, (a, b) in enumerate(spans)]


def integrate(f, lo: float, hi: float,
              rel_tol: float = 1e-9, abs_tol: float = 0.0,
              max_panels: int = 2000, initial: int = 1) -> QuadratureResult:
    """Integrate f over [lo, hi] adaptively.

    f must accept a float ndarray and return same-shaped values.  Panels are
    bisected worst-error-first until the summed error passes the tolerance
    (relative to the running total) or the panel budget runs out.
    """
    if hi <= lo:
        return QuadratureResult(0.0, 0.0, 0, True)
    initial = max(1, int(initial))
    edges = np.linspace(lo, hi, initial + 1)
    heap = []
    total = 0.0
    toterr = 0.0
    counter = 0
    for a, b, (val, err) in zip(edges[:-1], edges[1:], _panels(f, edges)):
        total += val
        toterr += err
        heapq.heappush(heap, (-err, counter, a, b, val, err))
        counter += 1
    n = initial
    width_floor = 4.0 * _EPS * max(abs(lo), abs(hi), 1.0)
    frozen_err = 0.0
    while n < max_panels:
        target = max(abs_tol, rel_tol * abs(total))
        if toterr <= target:
            break
        neg_err, _, a, b, val, err = heapq.heappop(heap)
        if b - a <= width_floor:
            # cannot subdivide further in float; freeze this panel's error
            frozen_err += err
            toterr -= err
            if not heap:
                toterr += frozen_err
                return QuadratureResult(total, toterr, n, False)
            continue
        mid = 0.5 * (a + b)
        (v1, e1), (v2, e2) = _panels(f, (a, mid, b))
        total += (v1 + v2) - val
        toterr += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2, e2))
        counter += 1
        n += 1
    toterr += frozen_err
    converged = toterr <= max(abs_tol, rel_tol * abs(total))
    return QuadratureResult(total, toterr, n, converged)
