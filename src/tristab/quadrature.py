"""Adaptive Gauss-Kronrod quadrature (G7/K15) over a finite interval, and
nested tanh-sinh quadrature over (0, 1).

Self-contained: the integrand is evaluated vectorized on numpy arrays of
nodes, error per panel follows the classic QUADPACK refinement, and panels
are split worst-first from a heap.  All integrands in this package are
bounded after substitution, so a finite-interval rule is enough.

One adaptive kernel, ``integrate``, refines one integrand.  It bisects
its worst panel once per round and calls the integrand at most once, on
the new halves.  A call costs about as much for 6 panels as for 2 (some
100 numpy calls), so every call also evaluates the halves of every new
panel (or initial one), the panels worst-first refinement needs next,
kept by their exact (a, b) until a split takes them: a long refinement
makes about one call per two splits.  Splits, sums, counters and stop
tests are those of one split per call, and a panel's values do not depend
on the other panels of its call (below), so no result changes.

Refinement stops when the summed error passes rel_tol * |value| (a
purely relative tolerance: there is no absolute one), when the panel
budget runs out, when the only splittable panels are narrower than the
width floor, or when refinement only churns round-off.  The last is
QUADPACK's test (Piessens et al. 1983, ``qage``, ``ier = 2``): a split
whose halves move the panel's value by at most 1e-5 relative while
keeping 99% of its error counts in iroff1, and a split that raises the
error, once the integrand has more than 10 panels, in iroff2; 6 of the
first or 20 of the second stop it.  This is what ends the
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
that row alone.  So a panel's sums do not depend on the other panels of
its call: an integrand evaluated elementwise gives a panel the values it
gets alone, bit for bit.  A matrix product ``Y @ w`` would not do:
BLAS sums its rows in an order that depends on the shape of ``Y``, which
changes the last bits, and ``(Y * w).sum(axis=1)`` differs from the dot
product.  The ``** 1.5`` of the error formula stays a Python float power
per panel: numpy's ``power`` differs from libm's ``pow`` in the last bit on
some inputs, which would change panel errors and so the refinement order.
``_rule_sums`` reduces the rows of a fixed rule by the same products.

``_tanh_sinh`` is the double-exponential kernel (Takahasi & Mori 1974;
Bailey, Jeyabalan & Li, Exp. Math. 14, 2005) for integrands that are
smooth inside (0, 1) and may be singular at its ends.  Its nodes are
v = 1/(1 + exp(-pi sinh u)) at u = j 2^-k, |u| <= 4.5, and it hands the
integrand ln v and ln(1 - v), the logarithms of each node's distance to
either end, as scipy's ``_tanhsinh`` hands over the abscissa's
complement: nodes reach 5e-62 from each end, where a node given by v alone
comes no closer to 1 than 1.1e-16.  Levels 0 to 3
(73 nodes) are one call and every later level, up to 12, one call on its
new nodes, each for every integrand of the batch still running.  The error
estimate is the difference of the last two levels plus the same round-off
floor of 50 eps times the integral of |f| as a G7/K15 panel's, and the stop
tests are ``integrate``'s: the tolerance relative to the value, and
after a stop at the round-off floor, the tolerance relative to the integral
of |f|.  Each integrand's row is reduced by ``_dots``, so here too no
result depends on its batch.  The node arrays depend on the level alone
and are built on first use.
"""

from __future__ import annotations

import functools
import heapq
import math
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
    """One integral: value, error estimate, panels used (the last level
    for ``_tanh_sinh``), whether the error met the tolerance, and why
    refinement stopped (``stop``): "tolerance", "roundoff", "budget",
    "width_floor", or "rule" for a fixed rule."""

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


def _reduce(Y, lo, hi):
    """G7/K15 values, errors and K15 integrals of |f| of the panels
    [lo[i], hi[i]] from their 15 values Y[i], as three lists of floats.

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
    return kron.tolist(), errs, absolute.tolist()


def _nodes(lo, hi):
    """The 15 nodes of each panel [lo[i], hi[i]], one row per panel."""
    return (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _NODES


def _round(f, lo, hi, ahead):
    """Reduce every panel [lo[i], hi[i]]: (values, errors, integrals of
    |f|).  A panel kept in the dict ahead by its (a, b) is taken from
    there; a call of f, if any, also evaluates and keeps there the halves
    of every panel."""
    panels = list(zip(lo, hi))
    todo = [p for p in panels if p not in ahead]
    for a, b in panels if todo else ():
        mid = 0.5 * (a + b)
        todo += ((a, mid), (mid, b))
    if todo:
        a, b = np.array(todo).T
        x = _nodes(a, b)
        y = np.asarray(f(x), dtype=float).reshape(x.shape)
        ahead.update(zip(todo, zip(*_reduce(y, a, b))))
    return map(list, zip(*map(ahead.pop, panels)))


# the constants of qage's round-off counters (module docstring)
_ROFF_REL = 1e-5
_ROFF_KEEP = 0.99
_ROFF_PANELS = 10
_ROFF1_STOP = 6
_ROFF2_STOP = 20


def integrate(f, lo: float, hi: float, rel_tol: float = 1e-9,
              max_panels: int = 2000, initial: int = 1) -> QuadratureResult:
    """Integrate f over [lo, hi] adaptively, from initial equal panels.

    f receives a (k, 15) float array whose row i holds the nodes of one
    panel, and returns values of that shape; an elementwise f works as it
    is.  It is called once on the initial panels and their halves, then at
    most once per split: a split whose halves were evaluated already calls
    nothing, and any other takes its halves and their halves (module
    docstring).  Panels are bisected worst-error-first until the summed
    error passes the tolerance (relative to the running total), the splits
    show that only round-off is left (QUADPACK's counters), or the panel
    budget runs out.  After a round-off stop the result is converged when
    its error passes the tolerance relative to the integral of |f|.  An
    empty interval (hi <= lo) gives 0 without calling f; a non-finite end
    raises ValueError.
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integrate needs finite ends, got [%r, %r]"
                         % (lo, hi))
    if hi <= lo:
        return QuadratureResult(0.0, 0.0, 0, True, "tolerance")
    n = max(1, int(initial))
    edges = np.linspace(lo, hi, n + 1).tolist()
    ahead = {}
    heap = []
    total = error = 0.0
    for a, b, val, err, ab in zip(edges[:-1], edges[1:],
                                  *_round(f, edges[:-1], edges[1:], ahead)):
        total += val
        error += err
        heap.append((-err, len(heap), a, b, val, err, ab))
    heapq.heapify(heap)
    counter = n
    frozen = 0.0
    iroff1 = iroff2 = 0
    width_floor = 4.0 * _EPS * max(abs(lo), abs(hi), 1.0)
    while True:
        tol = rel_tol * abs(total)
        toterr = error + frozen
        if error <= tol:
            # only frozen panels can keep it from converging
            return QuadratureResult(total, toterr, n, toterr <= tol,
                                    "tolerance" if toterr <= tol
                                    else "width_floor")
        if iroff1 >= _ROFF1_STOP or iroff2 >= _ROFF2_STOP:
            # the integral of |f| over the live panels, summed here once
            # rather than carried through every split
            tol = rel_tol * sum(p[6] for p in heap)
            return QuadratureResult(total, toterr, n, toterr <= tol,
                                    "roundoff")
        if n >= max_panels:
            return QuadratureResult(total, toterr, n, False, "budget")
        _, _, a, b, val, err, _ = heapq.heappop(heap)
        if b - a <= width_floor:
            # cannot subdivide further in float; freeze its error
            frozen += err
            error -= err
            if not heap:
                return QuadratureResult(total, error + frozen, n, False,
                                        "width_floor")
            continue
        mid = 0.5 * (a + b)
        (v1, v2), (e1, e2), (ab1, ab2) = _round(f, (a, mid), (mid, b), ahead)
        area12 = v1 + v2
        erro12 = e1 + e2
        total += area12 - val
        error += erro12 - err
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1, ab1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2, e2, ab2))
        counter += 2
        n += 1
        # both counters need erro12 >= 0.99 err (erro12 > err implies it),
        # which a split that makes progress fails: one test then
        if erro12 >= _ROFF_KEEP * err:
            if abs(val - area12) <= _ROFF_REL * abs(area12):
                iroff1 += 1
            if erro12 > err and n > _ROFF_PANELS:
                iroff2 += 1


# the tanh-sinh kernel: u in [-_DE_SPAN, _DE_SPAN], one call for the levels
# up to _DE_FIRST, where the stop test starts, and none past _DE_LAST
_DE_SPAN = 4.5
_DE_FIRST = 3
_DE_LAST = 12
# cells per array of a call: a sweep block's arrays stay small
_DE_BATCH = 64


@functools.lru_cache(maxsize=None)
def _de_nodes(level: int):
    """ln v, ln(1 - v) and the weight h dv/du at the nodes of a call of
    ``_tanh_sinh``, and the signs that difference its last two levels.

    v = 1/(1 + exp(-pi sinh u)) at u = j h, h = 2^-level, |u| <= _DE_SPAN:
    the call at _DE_FIRST takes every j, and the nodes of the levels below
    it (even j) weigh -1 in the signs; a later call takes the odd j.  ln v
    and ln(1 - v) come from logaddexp, accurate however close v is to 0
    or 1.
    """
    h = 0.5 ** level
    j = np.arange(-int(_DE_SPAN / h), int(_DE_SPAN / h) + 1)
    if level > _DE_FIRST:
        j = j[j % 2 != 0]
    u = j * h
    z = np.pi * np.sinh(u)
    ln_v, ln_w = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
    return (ln_v, ln_w, h * np.pi * np.cosh(u) * np.exp(ln_v + ln_w),
            np.where(j % 2 != 0, 1.0, -1.0))


def _tanh_sinh(f, m: int, rel_tol: float) -> List[QuadratureResult]:
    """Integrate m integrands over v in (0, 1) by nested tanh-sinh levels.

    f(ln_v, ln_w, w) receives the 1-D arrays ln v, ln(1 - v) and h dv/du at
    a call's nodes (``_de_nodes``), builds what depends on the nodes alone,
    and returns g: g(cells) gives, for each index in cells, a row of that
    integrand times w at those nodes (a block of one may give a 1-D row).
    g takes at most _DE_BATCH cells at a time, so a block's arrays stay
    small.  Level k has step h = 2^-k, and Q_k sums the integrand times
    h dv/du at every node up to level k.
    Levels 0 to _DE_FIRST are one call, and every later level one call on
    its new nodes, the odd multiples of h, whose row sum S gives
    Q_k = Q_{k-1}/2 + S.  From _DE_FIRST on, with d = |Q_k - Q_{k-1}|, A_k
    the level's integral of |f| and the floor 50 eps A_k, the error is
    d + floor.  An integrand stops when its error passes rel_tol |Q_k|
    ("tolerance"), when d is at or below the floor ("roundoff"), converged
    if the error passes rel_tol A_k, as in ``integrate``, or at
    _DE_LAST, unconverged ("budget"); n_panels is its last level.  It
    leaves the batch once it stops.  Rows are summed by ``_dots`` and the
    rest runs per integrand on Python floats, so no value depends on its
    batch.
    """
    results = [None] * m
    cells = list(range(m))
    for level in range(_DE_FIRST, _DE_LAST + 1):
        ln_v, ln_w, w, signs = _de_nodes(level)
        g = f(ln_v, ln_w, w)
        sums = []
        for j in range(0, len(cells), _DE_BATCH):
            y = np.asarray(g(cells[j:j + _DE_BATCH]))
            y = y.reshape(-1, y.shape[-1])
            ones = np.ones(y.shape[1])
            sums.append([_dots(y, ones), _dots(np.abs(y), ones)])
            if level == _DE_FIRST:
                sums[-1].append(_dots(y, signs))
        s, s_abs, *signed = (np.concatenate(x).tolist() for x in zip(*sums))
        if signed:
            q, a, d = s, s_abs, [abs(x) for x in signed[0]]
        else:
            d = [abs(x - 0.5 * y) for x, y in zip(s, q)]
            q = [0.5 * y + x for x, y in zip(s, q)]
            a = [0.5 * y + x for x, y in zip(s_abs, a)]
        # Python floats: a block of one must not pay numpy's overhead, and
        # a sweep block's loop costs no more than the numpy calls it replaces
        keep = []
        for i, (c, value, dc, ac) in enumerate(zip(cells, q, d, a)):
            floor = 50.0 * _EPS * ac
            err = dc + floor
            if err <= rel_tol * abs(value):
                results[c] = QuadratureResult(value, err, level, True,
                                              "tolerance")
            elif dc <= floor:
                results[c] = QuadratureResult(
                    value, err, level, err <= rel_tol * ac, "roundoff")
            elif level == _DE_LAST:
                results[c] = QuadratureResult(value, err, level, False,
                                              "budget")
            else:
                keep.append(i)
        if not keep:
            break
        cells = [cells[i] for i in keep]
        q, a = [q[i] for i in keep], [a[i] for i in keep]
    return results

