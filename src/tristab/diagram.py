"""Stability diagrams: J swept over an (omega, gamma) mesh plus level curves.

Grid cells hold the J value, NaN where no standing wave exists, or a signed
infinity where the query landed on the nonexistence curve (J diverges there,
positive from the lower-left side, negative from the FF upper-right side).
Level curves come from marching squares on the linearly interpolated field;
cells touching a sentinel corner are skipped rather than clamped, since every
level curve accumulates on the nonexistence curve and clamping would
fabricate geometry there.  numpy picks, in row-major order, the cells whose
four corners are finite and not all on one side of the level, and only those
run the per-cell interpolation and saddle test.

Serialization formats:

* grid CSV: header ``gamma\\omega,<w1>,...``, one row per gamma ascending,
  17-significant-digit decimals, sentinel literals NaN / +Inf / -Inf;
* contour JSON: ``{"params": {...}, "level": c, "paths": [[[w, g], ...]]}``;
* boundary CSV: columns ``a,omega_ne,gamma_ne``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .boundary import BoundaryCurve
from .errors import NoStandingWave
from .model import NonlinearityParams
from .stability import _block_columns, eval_J


@dataclass(frozen=True)
class DiagramGrid:
    """J values on a rectangular mesh; values has shape (len(gamma_axis), len(omega_axis))."""

    params: NonlinearityParams
    omega_axis: np.ndarray
    gamma_axis: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class ContourSet:
    """Polylines of one level curve; each path is a list of (omega, gamma)."""

    level: float
    paths: Tuple[Tuple[Tuple[float, float], ...], ...]
    params: Optional[NonlinearityParams] = None


# the fewest cells one task of a sweep holds: its rows' quadratures run as
# one batch, and a bound on the block keeps memory flat on large grids
_BLOCK_CELLS = 256
# the fewest cells a sweep hands to a pool: below this, starting the workers
# and pickling the blocks cost more than the second core saves.  A whole
# `tristab diagram` process on 2 cores breaks even near 4,500 cells on
# FF(2,3,4), near 5,500 on FD(3,6,7) and near 7,000 on DD(3,5,7), whose
# cells are the cheapest
_POOL_CELLS = 4096


def _sweep_block(task):
    """J at every cell of a block of rows, row-major: its batch's j column."""
    params, gammas, omegas = task
    return _block_columns(params, omegas, gammas)[0]


def sweep_grid(params: NonlinearityParams,
               omega_range: Tuple[float, float],
               gamma_range: Tuple[float, float],
               nx: int, ny: int,
               jobs: Optional[int] = None) -> DiagramGrid:
    """Evaluate J on an nx (omega) by ny (gamma) mesh.

    The gamma rows are cut into blocks of consecutive rows holding at least
    256 cells (one row once nx >= 256), and each block is evaluated as one
    batch, that of ``eval_J_rows``, whose cells equal scalar ``eval_J`` bit
    for bit; the sweep keeps the batch's j column and builds no object per
    cell.  jobs (default: the number of CPUs) bounds the worker processes:
    with jobs > 1, a mesh of at least 4,096 cells that spans more than one
    block maps its blocks over a process pool; any other mesh runs in
    process and starts no pool.
    """
    w_lo, w_hi = float(omega_range[0]), float(omega_range[1])
    g_lo, g_hi = float(gamma_range[0]), float(gamma_range[1])
    if not (0.0 < w_lo < w_hi) or not math.isfinite(w_hi):
        raise ValueError("omega_range must satisfy 0 < lo < hi, finite")
    if not (g_lo < g_hi) or not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise ValueError("gamma_range must satisfy lo < hi, finite")
    if nx < 2 or ny < 2:
        raise ValueError("need nx >= 2 and ny >= 2")
    if jobs is not None and jobs < 1:
        raise ValueError("need jobs >= 1")
    omega_axis = np.linspace(w_lo, w_hi, int(nx))
    gamma_axis = np.linspace(g_lo, g_hi, int(ny))
    if jobs is None:
        jobs = os.cpu_count() or 1
    step = -(-_BLOCK_CELLS // len(omega_axis))  # rows per block
    omegas = omega_axis.tolist()
    tasks = [(params, gamma_axis[i:i + step].tolist(), omegas)
             for i in range(0, len(gamma_axis), step)]
    if (jobs > 1 and len(tasks) > 1
            and omega_axis.size * gamma_axis.size >= _POOL_CELLS):
        import multiprocessing
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            blocks = pool.map(_sweep_block, tasks)
    else:
        blocks = [_sweep_block(t) for t in tasks]
    values = np.array([j for block in blocks for j in block],
                      dtype=float).reshape(gamma_axis.size, omega_axis.size)
    return DiagramGrid(params=params, omega_axis=omega_axis,
                       gamma_axis=gamma_axis, values=values)


# -- marching squares ---------------------------------------------------------


def _interp(x1: float, x2: float, f1: float, f2: float) -> float:
    # the corner values are numpy scalars; a path holds Python floats
    return float(x1 + f1 / (f1 - f2) * (x2 - x1))


# a cell's edges by their two corners (a, b, c, d = 0, 1, 2, 3)
_B, _R, _T, _L = (0, 1), (1, 2), (3, 2), (0, 3)
# marching squares' case table: for each pattern of corners above the level
# (bit k for corner k) the pairs of edges that one piece joins; the saddles
# 5 and 10 hold the pairs for a centre below the level, then above it
_CASES = (
    (), ((_L, _B),), ((_B, _R),), ((_L, _R),), ((_R, _T),),
    (((_L, _B), (_R, _T)), ((_L, _T), (_B, _R))),
    ((_B, _T),), ((_L, _T),), ((_L, _T),), ((_B, _T),),
    (((_B, _R), (_T, _L)), ((_B, _L), (_T, _R))),
    ((_R, _T),), ((_L, _R),), ((_B, _R),), ((_L, _B),), (),
)


def _cell_segments(x0, x1, y0, y1, fa, fb, fc, fd, center_above):
    """Level-crossing segments of one cell.

    Corners: a=(x0,y0), b=(x1,y0), c=(x1,y1), d=(x0,y1); f* are the corner
    values minus the level; center_above() lazily resolves the two saddle
    configurations.
    """
    idx = ((1 if fa > 0.0 else 0)
           | (2 if fb > 0.0 else 0)
           | (4 if fc > 0.0 else 0)
           | (8 if fd > 0.0 else 0))
    pairs = _CASES[idx]
    if idx in (5, 10):
        pairs = pairs[bool(center_above())]
    f = (fa, fb, fc, fd)

    # crossing points are computed only on the edges the case uses; the
    # strict sign split guarantees a nonzero denominator there
    def cross(edge):
        i, j = edge
        if edge in (_B, _T):  # along x
            return (_interp(x0, x1, f[i], f[j]), (y0, y0, y1, y1)[i])
        return ((x0, x1, x1, x0)[i], _interp(y0, y1, f[i], f[j]))

    segs = [(cross(e1), cross(e2)) for e1, e2 in pairs]
    # a corner sitting exactly at the level collapses both adjacent
    # crossings onto the corner itself; such zero-length pieces carry no
    # geometry and would break loop stitching
    return [(p1, p2) for p1, p2 in segs if p1 != p2]


def _join_segments(segments) -> List[List[Tuple[float, float]]]:
    """Chain segments sharing endpoints into polylines.

    Shared edges of adjacent cells produce bitwise-identical crossing points,
    so exact tuple equality is the join key.
    """
    unused = set(range(len(segments)))
    by_point = {}
    for i, (p1, p2) in enumerate(segments):
        by_point.setdefault(p1, []).append(i)
        by_point.setdefault(p2, []).append(i)

    def take_from(point):
        for i in by_point.get(point, ()):  # first unused segment at point
            if i in unused:
                unused.discard(i)
                p1, p2 = segments[i]
                return p2 if p1 == point else p1
        return None

    paths = []
    for start in range(len(segments)):
        if start not in unused:
            continue
        unused.discard(start)
        p1, p2 = segments[start]
        chain = [p1, p2]
        while True:  # grow forward
            nxt = take_from(chain[-1])
            if nxt is None:
                break
            chain.append(nxt)
        while True:  # grow backward
            prv = take_from(chain[0])
            if prv is None:
                break
            chain.insert(0, prv)
        paths.append(chain)
    return paths


def extract_contours(grid: DiagramGrid,
                     levels: Sequence[float]) -> List[ContourSet]:
    """Marching-squares level curves; sentinel-touching cells are skipped."""
    vals = grid.values
    wx = grid.omega_axis
    gy = grid.gamma_axis
    # a cell's corners a, b, c, d as (ny - 1, nx - 1) views
    corners = (vals[:-1, :-1], vals[:-1, 1:], vals[1:, 1:], vals[1:, :-1])
    finite = np.logical_and.reduce([np.isfinite(v) for v in corners])
    out = []
    for level in levels:
        level = float(level)
        segments = []
        above = [v - level > 0.0 for v in corners]
        crossed = finite & np.logical_or.reduce(above) \
            & ~np.logical_and.reduce(above)
        for iy, ix in zip(*np.nonzero(crossed)):  # row-major order
            va = vals[iy, ix]
            vb = vals[iy, ix + 1]
            vc = vals[iy + 1, ix + 1]
            vd = vals[iy + 1, ix]
            fa, fb, fc, fd = va - level, vb - level, vc - level, vd - level
            x0, x1 = float(wx[ix]), float(wx[ix + 1])
            y0, y1 = float(gy[iy]), float(gy[iy + 1])

            def center_above(x0=x0, x1=x1, y0=y0, y1=y1, level=level,
                             mean=0.25 * (va + vb + vc + vd)):
                if grid.params is None:
                    return mean > level
                # eval_J is looked up at call time, where a tracer can
                # wrap it; no wave or the curve at the centre: not above
                try:
                    jc = eval_J(grid.params, 0.5 * (x0 + x1),
                                0.5 * (y0 + y1)).j
                except NoStandingWave:
                    return False
                return math.isfinite(jc) and jc > level

            segments.extend(_cell_segments(x0, x1, y0, y1,
                                           fa, fb, fc, fd, center_above))
        paths = tuple(tuple(path) for path in _join_segments(segments))
        out.append(ContourSet(level=level, paths=paths, params=grid.params))
    return out


# -- serialization ------------------------------------------------------------


def format_float(v: float, digits: int = 17) -> str:
    """v to `digits` significant digits, or the literal NaN, +Inf or -Inf."""
    if math.isnan(v):
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return "%.*g" % (digits, v)


def export_grid_csv(grid: DiagramGrid, path: str) -> None:
    """Grid CSV: header gamma\\omega,<w...>; one row per gamma, ascending."""
    with open(path, "w") as fh:
        fh.write("gamma\\omega," +
                 ",".join(format_float(w) for w in grid.omega_axis)
                 + "\n")
        for iy, g in enumerate(grid.gamma_axis):
            row = grid.values[iy]
            fh.write(format_float(g) + ","
                     + ",".join(format_float(v) for v in row) + "\n")


def import_grid_csv(path: str,
                    params: Optional[NonlinearityParams] = None) -> DiagramGrid:
    """Inverse of export_grid_csv; float() accepts the sentinel literals.

    Raises ValueError, naming the path and the line, for an empty file, a
    header with no rows after it, a value float() rejects, and a row whose
    count of values differs from the header's count of omegas.
    """
    with open(path) as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1)
                 if ln.strip()]
    if not lines:
        raise ValueError("grid CSV %r is empty" % path)

    def floats(n, toks):
        try:
            return [float(tok) for tok in toks]
        except ValueError as exc:
            raise ValueError("grid CSV %r, line %d: %s" % (path, n, exc)) \
                from None

    n, header = lines[0]
    omega_axis = np.array(floats(n, header.split(",")[1:]))
    if len(lines) < 2:
        raise ValueError("grid CSV %r has no rows after its header" % path)
    gammas = []
    rows = []
    for n, ln in lines[1:]:
        toks = floats(n, ln.split(","))
        if len(toks) != len(omega_axis) + 1:
            raise ValueError(
                "grid CSV %r, line %d: %d values for %d omegas"
                % (path, n, len(toks) - 1, len(omega_axis)))
        gammas.append(toks[0])
        rows.append(toks[1:])
    return DiagramGrid(params=params, omega_axis=omega_axis,
                       gamma_axis=np.array(gammas),
                       values=np.array(rows, dtype=float))


def _params_dict(params: Optional[NonlinearityParams]):
    if params is None:
        return {}
    return {"p": params.p, "q": params.q, "r": params.r,
            "sign1": params.sign1, "sign3": params.sign3,
            "case": params.case}


def export_contours_json(contours: Sequence[ContourSet], path: str) -> None:
    """One JSON object per level: {"params": ..., "level": c, "paths": ...}."""
    objs = []
    for cs in contours:
        objs.append({
            "params": _params_dict(cs.params),
            "level": cs.level,
            "paths": [[[pt[0], pt[1]] for pt in path] for path in cs.paths],
        })
    payload = objs[0] if len(objs) == 1 else objs
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def import_contours_json(path: str) -> List[ContourSet]:
    """Inverse of export_contours_json; an empty params object gives None."""
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = [payload]
    out = []
    for obj in payload:
        paths = tuple(tuple((float(w), float(g)) for w, g in path)
                      for path in obj["paths"])
        stored = obj.get("params")
        params = (NonlinearityParams(stored["p"], stored["q"], stored["r"],
                                     stored["sign1"], stored["sign3"])
                  if stored else None)
        out.append(ContourSet(level=float(obj["level"]), paths=paths,
                              params=params))
    return out


def export_curve_csv(curve: BoundaryCurve, path: str) -> None:
    """Boundary CSV: columns a,omega_ne,gamma_ne."""
    with open(path, "w") as fh:
        fh.write("a,omega_ne,gamma_ne\n")
        for a, om, ga in curve.samples:
            fh.write("%s,%s,%s\n" % (format_float(a), format_float(om),
                                      format_float(ga)))
