"""Tests for grid sweeps, marching-squares contours, and serialization."""

import json
import math

import numpy as np
import pytest

from tristab import diagram, stability
from tristab import (
    ContourSet,
    DiagramGrid,
    NonlinearityParams,
    NoStandingWave,
    UnsupportedRegime,
    eval_J,
    eval_J_rows,
    export_contours_json,
    export_curve_csv,
    export_grid_csv,
    extract_contours,
    import_contours_json,
    import_grid_csv,
    omega_star,
    sample_curve,
    sweep_grid,
)

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FD357 = NonlinearityParams(3.0, 5.0, 7.0, sign3=-1)
DF357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1)


def synthetic_grid(values, omegas, gammas, params=FF234):
    return DiagramGrid(params=params,
                       omega_axis=np.asarray(omegas, dtype=float),
                       gamma_axis=np.asarray(gammas, dtype=float),
                       values=np.asarray(values, dtype=float))


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_grid(FF234, (0.0, 1.0), (0.0, 1.0), 4, 4)
    with pytest.raises(ValueError):
        sweep_grid(FF234, (1.0, 0.5), (0.0, 1.0), 4, 4)
    with pytest.raises(ValueError):
        sweep_grid(FF234, (0.1, 1.0), (1.0, 1.0), 4, 4)
    with pytest.raises(ValueError):
        sweep_grid(FF234, (0.1, 1.0), (0.0, 1.0), 1, 4)
    with pytest.raises(ValueError):
        sweep_grid(FF234, (0.1, math.inf), (0.0, 1.0), 4, 4)


def test_sweep_grid_values_and_shape():
    grid = sweep_grid(DF357, (0.1, 2.0), (-2.0, 2.0), 6, 5, jobs=1)
    assert grid.values.shape == (5, 6)
    assert grid.omega_axis[0] == 0.1 and grid.omega_axis[-1] == 2.0
    assert grid.gamma_axis[0] == -2.0 and grid.gamma_axis[-1] == 2.0
    # DF: standing waves everywhere, J < 0 everywhere (q = 5)
    assert np.all(np.isfinite(grid.values))
    assert np.all(grid.values < 0.0)
    # spot check one entry against a direct evaluation
    direct = eval_J(DF357, float(grid.omega_axis[2]),
                    float(grid.gamma_axis[3])).j
    assert math.isclose(direct, float(grid.values[3, 2]), rel_tol=1e-12)


def _count_pools(monkeypatch):
    # sweep_grid imports multiprocessing only to start a pool, so the patch
    # goes on the module itself
    import multiprocessing
    pools = []
    real = multiprocessing.Pool

    def counted(*args, **kwargs):
        pools.append(kwargs.get("processes"))
        return real(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counted)
    return pools


def test_sweep_grid_parallel_matches_serial(monkeypatch):
    # 64x9 is three blocks of 4, 4 and 1 rows; any mesh may take the pool
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(diagram, "_POOL_CELLS", 0)
    serial = sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 64, 9, jobs=1)
    assert pools == []
    parallel = sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 64, 9, jobs=2)
    assert pools == [2]
    assert np.array_equal(serial.values, parallel.values)


def test_sweep_grid_in_one_block_starts_no_pool(monkeypatch):
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(diagram, "_POOL_CELLS", 0)
    grid = sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 64, 4, jobs=2)
    assert pools == []
    assert grid.values.shape == (4, 64)


def test_sweep_grid_starts_a_pool_from_the_threshold_on(monkeypatch):
    # a row short of the threshold runs in process; at the threshold the
    # blocks go to a pool of 2 and give the in-process values bit for bit
    pools = _count_pools(monkeypatch)
    ny = diagram._POOL_CELLS // 64
    assert 64 * ny == diagram._POOL_CELLS
    window = (DD357, (0.05, 20.0), (-10.0, -2.2))
    below = sweep_grid(*window, 64, ny - 1, jobs=2)
    assert pools == [] and below.values.shape == (ny - 1, 64)
    at = sweep_grid(*window, 64, ny, jobs=2)
    assert pools == [2]
    serial = sweep_grid(*window, 64, ny, jobs=1)
    assert pools == [2]
    assert at.values.tobytes() == serial.values.tobytes()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_grid_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="jobs"):
        sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 4, 4, jobs=jobs)


def test_sweep_grid_nan_outside_existence():
    # FD: no standing waves for omega >= omega*(gamma)
    grid = sweep_grid(FD357, (0.02, 0.5), (-1.0, 1.0), 25, 5, jobs=1)
    cell = float(grid.omega_axis[1] - grid.omega_axis[0])
    for iy, g in enumerate(grid.gamma_axis):
        ws = omega_star(FD357, float(g))
        for ix, w in enumerate(grid.omega_axis):
            v = grid.values[iy, ix]
            if math.isnan(v):
                assert w > ws - cell
            elif math.isfinite(v):
                assert w < ws + cell


def test_contour_of_linear_field():
    # J = omega - 1: the zero level curve is the vertical line omega = 1
    omegas = np.linspace(0.5, 1.5, 11)
    gammas = np.linspace(-1.0, 1.0, 9)
    vals = np.tile(omegas - 1.0, (9, 1))
    grid = synthetic_grid(vals, omegas, gammas)
    sets = extract_contours(grid, [0.0])
    assert len(sets) == 1
    assert sets[0].level == 0.0
    pts = [pt for path in sets[0].paths for pt in path]
    assert pts
    assert all(abs(w - 1.0) <= 1e-12 for w, _ in pts)
    gs = sorted(g for _, g in pts)
    assert gs[0] == -1.0 and gs[-1] == 1.0
    # one straight polyline, not many fragments
    assert len(sets[0].paths) == 1


def test_contour_levels_nonzero():
    omegas = np.linspace(0.5, 1.5, 11)
    gammas = np.linspace(-1.0, 1.0, 9)
    vals = np.tile(omegas - 1.0, (9, 1))
    grid = synthetic_grid(vals, omegas, gammas)
    sets = extract_contours(grid, [-0.25, 0.3])
    for cs in sets:
        pts = [pt for path in cs.paths for pt in path]
        for w, _ in pts:
            assert abs((w - 1.0) - cs.level) <= 1e-12


def test_constant_grid_has_no_contours():
    grid = synthetic_grid(np.ones((4, 4)), np.linspace(1, 2, 4),
                          np.linspace(0, 1, 4))
    sets = extract_contours(grid, [0.0, 1.0, 2.0])
    for cs in sets:
        assert cs.paths == ()


def test_sentinel_cells_are_skipped():
    omegas = np.linspace(0.5, 1.5, 3)
    gammas = np.linspace(0.0, 1.0, 3)
    vals = np.array([[-1.0, 1.0, 1.0],
                     [-1.0, 1.0, math.nan],
                     [-1.0, 1.0, math.inf]])
    grid = synthetic_grid(vals, omegas, gammas)
    sets = extract_contours(grid, [0.0])
    pts = [pt for path in sets[0].paths for pt in path]
    assert pts
    # crossings only in the left finite column pair
    assert all(omegas[0] <= w <= omegas[1] for w, _ in pts)


def test_circle_field_contour():
    # J = (w-2)^2 + g^2 - 1: zero level curve is the unit circle at (2, 0)
    omegas = np.linspace(0.5, 3.5, 61)
    gammas = np.linspace(-1.5, 1.5, 61)
    W, G = np.meshgrid(omegas, gammas)
    vals = (W - 2.0) ** 2 + G ** 2 - 1.0
    grid = synthetic_grid(vals, omegas, gammas)
    sets = extract_contours(grid, [0.0])
    pts = [pt for path in sets[0].paths for pt in path]
    assert len(pts) > 50
    for w, g in pts:
        rad = math.hypot(w - 2.0, g)
        assert abs(rad - 1.0) <= 0.02
    # the joiner should stitch the loop into one closed path
    assert len(sets[0].paths) == 1
    first, last = sets[0].paths[0][0], sets[0].paths[0][-1]
    assert math.hypot(first[0] - last[0], first[1] - last[1]) <= 0.2


# the segments of one cell [0, 2] x [0, 4] whose corners sit at +-1, read
# off the marching squares written out case by case: bit k of the pattern
# puts corner a, b, c or d (k = 0, 1, 2, 3) above the level, and the saddles
# 5 and 10 hold the pieces for a centre below, then above
_B, _R, _T, _L = (1.0, 0.0), (2.0, 2.0), (1.0, 4.0), (0.0, 2.0)
_CELL_CASES = {
    0: [], 1: [(_L, _B)], 2: [(_B, _R)], 3: [(_L, _R)], 4: [(_R, _T)],
    5: ([(_L, _B), (_R, _T)], [(_L, _T), (_B, _R)]),
    6: [(_B, _T)], 7: [(_L, _T)], 8: [(_L, _T)], 9: [(_B, _T)],
    10: ([(_B, _R), (_T, _L)], [(_B, _L), (_T, _R)]),
    11: [(_R, _T)], 12: [(_L, _R)], 13: [(_B, _R)], 14: [(_L, _B)], 15: [],
}


@pytest.mark.parametrize("pattern", range(16))
def test_cell_segments_of_every_corner_pattern(pattern):
    f = [1.0 if pattern >> k & 1 else -1.0 for k in range(4)]
    asked = []

    def center_above(above):
        asked.append(above)
        return above

    for above in (False, True):
        got = diagram._cell_segments(0.0, 2.0, 0.0, 4.0, *f,
                                     lambda: center_above(above))
        want = _CELL_CASES[pattern]
        want = want[above] if pattern in (5, 10) else want
        assert repr(got) == repr(want)
    # only a saddle asks for the centre
    assert asked == ([False, True] if pattern in (5, 10) else [])


@pytest.mark.parametrize("fc, above, want", [
    (1.0, None, []),
    (-1.0, False, [((0.0, 0.0), (2.0, 2.0)), ((1.0, 4.0), (0.0, 0.0))]),
    (-1.0, True, [((1.0, 4.0), (2.0, 2.0))]),
])
def test_cell_segments_drop_a_piece_of_zero_length(fc, above, want):
    # corner a sits on the level, so it counts as below and its two
    # crossings meet at the corner: patterns 14 and the saddle 10
    got = diagram._cell_segments(0.0, 2.0, 0.0, 4.0, 0.0, 1.0, fc, 1.0,
                                 lambda: above)
    assert repr(got) == repr(want)


def _contours_cell_by_cell(grid, levels):
    """extract_contours as a loop over every cell: the reference for its
    numpy selection of the cells that cross a level."""
    vals, wx, gy = grid.values, grid.omega_axis, grid.gamma_axis
    ny, nx = vals.shape
    out = []
    for level in levels:
        level = float(level)
        segments = []
        for iy in range(ny - 1):
            for ix in range(nx - 1):
                va = vals[iy, ix]
                vb = vals[iy, ix + 1]
                vc = vals[iy + 1, ix + 1]
                vd = vals[iy + 1, ix]
                if not (math.isfinite(va) and math.isfinite(vb)
                        and math.isfinite(vc) and math.isfinite(vd)):
                    continue
                fa, fb, fc, fd = va - level, vb - level, vc - level, vd - level
                if (fa > 0.0) == (fb > 0.0) == (fc > 0.0) == (fd > 0.0):
                    continue
                x0, x1 = float(wx[ix]), float(wx[ix + 1])
                y0, y1 = float(gy[iy]), float(gy[iy + 1])

                def center_above(x0=x0, x1=x1, y0=y0, y1=y1, level=level,
                                 mean=0.25 * (va + vb + vc + vd)):
                    if grid.params is None:
                        return mean > level
                    try:
                        jc = diagram.eval_J(grid.params, 0.5 * (x0 + x1),
                                            0.5 * (y0 + y1)).j
                    except NoStandingWave:
                        return False
                    return math.isfinite(jc) and jc > level

                segments.extend(diagram._cell_segments(
                    x0, x1, y0, y1, fa, fb, fc, fd, center_above))
        paths = tuple(tuple(path) for path in diagram._join_segments(segments))
        out.append(ContourSet(level=level, paths=paths, params=grid.params))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_contours_equal_the_cell_by_cell_loop(seed):
    # corners from a few small integers, so that many sit exactly at a
    # level and many cells are saddles, with NaN and +-Inf among them
    rng = np.random.default_rng(seed)
    ny, nx = rng.integers(2, 14, size=2)
    pool = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.25, 1.0, 1.0, 2.0,
            math.nan, math.inf, -math.inf]
    vals = rng.choice(pool, size=(ny, nx))
    smooth = rng.random((ny, nx)) < 0.3
    vals[smooth] = rng.normal(size=np.count_nonzero(smooth))
    # FF(2,3,4) has a wave at every centre of this window
    params = FF234 if seed % 3 == 0 else None
    grid = synthetic_grid(vals, np.linspace(0.05, 0.5, nx),
                          np.linspace(-1.0, 1.0, ny), params=params)
    levels = [0.0, 1.0, -0.5, 0.25]
    got = extract_contours(grid, levels)
    want = _contours_cell_by_cell(grid, levels)
    assert repr(got) == repr(want)
    assert got == want


def test_contours_of_a_sweep_equal_the_cell_by_cell_loop():
    grid = sweep_grid(FD367, (0.05, 3.0), (-25.0, 2.0), 16, 16, jobs=1)
    assert np.isnan(grid.values).any()
    got = extract_contours(grid, [0.0, 0.5])
    assert got[0].paths
    assert repr(got) == repr(_contours_cell_by_cell(grid, [0.0, 0.5]))


def test_contour_consistency_on_real_grid():
    grid = sweep_grid(FF234, (0.2, 1.2), (-1.0, 1.0), 25, 13, jobs=1)
    sets = extract_contours(grid, [2.0])
    pts = [pt for path in sets[0].paths for pt in path]
    assert pts
    rng = np.random.default_rng(20260819)
    pick = rng.choice(len(pts), size=min(8, len(pts)), replace=False)
    for idx in pick:
        w, g = pts[int(idx)]
        got = eval_J(FF234, w, g).j
        # the crossing comes from linear interpolation, so allow a
        # second-order residual relative to the local field scale
        assert abs(got - 2.0) <= 0.05 * (1.0 + abs(got))


def test_grid_csv_round_trip(tmp_path):
    omegas = np.linspace(0.5, 1.5, 4)
    gammas = np.linspace(-1.0, 1.0, 3)
    vals = np.array([[0.1, -2.0, math.nan, 1e-300],
                     [math.inf, -math.inf, 3.0, 4.0],
                     [1.0 / 3.0, math.pi, -1e222, 5e-17]])
    grid = synthetic_grid(vals, omegas, gammas)
    path = str(tmp_path / "grid.csv")
    export_grid_csv(grid, path)
    back = import_grid_csv(path, params=FF234)
    assert np.array_equal(back.values, grid.values, equal_nan=True)
    assert np.array_equal(back.omega_axis, grid.omega_axis)
    assert np.array_equal(back.gamma_axis, grid.gamma_axis)
    assert back.params == FF234
    assert import_grid_csv(path).params is None


def test_saddle_of_a_grid_without_params_reads_the_corner_mean(tmp_path):
    # a grid read back without params has no J to evaluate at a saddle's
    # centre; the mean of the four corners, here 0, decides it
    path = tmp_path / "saddle.csv"
    path.write_text("gamma\\omega,0.1,0.2\n0,1,-1\n1,-1,1\n")
    grid = import_grid_csv(str(path))
    assert grid.params is None
    (cs,) = extract_contours(grid, [0.0])
    assert cs.params is None
    assert sorted(cs.paths) == [((0.1, 0.5), (0.15000000000000002, 0.0)),
                                ((0.2, 0.5), (0.15000000000000002, 1.0))]
    # below the mean the centre reads above the level: left joins top
    (cs,) = extract_contours(grid, [-0.5])
    assert sorted(cs.paths) == [((0.1, 0.75), (0.125, 1.0)),
                                ((0.17500000000000002, 0.0), (0.2, 0.25))]


FD367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)


def _joined_edges(grid):
    """The pairs of cell edges that the level-0 paths of a one-cell grid
    join, sorted."""
    (w0, w1), (g0, g1) = grid.omega_axis, grid.gamma_axis

    def edge(point):
        w, g = point
        if w == w0:
            return "left"
        if w == w1:
            return "right"
        return "bottom" if g == g0 else "top"

    (cs,) = extract_contours(grid, [0.0])
    return sorted(tuple(sorted((edge(path[0]), edge(path[-1]))))
                  for path in cs.paths)


ABOVE = [("bottom", "right"), ("left", "top")]
NOT_ABOVE = [("bottom", "left"), ("right", "top")]


@pytest.mark.parametrize("omegas, gammas, values, expect", [
    # J(0.1, 0) = 7.50 above a corner mean of -1
    pytest.param((0.05, 0.15), (-1.0, 1.0), [[1.0, -3.0], [-3.0, 1.0]],
                 ABOVE, id="positive-centre"),
    # J(0.5, -10) = -0.028 below a corner mean of 1
    pytest.param((0.45, 0.55), (-11.0, -9.0), [[3.0, -1.0], [-1.0, 3.0]],
                 NOT_ABOVE, id="negative-centre"),
])
def test_saddle_with_params_reads_eval_j_at_the_centre(monkeypatch, omegas,
                                                       gammas, values,
                                                       expect):
    grid = synthetic_grid(values, omegas, gammas, params=FD367)
    centres = []

    def recorded(params, omega, gamma):
        centres.append((params, omega, gamma))
        return eval_J(params, omega, gamma)

    # looked up in diagram at call time, where a tracer can wrap it
    monkeypatch.setattr(diagram, "eval_J", recorded)
    assert _joined_edges(grid) == expect
    assert centres == [(FD367, 0.5 * sum(omegas), 0.5 * sum(gammas))]
    # the corner mean alone joins them the other way
    no_params = synthetic_grid(values, omegas, gammas, params=None)
    assert _joined_edges(no_params) == (NOT_ABOVE if expect == ABOVE
                                        else ABOVE)


def test_saddle_with_no_wave_at_the_centre_reads_not_above():
    # FD(3,6,7) has no wave at (5, 0): the centre is not above the level,
    # though the corner mean, 1, is
    with pytest.raises(NoStandingWave):
        eval_J(FD367, 5.0, 0.0)
    values = [[3.0, -1.0], [-1.0, 3.0]]
    grid = synthetic_grid(values, (4.0, 6.0), (-1.0, 1.0), params=FD367)
    assert _joined_edges(grid) == NOT_ABOVE
    no_params = synthetic_grid(values, (4.0, 6.0), (-1.0, 1.0), params=None)
    assert _joined_edges(no_params) == ABOVE


def test_contour_paths_hold_python_floats(tmp_path):
    # the interpolated coordinate was a numpy scalar; the JSON is unchanged
    path = tmp_path / "saddle.csv"
    path.write_text("gamma\\omega,0.1,0.2\n0,1,-1\n1,-1,1\n")
    sets = extract_contours(import_grid_csv(str(path)), [0.0, -0.5])
    assert all(type(x) is float
               for cs in sets for seg in cs.paths for pt in seg for x in pt)
    out = tmp_path / "contours.json"
    export_contours_json(sets, str(out))
    assert out.read_text() == (
        '[{"params": {}, "level": 0.0, "paths": '
        '[[[0.1, 0.5], [0.15000000000000002, 0.0]], '
        '[[0.2, 0.5], [0.15000000000000002, 1.0]]]}, '
        '{"params": {}, "level": -0.5, "paths": '
        '[[[0.1, 0.75], [0.125, 1.0]], '
        '[[0.17500000000000002, 0.0], [0.2, 0.25]]]}]\n')


@pytest.mark.parametrize("text, where", [
    ("gamma\\omega,0.1,0.2,0.3\n0,1,2\n1,3,4\n", "line 2"),
    ("gamma\\omega,0.1,0.2\n", "no rows"),
    ("", "empty"),
    ("gamma\\omega,0.1\n0,1\n\n1,x\n", "line 4"),
], ids=["short-rows", "header-only", "empty", "not-a-float"])
def test_import_grid_csv_rejects_a_malformed_file(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        import_grid_csv(str(path))
    assert str(path) in str(info.value) and where in str(info.value)


def test_grid_csv_header_format(tmp_path):
    grid = synthetic_grid(np.zeros((2, 2)), [0.5, 1.0], [0.0, 1.0])
    path = str(tmp_path / "grid.csv")
    export_grid_csv(grid, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header.startswith("gamma\\omega,")


def test_contour_json_round_trip(tmp_path):
    cs = extract_contours(
        synthetic_grid(np.tile(np.linspace(-1, 1, 5), (4, 1)),
                       np.linspace(1, 2, 5), np.linspace(0, 1, 4)),
        [0.0])[0]
    path = str(tmp_path / "contours.json")
    export_contours_json([cs], path)
    with open(path) as fh:
        payload = json.load(fh)
    assert isinstance(payload, dict)  # single set -> single object
    assert payload["level"] == 0.0
    assert payload["params"]["case"] == "FF"
    back = import_contours_json(path)
    assert len(back) == 1
    assert back[0].paths == cs.paths
    assert back[0].level == cs.level



def test_contour_json_round_trip_keeps_params(tmp_path):
    grid = synthetic_grid(np.tile(np.linspace(-1, 1, 5), (4, 1)),
                          np.linspace(1, 2, 5), np.linspace(0, 1, 4),
                          params=FD357)
    cs = extract_contours(grid, [0.0])[0]
    path = str(tmp_path / "contours.json")
    export_contours_json([cs, ContourSet(level=1.0, paths=())], path)
    back = import_contours_json(path)
    assert back[0].params == FD357
    assert back[1].params is None  # written as {}

def test_contour_json_multiple_sets(tmp_path):
    grid = synthetic_grid(np.tile(np.linspace(-1, 1, 5), (4, 1)),
                          np.linspace(1, 2, 5), np.linspace(0, 1, 4))
    sets = extract_contours(grid, [-0.5, 0.0, 0.5])
    path = str(tmp_path / "contours.json")
    export_contours_json(sets, path)
    with open(path) as fh:
        payload = json.load(fh)
    assert isinstance(payload, list) and len(payload) == 3
    back = import_contours_json(path)
    assert [cs.level for cs in back] == [-0.5, 0.0, 0.5]
    for orig, loaded in zip(sets, back):
        assert loaded.paths == orig.paths


def test_empty_contours_serialize(tmp_path):
    grid = synthetic_grid(np.ones((3, 3)), np.linspace(1, 2, 3),
                          np.linspace(0, 1, 3))
    sets = extract_contours(grid, [0.0])
    path = str(tmp_path / "empty.json")
    export_contours_json(sets, path)
    back = import_contours_json(path)
    assert back[0].paths == ()


def test_export_curve_csv(tmp_path):
    curve = sample_curve(FF234, n=17)
    path = str(tmp_path / "curve.csv")
    export_curve_csv(curve, path)
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines[0] == "a,omega_ne,gamma_ne"
    assert len(lines) == 18
    a, om, ga = (float(tok) for tok in lines[1].split(","))
    assert a > 0.0 and om > 0.0


def test_export_errors_are_reported(tmp_path):
    grid = synthetic_grid(np.zeros((2, 2)), [0.5, 1.0], [0.0, 1.0])
    bad = str(tmp_path / "missing" / "out")
    for export, subject in ((export_grid_csv, grid),
                            (export_contours_json,
                             extract_contours(grid, [0.0])),
                            (export_curve_csv, sample_curve(FF234, n=3))):
        with pytest.raises(OSError) as exc:
            export(subject, bad)
        assert bad in str(exc.value)


FD367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)


def _scalar_grid(params, grid):
    expect = np.empty_like(grid.values)
    for iy, g in enumerate(grid.gamma_axis):
        for ix, w in enumerate(grid.omega_axis):
            try:
                expect[iy, ix] = eval_J(params, float(w), float(g)).j
            except NoStandingWave:
                expect[iy, ix] = math.nan
    return expect


def _kinds(values):
    """Whether values hold NaN, sentinel, finite J > 0 and J < 0 cells."""
    finite = values[np.isfinite(values)]
    return (bool(np.isnan(values).any()), bool(np.isinf(values).any()),
            bool((finite > 0).any()), bool((finite < 0).any()))


def _on_curve(params, omega_lo, gamma_range, ny, row):
    """An omega range ending on the curve at gamma row `row` of the mesh,
    so that its last cell in that row is a sentinel."""
    gamma = float(np.linspace(gamma_range[0], gamma_range[1], ny)[row])
    return (omega_lo, omega_star(params, gamma))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("params, omega_range, gamma_range, nx, ny, kinds", [
    # kinds: whether the window holds (NaN, sentinel, J > 0, J < 0) cells;
    # FF and DF waves exist off the curve everywhere, DF has no curve and
    # J < 0 throughout.  7x6 fits in one block of rows; 40x20 spans three
    pytest.param(FD367, (0.05, 3.0), (-25.0, 2.0), 7, 6,
                 (True, False, True, True), id="FD367"),
    pytest.param(FF234, (0.02, 0.6), (0.0, 8.0), 7, 6,
                 (False, False, True, True), id="FF234"),
    pytest.param(DD357, (0.05, 20.0), (-10.0, 2.0), 7, 6,
                 (True, False, True, True), id="DD357"),
    pytest.param(DF357, (0.05, 10.0), (-5.0, 5.0), 7, 6,
                 (False, False, False, True), id="DF357"),
    pytest.param(FD367, _on_curve(FD367, 0.05, (-25.0, 2.0), 20, 16),
                 (-25.0, 2.0), 40, 20, (True, True, True, True),
                 id="FD367-blocks"),
    pytest.param(FF234, _on_curve(FF234, 0.02, (2.0, 8.0), 20, 0),
                 (2.0, 8.0), 40, 20, (False, True, True, True),
                 id="FF234-blocks"),
    pytest.param(DD357, _on_curve(DD357, 0.05, (-10.0, 2.0), 20, 0),
                 (-10.0, 2.0), 40, 20, (True, True, True, True),
                 id="DD357-blocks"),
    pytest.param(DF357, (0.05, 10.0), (-5.0, 5.0), 40, 20,
                 (False, False, False, True), id="DF357-blocks"),
])
def test_sweep_cells_repeat_scalar_eval_j_bit_for_bit(
        monkeypatch, jobs, params, omega_range, gamma_range, nx, ny, kinds):
    # at jobs=2 every mesh of more than one block takes the pool
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(diagram, "_POOL_CELLS", 0)
    grid = sweep_grid(params, omega_range, gamma_range, nx, ny, jobs=jobs)
    assert pools == ([2] if jobs == 2 and nx == 40 else [])
    expect = _scalar_grid(params, grid)
    assert _kinds(expect) == kinds
    assert grid.values.tobytes() == expect.tobytes()


def test_sweep_row_wider_than_a_block_repeats_scalar_eval_j(monkeypatch):
    # 300 cells a row: every row is a block of its own, mapped by the pool
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(diagram, "_POOL_CELLS", 0)
    omega_range = _on_curve(DD357, 0.05, (-10.0, 2.0), 3, 0)
    grid = sweep_grid(DD357, omega_range, (-10.0, 2.0), 300, 3, jobs=2)
    assert pools == [2]
    expect = _scalar_grid(DD357, grid)
    assert _kinds(expect) == (True, True, True, True)
    assert grid.values.tobytes() == expect.tobytes()


def test_sweep_gives_nan_where_the_amplitude_is_beyond_the_float_range():
    # at gamma = 6 and 8, F1's terms overflow before the crossing: scalar
    # eval_J raises, the sweep gives those cells NaN and keeps the rest
    params = NonlinearityParams(3.0, 5.0, 5.01)
    grid = sweep_grid(params, (0.05, 0.2), (0.0, 8.0), 3, 5, jobs=1)
    assert list(grid.gamma_axis) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert np.isnan(grid.values[3:]).all()
    for g in grid.gamma_axis[3:]:
        with pytest.raises(UnsupportedRegime):
            eval_J(params, float(grid.omega_axis[0]), float(g))
    expect = [[eval_J(params, float(w), float(g)).j
               for w in grid.omega_axis] for g in grid.gamma_axis[:3]]
    assert grid.values[:3].tobytes() == np.array(expect).tobytes()


def test_eval_j_row_mixes_values_nan_and_sentinels():
    gamma = 1.0
    ws = omega_star(FD367, gamma)
    row = eval_J_rows(FD367, [0.5 * ws, 1.5 * ws, ws], [gamma])[0]
    assert [sv.method for sv in row] == ["transformed"] * 3
    inner = eval_J(FD367, 0.5 * ws, gamma)
    assert (row[0].j, row[0].abs_error, row[0].converged) == \
        (inner.j, inner.abs_error, inner.converged)
    with pytest.raises(NoStandingWave):
        eval_J(FD367, 1.5 * ws, gamma)
    assert math.isnan(row[1].j) and not row[1].diverging
    assert row[2] == eval_J(FD367, ws, gamma)
    assert row[2].diverging and row[2].j == math.inf


def test_sweep_builds_no_value_object_and_solves_each_cell_once(monkeypatch):
    # a sweep keeps j alone: its block reads the j column of the batch, so
    # no cell builds a StabilityValue, and each cell's amplitude comes from
    # one call of stability.find_a, the name a tracer wraps
    built, solved = [], []
    value, find_a = stability.StabilityValue, stability.find_a

    def counted_value(*args, **kwargs):
        built.append(args)
        return value(*args, **kwargs)

    def counted_find_a(*args):
        solved.append(args)
        return find_a(*args)

    monkeypatch.setattr(stability, "StabilityValue", counted_value)
    monkeypatch.setattr(stability, "find_a", counted_find_a)
    grid = sweep_grid(FD367, (0.05, 3.0), (-25.0, 2.0), 16, 16, jobs=1)
    assert built == []
    assert sorted(solved) == sorted(
        (FD367, float(w), float(g))
        for g in grid.gamma_axis for w in grid.omega_axis)
    monkeypatch.undo()
    expect = _scalar_grid(FD367, grid)
    assert _kinds(expect)[0] and np.isfinite(expect).any()
    assert grid.values.tobytes() == expect.tobytes()
