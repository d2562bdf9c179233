"""Tests for grid sweeps, marching-squares contours, and serialization."""

import json
import math

import numpy as np
import pytest

from tristab import diagram
from tristab import (
    ContourSet,
    DiagramGrid,
    NonlinearityParams,
    NoStandingWave,
    eval_J,
    eval_J_row,
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
    pools = []
    real = diagram.multiprocessing.Pool

    def counted(*args, **kwargs):
        pools.append(kwargs.get("processes"))
        return real(*args, **kwargs)

    monkeypatch.setattr(diagram.multiprocessing, "Pool", counted)
    return pools


def test_sweep_grid_parallel_matches_serial(monkeypatch):
    # 64x9 is three blocks of 4, 4 and 1 rows
    pools = _count_pools(monkeypatch)
    serial = sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 64, 9, jobs=1)
    assert pools == []
    parallel = sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 64, 9, jobs=2)
    assert pools == [2]
    assert np.array_equal(serial.values, parallel.values)


def test_sweep_grid_in_one_block_starts_no_pool(monkeypatch):
    pools = _count_pools(monkeypatch)
    grid = sweep_grid(DF357, (0.1, 1.0), (-1.0, 1.0), 64, 4, jobs=2)
    assert pools == []
    assert grid.values.shape == (4, 64)


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
    bad = str(tmp_path / "missing" / "grid.csv")
    with pytest.raises(OSError):
        export_grid_csv(grid, bad)


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
        jobs, params, omega_range, gamma_range, nx, ny, kinds):
    grid = sweep_grid(params, omega_range, gamma_range, nx, ny, jobs=jobs)
    expect = _scalar_grid(params, grid)
    assert _kinds(expect) == kinds
    assert grid.values.tobytes() == expect.tobytes()


def test_sweep_row_wider_than_a_block_repeats_scalar_eval_j():
    # 300 cells a row: every row is a block of its own, mapped by the pool
    omega_range = _on_curve(DD357, 0.05, (-10.0, 2.0), 3, 0)
    grid = sweep_grid(DD357, omega_range, (-10.0, 2.0), 300, 3, jobs=2)
    expect = _scalar_grid(DD357, grid)
    assert _kinds(expect) == (True, True, True, True)
    assert grid.values.tobytes() == expect.tobytes()


def test_eval_j_row_mixes_values_nan_and_sentinels():
    gamma = 1.0
    ws = omega_star(FD367, gamma)
    row = eval_J_row(FD367, [0.5 * ws, 1.5 * ws, ws], gamma)
    assert [sv.method for sv in row] == ["transformed"] * 3
    inner = eval_J(FD367, 0.5 * ws, gamma)
    assert (row[0].j, row[0].abs_error, row[0].converged) == \
        (inner.j, inner.abs_error, inner.converged)
    with pytest.raises(NoStandingWave):
        eval_J(FD367, 1.5 * ws, gamma)
    assert math.isnan(row[1].j) and not row[1].diverging
    assert row[2] == eval_J(FD367, ws, gamma)
    assert row[2].diverging and row[2].j == math.inf
