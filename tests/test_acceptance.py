"""Acceptance gate: one numbered criterion per test, one line of output each.

Run with `pytest -v -s tests/test_acceptance.py`.  Every test prints a
single PASS line on success (an assertion failure is the FAIL line) and
enforces its stated runtime budget where one applies.  Criteria 1-9 live in
`tristab.verify`, which `tristab verify` runs too; each fixes its own seeds,
counts, point sets and bounds.  Their checks are self-contained: closed
forms are compared against independent arithmetic and against the
defining-integral quadrature oracles in `tristab.verify`, not against
`special.py`'s own formulas.
"""

import math
import time

import numpy as np

from tristab import (
    NonlinearityParams,
    endpoints,
    extract_contours,
    sweep_grid,
)
from tristab import verify

FF234 = NonlinearityParams(2.0, 3.0, 4.0)
FD367 = NonlinearityParams(3.0, 6.0, 7.0, sign3=-1)
DD357 = NonlinearityParams(3.0, 5.0, 7.0, sign1=-1, sign3=-1)


def _report(num: int, detail: str, elapsed: float, limit=None) -> None:
    if limit is not None:
        assert elapsed < limit, (
            "criterion %d exceeded its %.0f s budget: %.1f s"
            % (num, limit, elapsed))
    print("PASS criterion %2d: %s [%.2f s]" % (num, detail, elapsed))


def _criterion(num: int, criterion, detail: str, limit=None) -> None:
    """Run one criterion, assert that every check passed, report."""
    t0 = time.perf_counter()
    checks = criterion()
    elapsed = time.perf_counter() - t0
    failed = ["%s: %s" % (c.name, c.detail) for c in checks if not c.ok]
    assert checks and not failed, failed
    _report(num, detail, elapsed, limit)


def test_criterion_01_closed_form_boundary_constants():
    _criterion(1, verify.criterion_01,
               "closed-form curve constants, FF(2,3,4) and DD(3,4,7)",
               limit=1.0)


def test_criterion_02_curve_consistency():
    _criterion(2, verify.criterion_02,
               "degenerate double zero at 200 curve samples per case",
               limit=1.0)


def test_criterion_03_three_method_agreement():
    _criterion(3, verify.criterion_03,
               "transformed vs raw (1e-4) vs mass-derivative (1e-3), "
               "25 interior points x 4 cases", limit=30.0)


def test_criterion_04_special_function_identities():
    _criterion(4, verify.criterion_04,
               "Beta-combination, two-power constant, derivative bracket",
               limit=10.0)


def test_criterion_05_regionwide_sign_checks():
    _criterion(5, verify.criterion_05,
               "FD(3,5,7) all positive, DF(3,5,7) all negative, "
               "omega->0 signs for both DF families", limit=60.0)


def test_criterion_06_blowup_at_curve():
    _criterion(6, verify.criterion_06,
               "J -> +inf from lower-left, -inf from upper-right of the "
               "curve at a = 0.3")


def test_criterion_07_asymptotic_rates():
    _criterion(7, verify.criterion_07,
               "log-log slopes 1/4 (omega->0, p=2) and -7/2 (omega->inf, "
               "r=7) within 10%")


def test_criterion_08_rule_of_signs():
    _criterion(8, verify.criterion_08,
               "sampled positive-root count within the sign-change bound, "
               "1000 generalized polynomials")


def test_criterion_09_amplitude_monotonicity():
    _criterion(9, verify.criterion_09,
               "amplitude ordering in omega and gamma, 1000 random draws")


def test_criterion_10_diagram_reproduction():
    t0 = time.perf_counter()
    # FF(2,3,4): the zero level curve emanates from the curve endpoint
    grid = sweep_grid(FF234, (0.02, 0.6), (0.0, 8.0), 200, 200)
    cs = extract_contours(grid, [0.0])[0]
    assert cs.paths
    we = 2.0 * math.sqrt(5.0) / 27.0
    ge = 4.0 / math.sqrt(5.0)
    mind = min(math.hypot(w - we, ga - ge)
               for path in cs.paths for (w, ga) in path)
    assert mind <= 0.1
    # FD(3,6,7): both signs present, negative cells only far down in gamma
    grid = sweep_grid(FD367, (0.05, 3.0), (-25.0, 2.0), 200, 200)
    finite = np.isfinite(grid.values)
    pos = finite & (grid.values > 0.0)
    neg = finite & (grid.values < 0.0)
    assert pos.any() and neg.any()
    assert grid.gamma_axis[np.where(neg)[0]].max() <= -3.0
    # DD(3,5,7): the zero level curve emanates near the existence onset
    # (omega -> 0, gamma -> gamma1) and, as gamma decreases away from it,
    # moves monotonically away from the gamma axis - it never turns back
    _, gamma1, _ = endpoints(DD357)
    grid = sweep_grid(DD357, (0.05, 20.0), (-10.0, gamma1 - 0.05), 200, 200)
    cs = extract_contours(grid, [0.0])[0]
    assert cs.paths
    cell_w = (20.0 - 0.05) / 199.0
    reach = 0.0
    for path in cs.paths:
        arr = np.asarray(path)
        order = np.argsort(-arr[:, 1])       # walk from the onset downwards
        w_sorted = arr[order, 0]
        run_max = np.maximum.accumulate(w_sorted)
        assert float(np.max(run_max - w_sorted)) <= 2.0 * cell_w
        reach = max(reach, float(w_sorted[-1]))
    assert reach > 1.0
    _report(10, "FF endpoint emanation, FD sign split, DD curve staying "
                "off the gamma axis, 200x200 grids",
            time.perf_counter() - t0, limit=300.0)
