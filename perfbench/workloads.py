"""The four workloads: inputs from the seed, the timed operation, the checks.

Each workload runs whole operations of one fixed kind, so the share of
failed operations does not depend on the seed or on the run length:

* ``ff_diagram``   one FF(2,3,4) diagram (24x24 sweep, jobs=1, + level 0);
* ``fd_diagram``   one FD(3,6,7) diagram (32x32 sweep, jobs=1, + level 0);
* ``point_checks`` one round over the fixed reference points, every point
                   by all three J methods and every J0 point by eval_J0;
* ``cli_diagram``  one ``tristab diagram`` process for DD(3,5,7) at
                   40x40 with its default process pool.

The seed picks the diagram cells compared with the oracle, the point order
of every round and the CLI rows re-swept in-process.  Nothing that is timed
depends on it beyond that order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

from closedform import curve_a_range, curve_point, wave_exists
from points import DD357, FD367, FF234, reference_points
from timing import KERNEL_PROBE, PROCESS_PROBE, SEGMENT_S

ORACLE_CELLS = 6          # sampled diagram cells checked against the oracle
ORACLE_DPS = 25


def _grids_equal(a, b):
    return (a.shape == b.shape
            and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b)))))


class Result:
    """What a workload hands back to the runner after its checks."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def require(self, ok, message):
        if not ok:
            self.correct = False
            self.notes.append("CHECK FAILED: " + message)


# -- in-process diagrams -------------------------------------------------------


class DiagramWorkload:
    """sweep_grid(jobs=1) plus extract_contours(level 0) on a fixed window."""

    case = None
    omega_range = gamma_range = None
    n = 0
    segment_s = SEGMENT_S
    probe = KERNEL_PROBE

    def __init__(self, tristab, seed, out_dir, root):
        self.tristab = tristab
        self.params = tristab.NonlinearityParams(*self.case)
        self.rng = random.Random(seed)
        self.first = None
        self.same = True
        self.units = self.n * self.n

    def op(self):
        diagram = self.tristab.diagram
        grid = diagram.sweep_grid(self.params, self.omega_range,
                                  self.gamma_range, self.n, self.n, jobs=1)
        contours = diagram.extract_contours(grid, [0.0])
        return grid, contours

    def record(self, output):
        if self.first is None:      # keep the first; later ones repeat it
            self.first = output
            return
        grid, contours = output
        self.same = self.same and (
            _grids_equal(self.first[0].values, grid.values)
            and self.first[1][0].paths == contours[0].paths)

    def check(self, n_ops):
        res = Result()
        res.attempted = n_ops * self.units
        grid, contours = self.first
        res.require(self.same,
                    "repeated diagrams differ from the first")
        self.check_properties(grid, contours[0], res)
        self.check_oracle_cells(grid, res)
        return res

    def check_oracle_cells(self, grid, res):
        import oracle
        vals = grid.values
        finite = [(iy, ix) for iy in range(vals.shape[0])
                  for ix in range(vals.shape[1]) if math.isfinite(vals[iy, ix])]
        for iy, ix in self.rng.sample(finite, ORACLE_CELLS):
            w, g = float(grid.omega_axis[ix]), float(grid.gamma_axis[iy])
            sv = self.tristab.stability.eval_J(self.params, w, g)
            oj, oerr = oracle.j_value(*self.case, w, g, dps=ORACLE_DPS)
            res.require(sv.j == vals[iy, ix],
                        "cell (%r, %r) does not repeat eval_J" % (w, g))
            res.require(abs(sv.j - oj) <= sv.abs_error + oerr
                        + 4e-16 * abs(oj),
                        "cell (%r, %r): J %r +- %r, oracle %r +- %r"
                        % (w, g, float(sv.j), sv.abs_error, oj, oerr))
        res.notes.append("%d sampled cells checked against the oracle"
                         % ORACLE_CELLS)

    def check_existence(self, grid, res):
        """NaN cells match the closed-form curve, except within one grid
        step of it."""
        wx, gy, vals = grid.omega_axis, grid.gamma_axis, grid.values
        exists = np.array([[wave_exists(*self.case, float(w), float(g))
                            for w in wx] for g in gy])
        ny, nx = exists.shape
        bad = 0
        for iy in range(ny):
            for ix in range(nx):
                nb = exists[max(iy - 1, 0):iy + 2, max(ix - 1, 0):ix + 2]
                if nb.all() or not nb.any():
                    if exists[iy, ix] == math.isnan(vals[iy, ix]):
                        bad += 1
        res.require(bad == 0, "%d cells disagree with the closed-form "
                    "existence region" % bad)


class FFDiagram(DiagramWorkload):
    case = FF234
    omega_range = (0.02, 0.6)
    gamma_range = (0.0, 8.0)
    n = 24

    def check_properties(self, grid, cs, res):
        res.require(not np.isnan(grid.values).any(), "NaN cell in FF grid")
        we, ge = 2.0 * math.sqrt(5.0) / 27.0, 4.0 / math.sqrt(5.0)
        mind = min((math.hypot(w - we, g - ge) for path in cs.paths
                    for (w, g) in path), default=math.inf)
        res.require(mind <= 0.1, "zero contour misses the endpoint "
                    "(2 sqrt5/27, 4/sqrt5) by %.3g" % mind)


class FDDiagram(DiagramWorkload):
    case = FD367
    omega_range = (0.05, 3.0)
    gamma_range = (-25.0, 2.0)
    n = 32

    def check_properties(self, grid, cs, res):
        v = grid.values
        fin = np.isfinite(v)
        pos, neg = fin & (v > 0.0), fin & (v < 0.0)
        res.require(pos.any() and neg.any(), "FD grid lacks a sign")
        if neg.any():
            top = float(grid.gamma_axis[np.where(neg)[0]].max())
            res.require(top <= -3.0, "negative cell at gamma %g > -3" % top)
        self.check_existence(grid, res)


# -- the CLI in its own process ----------------------------------------------


class CLIDiagram(DiagramWorkload):
    """One `tristab diagram` process; default --jobs, so a pool of nproc."""

    case = DD357
    n = 40
    # the work runs in other processes, on every core: each call is
    # bracketed by a probe process of the same shape instead
    segment_s = None
    probe = PROCESS_PROBE

    def __init__(self, tristab, seed, out_dir, root):
        super().__init__(tristab, seed, out_dir, root)
        a_b = curve_a_range(*self.case)[0]
        self.gamma1 = curve_point(*self.case, a_b)[1]
        self.omega_range = (0.05, 20.0)
        self.gamma_range = (-10.0, self.gamma1 - 0.05)
        self.grid_path = os.path.join(out_dir, "cli_grid.csv")
        self.contour_path = os.path.join(out_dir, "cli_contours.json")
        self.log_path = os.path.join(out_dir, "cli_stdout.txt")
        self.root = root
        self.argv = ["diagram", "--p", "3", "--q", "5", "--r", "7",
                     "--s1", "d", "--s3", "d",
                     "--omega-min", repr(self.omega_range[0]),
                     "--omega-max", repr(self.omega_range[1]),
                     "--gamma-min", repr(self.gamma_range[0]),
                     "--gamma-max", repr(self.gamma_range[1]),
                     "--nx", str(self.n), "--ny", str(self.n), "--levels", "0",
                     "--out-grid", self.grid_path,
                     "--out-contours", self.contour_path, "--no-timing"]
        self.child_rss_kb = 0
        self.digests = set()

    def op(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        with open(self.log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "tristab.cli"] + self.argv,
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def op_in_process(self, jobs):
        """The same invocation through tristab.cli.main, for the traced run."""
        argv = list(self.argv)
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.tristab.cli.main(argv)

    def record(self, code):
        digest = None
        if code == 0:
            with open(self.grid_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        self.digests.add(digest)

    def check(self, n_ops):
        res = Result()
        res.attempted = n_ops * self.units
        res.require(None not in self.digests, "tristab diagram exited "
                    "with an error; see %s" % self.log_path)
        res.require(len(self.digests) == 1, "grid CSV differs between runs")
        if not res.correct:
            return res
        diagram = self.tristab.diagram
        grid = diagram.import_grid_csv(self.grid_path, self.params)
        cs = diagram.import_contours_json(self.contour_path)[0]
        self.check_contour(grid, cs, res)
        self.check_existence(grid, res)
        # an in-process jobs=1 sweep of a seeded pair of rows, bit for bit
        iy = self.rng.randrange(self.n - 1)
        g_lo, g_hi = float(grid.gamma_axis[iy]), float(grid.gamma_axis[iy + 1])
        ref = diagram.sweep_grid(self.params, self.omega_range, (g_lo, g_hi),
                                 self.n, 2, jobs=1)
        res.require(np.array_equal(ref.omega_axis, grid.omega_axis),
                    "omega axis differs from the CSV")
        res.require(_grids_equal(ref.values, grid.values[iy:iy + 2]),
                    "CSV rows %d-%d differ from an in-process sweep"
                    % (iy, iy + 1))
        res.notes.append("CSV rows %d-%d re-swept in process" % (iy, iy + 1))
        return res

    def check_contour(self, grid, cs, res):
        res.require(bool(cs.paths), "no zero contour")
        cell_w = (self.omega_range[1] - self.omega_range[0]) / (self.n - 1)
        reach = 0.0
        for path in cs.paths:
            arr = np.asarray(path)
            w_sorted = arr[np.argsort(-arr[:, 1]), 0]
            back = float(np.max(np.maximum.accumulate(w_sorted) - w_sorted))
            res.require(back <= 2.0 * cell_w,
                        "zero contour turns back towards the gamma axis")
            reach = max(reach, float(w_sorted[-1]))
        res.require(reach > 1.0, "zero contour reaches only omega %g" % reach)


# -- reference points ----------------------------------------------------------


METHODS = (("transformed", "eval_J"), ("raw", "eval_J_raw"),
           ("mass_fd", "eval_J_mass_fd"))


def _load_reference(root):
    path = os.path.join(root, "perfbench", "reference_points.json")
    with open(path) as fh:
        stored = json.load(fh)["points"]
    keys = ("name", "p", "q", "r", "s1", "s3", "omega", "gamma", "expect")
    fresh = reference_points()
    if [[p[k] for k in keys] for p in stored] != \
            [[p[k] for k in keys] for p in fresh]:
        raise SystemExit("reference_points.json is stale: run "
                         "python3 perfbench/oracle.py")
    return stored


class PointChecks:
    """One round = every reference point, in a seeded order."""

    # segments are closed between points, and inside a query only once it
    # has run SEGMENT_S / 2: a burst inside a query of a few milliseconds
    # would disturb the time being taken
    segment_s = SEGMENT_S
    probe = KERNEL_PROBE
    clock = None

    def __init__(self, tristab, seed, out_dir, root):
        self.tristab = tristab
        self.points = _load_reference(root)
        order = list(range(len(self.points)))
        random.Random(seed).shuffle(order)
        self.order = order
        self.params = [tristab.NonlinearityParams(p["p"], p["q"], p["r"],
                                                  p["s1"], p["s3"])
                       for p in self.points]
        self.units = sum(1 if p["expect"] == "j0" else 3 for p in self.points)
        self.outcomes = None
        self.same = True
        self.query_times = []     # per round: [(is_j0, start, end)]

    @staticmethod
    def _call(fn, *args):
        try:
            v = fn(*args)
            return ("value", float(v.j), float(v.abs_error), v.diverging)
        except Exception as exc:     # the outcome under test, any kind
            return ("raise", type(exc).__name__)

    def op(self):
        """One round; returns (outcomes by point, [(is_j0, start, end)] in
        evaluation order)."""
        st = self.tristab.stability
        outcomes = [None] * len(self.points)
        times = []
        for i in self.order:
            pt, params = self.points[i], self.params[i]
            if self.clock is not None:
                self.clock.checkpoint()
            t = time.perf_counter()
            if pt["expect"] == "j0":
                out = [self._call(st.eval_J0, params, pt["gamma"])]
            else:
                out = [self._call(getattr(st, fn), params, pt["omega"],
                                  pt["gamma"]) for _, fn in METHODS]
            times.append((pt["expect"] == "j0", t, time.perf_counter()))
            outcomes[i] = out
        return outcomes, times

    def record(self, output):
        outcomes, times = output
        self.query_times.append(times)
        if self.outcomes is None:
            self.outcomes = outcomes
        elif outcomes != self.outcomes:
            self.same = False

    def check(self, n_ops):
        res = Result()
        res.require(self.same, "a later round differs from the first")
        failures = []
        for pt, outs in zip(self.points, self.outcomes):
            names = (["eval_J0"] if pt["expect"] == "j0"
                     else [m for m, _ in METHODS])
            for method, out in zip(names, outs):
                why = judge(pt, out)
                if why:
                    failures.append("%s / %s: %s" % (pt["name"], method, why))
        res.attempted = n_ops * self.units
        res.failed = n_ops * len(failures)
        res.notes += ["failed: " + f for f in failures]
        return res


def judge(pt, out):
    """'' when one method's outcome at a reference point is right, else why
    it is wrong."""
    expect = pt["expect"]
    if expect == "none":
        return "" if out == ("raise", "NoStandingWave") else \
            "expected NoStandingWave, got %s" % (out[0],)
    if out[0] != "value":
        return "raised %s" % out[1]
    _, j, err, diverging = out
    if expect == "sentinel":
        # the paper's sign: + from the lower-left, - only on the FF upper
        # right side; a rounded on-curve input sits on the side the oracle
        # value (computed at the same floats) says
        want = 1.0 if pt.get("oracle_j") is None else math.copysign(
            1.0, pt["oracle_j"])
        ok = diverging and math.isinf(j) and math.copysign(1.0, j) == want
        return "" if ok else "expected a %+g sentinel, got J %r" % (want, j)
    oj, oerr = pt["oracle_j"], pt["oracle_err"]
    if diverging:
        return "sentinel %r where the oracle has %r" % (j, oj)
    if abs(j - oj) > err + oerr + 4e-16 * abs(oj):
        return "J %r +- %.3g, oracle %r +- %.3g (off by %.3g)" % (
            float(j), err, oj, oerr, abs(j - oj))
    if abs(j) > err and (j > 0) != (oj > 0):
        return "verdict sign differs from the oracle"
    return ""


WORKLOADS = {"ff_diagram": FFDiagram, "fd_diagram": FDDiagram,
             "point_checks": PointChecks, "cli_diagram": CLIDiagram}
