"""Command-line interface.

Every operation of the library is reachable through a subcommand.  All
numeric inputs are flags (never positional): the four sign cases make
positional defaults too easy to get wrong.  Signs accept +1/-1 or the
letters f/d.  Output is deterministic for identical argv except for the
trailing timing line, which --no-timing suppresses.  Numbers print with
12 significant digits.

Exit codes: 0 success, 1 numeric failure (no standing wave, off the curve,
diverging integral where a finite answer was requested), 2 argument errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional, Sequence

from . import boundary, diagram, verify
from .asymptotics import Direction, asymptotic_exponent, classify_limit, \
    sign_guarantees
from .diagram import format_float
from .errors import DivergingIntegral, NoStandingWave, NotOnCurve, \
    UnsupportedRegime
from .model import NonlinearityParams, normalize
from .profile import find_a
from .stability import eval_J, eval_J0, eval_J_mass_fd, eval_J_raw

_NUMERIC_ERRORS = (NoStandingWave, NotOnCurve, DivergingIntegral,
                   UnsupportedRegime, ValueError)


def _sign(text: str) -> int:
    t = text.strip().lower()
    if t in ("+1", "1", "f"):
        return 1
    if t in ("-1", "d"):
        return -1
    raise argparse.ArgumentTypeError(
        "sign must be +1, -1, f, or d (got %r)" % text)


def _levels_arg(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("levels must be comma-separated reals")


def _add_exponents(sp) -> None:
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--s1", type=_sign, required=True,
                    help="sign of the lowest power: +1/f or -1/d")
    sp.add_argument("--s3", type=_sign, required=True,
                    help="sign of the highest power: +1/f or -1/d")
    sp.add_argument("--no-timing", action="store_true",
                    help="suppress the trailing elapsed-time line")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tristab",
        description="Standing-wave existence and stability for the triple-"
                    "power NLS: nonexistence curve, slope functional J, "
                    "limits, and stability diagrams.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("classify", help="case label and curve endpoints")
    _add_exponents(sp)

    sp = sub.add_parser("normalize",
                        help="reduce raw coefficients to the two-sign form")
    sp.add_argument("--a1", type=float, required=True)
    sp.add_argument("--a2", type=float, required=True)
    sp.add_argument("--a3", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--no-timing", action="store_true")

    sp = sub.add_parser("profile-a", help="first zero a(omega, gamma)")
    _add_exponents(sp)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)

    sp = sub.add_parser("curve-ne", help="sample the nonexistence curve")
    _add_exponents(sp)
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--a-min", type=float, default=None)
    sp.add_argument("--a-max", type=float, default=None)
    sp.add_argument("--out", default=None,
                    help="CSV destination (stdout when omitted)")

    sp = sub.add_parser("omega-star", help="curve frequency omega*(gamma)")
    _add_exponents(sp)
    sp.add_argument("--gamma", type=float, required=True)

    sp = sub.add_parser("eval-j", help="J by all three methods")
    _add_exponents(sp)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--rel-tol", type=float, default=1e-9)

    sp = sub.add_parser("eval-j0", help="J(0, gamma) for D* cases, p < 7/3")
    _add_exponents(sp)
    sp.add_argument("--gamma", type=float, required=True)

    sp = sub.add_parser("limits", help="limit classification, all directions")
    _add_exponents(sp)
    sp.add_argument("--omega", type=float, required=True,
                    help="fixed omega for the gamma directions")
    sp.add_argument("--gamma", type=float, required=True,
                    help="fixed gamma for the omega directions")

    sp = sub.add_parser("guarantees", help="guaranteed-sign statements")
    _add_exponents(sp)

    sp = sub.add_parser("diagram", help="sweep J and extract level curves")
    _add_exponents(sp)
    sp.add_argument("--omega-min", type=float, required=True)
    sp.add_argument("--omega-max", type=float, required=True)
    sp.add_argument("--gamma-min", type=float, required=True)
    sp.add_argument("--gamma-max", type=float, required=True)
    sp.add_argument("--nx", type=int, default=200)
    sp.add_argument("--ny", type=int, default=200)
    sp.add_argument("--levels", type=_levels_arg, default=[0.0])
    sp.add_argument("--out-grid", default="diagram_grid.csv")
    sp.add_argument("--out-contours", default="diagram_contours.json")
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: available parallelism)")

    sp = sub.add_parser("verify", help="run the numeric verification suites")
    sp.add_argument("--suite", default="all",
                    choices=list(verify.SUITES) + ["all"])
    sp.add_argument("--no-timing", action="store_true")

    return ap


def _params(ns) -> NonlinearityParams:
    return NonlinearityParams(ns.p, ns.q, ns.r, ns.s1, ns.s3)


def _cmd_classify(ns) -> int:
    params = _params(ns)
    endpoint_a, gamma1, rng = boundary.endpoints(params)
    print("case: %s" % params.case)
    print("curve a-range: %s" % rng)
    if endpoint_a is not None:
        label = "a_sharp" if params.case == "FF" else "a_b"
        om, _ = boundary.gamma_omega_ne(params, endpoint_a)
        print("%s: %s" % (label, format_float(endpoint_a, 12)))
        print("gamma_1: %s" % format_float(gamma1, 12))
        print("omega_ne(%s): %s" % (label, format_float(om, 12)))
    return 0


def _cmd_normalize(ns) -> int:
    red = normalize(ns.a1, ns.a2, ns.a3, ns.p, ns.q, ns.r)
    print("kappa: %s" % format_float(red.kappa, 12))
    print("lambda: %s" % format_float(red.lam, 12))
    print("gamma: %s" % format_float(red.gamma, 12))
    print("case: %s" % red.normalized.case)
    return 0


def _cmd_profile_a(ns) -> int:
    params = _params(ns)
    res = find_a(params, ns.omega, ns.gamma)
    if res is None:
        print("no standing wave at omega=%s, gamma=%s"
              % (format_float(ns.omega, 12), format_float(ns.gamma, 12)),
              file=sys.stderr)
        return 1
    print("a: %s" % format_float(res.a, 12))
    print("uprime_at_a: %s" % format_float(res.uprime_at_a, 12))
    print("exists: %s" % res.exists)
    print("on_boundary: %s" % res.on_boundary)
    return 0


def _cmd_curve_ne(ns) -> int:
    params = _params(ns)
    curve = boundary.sample_curve(params, n=ns.n, a_min=ns.a_min,
                                  a_max=ns.a_max)
    if ns.out is not None:
        diagram.export_curve_csv(curve, ns.out)
        print("wrote %d samples to %s" % (len(curve.samples), ns.out))
        return 0
    print("a,omega_ne,gamma_ne")
    for a, om, ga in curve.samples:
        print("%s,%s,%s" % (format_float(a, 12), format_float(om, 12),
                            format_float(ga, 12)))
    return 0


def _cmd_omega_star(ns) -> int:
    ws = boundary.omega_star(_params(ns), ns.gamma)
    print("omega_star: %s" % format_float(ws, 12))
    return 0


def _cmd_eval_j(ns) -> int:
    params = _params(ns)
    # evaluate everything before printing so a failed existence check
    # does not leave a dangling table header on stdout
    rows = []
    for name, fn in (
            ("transformed",
             lambda: eval_J(params, ns.omega, ns.gamma, rel_tol=ns.rel_tol)),
            ("raw",
             lambda: eval_J_raw(params, ns.omega, ns.gamma,
                                rel_tol=ns.rel_tol)),
            ("mass_fd", lambda: eval_J_mass_fd(params, ns.omega, ns.gamma))):
        v = fn()
        rows.append("%-12s %-20s %-16s %s"
                    % (name, format_float(v.j, 12),
                       format_float(v.abs_error, 12), v.verdict()))
    print("method       j                    abs_error        verdict")
    for row in rows:
        print(row)
    return 0


def _cmd_eval_j0(ns) -> int:
    v = eval_J0(_params(ns), ns.gamma)
    print("j0: %s" % format_float(v.j, 12))
    print("abs_error: %s" % format_float(v.abs_error, 12))
    print("verdict: %s" % v.verdict())
    return 0


_DIRECTION_LABELS = (
    (Direction.OmegaToZero, "omega->0", "gamma"),
    (Direction.OmegaToInf, "omega->inf", "gamma"),
    (Direction.GammaToInf, "gamma->+inf", "omega"),
    (Direction.GammaToNegInf, "gamma->-inf", "omega"),
)


def _cmd_limits(ns) -> int:
    params = _params(ns)
    for direction, label, which in _DIRECTION_LABELS:
        value = ns.gamma if which == "gamma" else ns.omega
        try:
            lc = classify_limit(params, direction, value)
        except _NUMERIC_ERRORS as exc:
            print("%-12s unsupported (%s)" % (label, exc))
            continue
        expo = asymptotic_exponent(params, direction, gamma=ns.gamma)
        tail = ("  [J ~ a^%s]" % format_float(expo, 12)
                if expo is not None else "")
        print("%-12s %s (%s)%s" % (label, lc.kind.value, lc.detail, tail))
    return 0


def _cmd_guarantees(ns) -> int:
    out = sign_guarantees(_params(ns))
    if not out:
        print("none")
        return 0
    for g in out:
        print("%s: %s" % (g.statement.value, g.region))
    return 0


def _cmd_diagram(ns) -> int:
    params = _params(ns)
    grid = diagram.sweep_grid(params, (ns.omega_min, ns.omega_max),
                              (ns.gamma_min, ns.gamma_max), ns.nx, ns.ny,
                              jobs=ns.jobs)
    vals = grid.values
    n_nan = int((vals != vals).sum())
    n_div = int((vals == math.inf).sum() + (vals == -math.inf).sum())
    print("grid: %d x %d (%d nonexistent, %d divergent)"
          % (ns.nx, ns.ny, n_nan, n_div))
    diagram.export_grid_csv(grid, ns.out_grid)
    print("wrote grid to %s" % ns.out_grid)
    contours = diagram.extract_contours(grid, ns.levels)
    diagram.export_contours_json(contours, ns.out_contours)
    for cs in contours:
        npts = sum(len(path) for path in cs.paths)
        print("level %s: %d paths, %d points"
              % (format_float(cs.level, 12), len(cs.paths), npts))
    print("wrote contours to %s" % ns.out_contours)
    return 0


def _cmd_verify(ns) -> int:
    failures = verify.run_suite(ns.suite)
    return 1 if failures else 0


_COMMANDS = {
    "classify": _cmd_classify,
    "normalize": _cmd_normalize,
    "profile-a": _cmd_profile_a,
    "curve-ne": _cmd_curve_ne,
    "omega-star": _cmd_omega_star,
    "eval-j": _cmd_eval_j,
    "eval-j0": _cmd_eval_j0,
    "limits": _cmd_limits,
    "guarantees": _cmd_guarantees,
    "diagram": _cmd_diagram,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    if hasattr(ns, "p"):
        # NonlinearityParams holds the exponent rule; breaking it is a bad
        # argument, not a numeric failure
        try:
            NonlinearityParams(ns.p, ns.q, ns.r)
        except ValueError as exc:
            ap.error(str(exc))
    start = time.perf_counter()
    try:
        code = _COMMANDS[ns.subcommand](ns)
    except _NUMERIC_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if not ns.no_timing:
        print("# elapsed %.3f s" % (time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
