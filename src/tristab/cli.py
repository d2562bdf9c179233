"""Command-line interface.

Every operation of the library is reachable through a subcommand.  All
numeric inputs are flags (never positional): the four sign cases make
positional defaults too easy to get wrong.  Signs accept +1/-1 or the
letters f/d.  Output is deterministic for identical argv except for the
trailing timing line, which --no-timing suppresses.  Numbers print with
12 significant digits.

Exit codes: 0 success, 1 numeric failure (no standing wave, off the curve,
diverging integral where a finite answer was requested) or an output file
that cannot be written, 2 argument errors, a NaN or infinite number among
them.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional, Sequence

from . import boundary, diagram
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


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r"
                                             % text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d (got %d)"
                                             % (low, value))
        return value
    return parse


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite (got %r)" % text)
    return value


class _Suites:
    """The --suite choices, read from ``verify.SUITES`` only when a name is
    checked or listed, so that no other subcommand imports ``verify``."""

    def _names(self):
        from . import verify
        return list(verify.SUITES) + ["all"]

    def __contains__(self, name):
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _levels_arg(text: str) -> List[float]:
    return [_finite(tok) for tok in text.split(",") if tok.strip() != ""]


def _add_exponents(sp) -> None:
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--q", type=_finite, required=True)
    sp.add_argument("--r", type=_finite, required=True)
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
    sp.add_argument("--a1", type=_finite, required=True)
    sp.add_argument("--a2", type=_finite, required=True)
    sp.add_argument("--a3", type=_finite, required=True)
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--q", type=_finite, required=True)
    sp.add_argument("--r", type=_finite, required=True)
    sp.add_argument("--no-timing", action="store_true")

    sp = sub.add_parser("profile-a", help="first zero a(omega, gamma)")
    _add_exponents(sp)
    sp.add_argument("--omega", type=_finite, required=True)
    sp.add_argument("--gamma", type=_finite, required=True)

    sp = sub.add_parser("curve-ne", help="sample the nonexistence curve")
    _add_exponents(sp)
    sp.add_argument("--n", type=_at_least(1), default=200)
    sp.add_argument("--a-min", type=_finite, default=None)
    sp.add_argument("--a-max", type=_finite, default=None)
    sp.add_argument("--out", default=None,
                    help="CSV destination (stdout when omitted)")

    sp = sub.add_parser("omega-star", help="curve frequency omega*(gamma)")
    _add_exponents(sp)
    sp.add_argument("--gamma", type=_finite, required=True)

    sp = sub.add_parser("eval-j", help="J by all three methods")
    _add_exponents(sp)
    sp.add_argument("--omega", type=_finite, required=True)
    sp.add_argument("--gamma", type=_finite, required=True)

    sp = sub.add_parser("eval-j0", help="J(0, gamma) for D* cases, p < 7/3")
    _add_exponents(sp)
    sp.add_argument("--gamma", type=_finite, required=True)

    sp = sub.add_parser("limits", help="limit classification, all directions")
    _add_exponents(sp)
    sp.add_argument("--omega", type=_finite, required=True,
                    help="fixed omega for the gamma directions")
    sp.add_argument("--gamma", type=_finite, required=True,
                    help="fixed gamma for the omega directions")

    sp = sub.add_parser("guarantees", help="guaranteed-sign statements")
    _add_exponents(sp)

    sp = sub.add_parser("diagram", help="sweep J and extract level curves")
    _add_exponents(sp)
    sp.add_argument("--omega-min", type=_finite, required=True)
    sp.add_argument("--omega-max", type=_finite, required=True)
    sp.add_argument("--gamma-min", type=_finite, required=True)
    sp.add_argument("--gamma-max", type=_finite, required=True)
    sp.add_argument("--nx", type=_at_least(2), default=200)
    sp.add_argument("--ny", type=_at_least(2), default=200)
    sp.add_argument("--levels", type=_levels_arg, default=[0.0])
    sp.add_argument("--out-grid", default="diagram_grid.csv")
    sp.add_argument("--out-contours", default="diagram_contours.json")
    sp.add_argument("--jobs", type=_at_least(1), default=None,
                    help="at most this many worker processes (default: "
                         "available parallelism); meshes under 4,096 cells "
                         "run in process")

    sp = sub.add_parser("verify", help="run the numeric verification suites")
    sp.add_argument("--suite", default="all", choices=_Suites(),
                    metavar="SUITE", help="one of %(choices)s")
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
    # evaluate everything before printing: when every route raises (no
    # wave, say) the first error is the whole output, with no table header
    rows, errors = [], []
    for name, fn in (("transformed", eval_J), ("raw", eval_J_raw),
                     ("mass_fd", eval_J_mass_fd)):
        try:
            v = fn(params, ns.omega, ns.gamma)
        except _NUMERIC_ERRORS as exc:
            errors.append(exc)
            rows.append("%-12s error: %s" % (name, exc))
            continue
        rows.append("%-12s %-20s %-16s %s"
                    % (name, format_float(v.j, 12),
                       format_float(v.abs_error, 12), v.verdict()))
    if len(errors) == len(rows):
        raise errors[0]
    print("method       j                    abs_error        verdict")
    for row in rows:
        print(row)
    return 1 if errors else 0


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
    from . import verify
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
    except _NUMERIC_ERRORS + (OSError,) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if not ns.no_timing:
        print("# elapsed %.3f s" % (time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
