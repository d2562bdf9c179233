"""Per-layer metrics from the spans of a traced run.

Durations are scaled to the reference speed segment by segment, and the
kernel bursts that fall inside a span are left out of it.  Totals (``*_s``) and counts are per workload
operation (one diagram, one CLI call, one round of reference points), so
they do not depend on how many operations fit in the run; a layer the
workload never reaches reads 0.
"""

from __future__ import annotations

import statistics

TIMES_US = {
    "profile.find_a_us_p50": "profile.find_a",
    "quadrature.integrate_us_p50": "quadrature.integrate",
    "stability.eval_J_us_p50": "stability.eval_J",
    "stability.raw_us_p50": "stability.eval_J_raw",
    "stability.mass_fd_us_p50": "stability.eval_J_mass_fd",
    "stability.eval_J0_us_p50": "stability.eval_J0",
    "boundary.omega_star_us_p50": "boundary.omega_star",
}
TOTALS_S = {
    "profile.find_a_s": ("profile.find_a",),
    "quadrature.integrate_s": ("quadrature.integrate",),
    "diagram.sweep_s": ("diagram.sweep_grid",),
    "diagram.contour_s": ("diagram.extract_contours",),
    "diagram.export_s": ("diagram.export_grid_csv",
                         "diagram.export_contours_json"),
}
CALLS = {
    "profile.find_a_calls": "profile.find_a",
    "quadrature.integrate_calls": "quadrature.integrate",
    "stability.eval_J_calls": "stability.eval_J",
    "stability.mass_Q_calls": "stability.mass_Q",
    "boundary.omega_star_calls": "boundary.omega_star",
}
EVALS = ("stability.eval_J", "stability.eval_J_raw", "stability.eval_J_mass_fd")


def layer_metrics(spans, n_ops, normalized):
    """spans: [name, parent, start, end, info] of n_ops traced operations;
    normalized(t0, t1) is the work in [t0, t1] in seconds at reference
    speed, kernel bursts left out."""
    dur = [normalized(start, end) for _, _, start, end, _ in spans]
    by_name = {}
    child_time = [dict() for _ in spans]
    for i, (name, parent, _, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent is not None:
            acc = child_time[parent]
            acc[name] = acc.get(name, 0.0) + dur[i]

    def idx(name):
        return by_name.get(name, [])

    def per_op(x):
        return x / n_ops

    out = {}
    for metric, name in TIMES_US.items():
        d = [dur[i] for i in idx(name)]
        out[metric] = (1e6 * statistics.median(d) if d else 0.0, "us")
    for metric, names in TOTALS_S.items():
        out[metric] = (per_op(sum(dur[i] for n in names for i in idx(n))), "s")
    for metric, name in CALLS.items():
        out[metric] = (per_op(len(idx(name))), "count")

    finds = [spans[i][4] for i in idx("profile.find_a")]
    out["profile.no_wave_calls"] = (per_op(finds.count("no_wave")), "count")
    out["profile.boundary_hits"] = (per_op(finds.count("boundary")), "count")
    quads = [spans[i][4] for i in idx("quadrature.integrate")
             if isinstance(spans[i][4], list)]
    panels = sum(q[0] for q in quads)
    out["quadrature.panels_per_call"] = (panels / len(quads) if quads else 0.0,
                                         "count")
    # computed, not counted: each split evaluates two new panels
    out["quadrature.panel_evals"] = (
        per_op(sum(2 * q[0] - q[2] for q in quads)), "count")
    out["quadrature.unconverged_calls"] = (
        per_op(sum(1 for q in quads if not q[1])), "count")
    out["stability.sentinels"] = (
        per_op(sum(1 for n in EVALS for i in idx(n)
                   if spans[i][4] == "sentinel")), "count")

    self_s = sum(dur[i] - child_time[i].get("profile.find_a", 0.0)
                 - child_time[i].get("quadrature.integrate", 0.0)
                 for i in idx("stability.eval_J"))
    out["stability.eval_J_self_s"] = (per_op(self_s), "s")
    dispatch = sum(dur[i] - child_time[i].get("stability.eval_J", 0.0)
                   for i in idx("diagram.sweep_grid"))
    out["diagram.dispatch_s"] = (per_op(dispatch), "s")
    out["diagram.contour_evals"] = (
        per_op(sum(1 for i in idx("stability.eval_J")
                   if spans[i][1] is not None
                   and spans[spans[i][1]][0] == "diagram.extract_contours")),
        "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
