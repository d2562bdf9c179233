#!/usr/bin/env python3
"""Benchmark of tristab: four workloads, drift-cancelled timings, checks.

    python3 perfbench/run.py --workload ff_diagram --seed 1 --seconds 16 --trace 0

Run it from the root of a source tree of the program (``src/tristab``).
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run.  Lines before it give the raw seconds, the
reference kernel's own time and the check notes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _timed_loop(clock, wl, seconds):
    """Whole operations until the next one would end past `seconds`;
    returns [(raw seconds, (start, end))] per operation."""
    ops = []
    start = time.perf_counter()
    while True:
        out, raw, span = clock.time(wl.op, wl.segment_s)
        wl.record(out)
        ops.append((raw, span))
        if time.perf_counter() - start + raw > seconds:
            return ops


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _environment(timing):
    import numpy
    return ("nproc %s, Python %s, numpy %s, commit %s, kernel nominal %.4g s"
            % (os.cpu_count(), platform.python_version(), numpy.__version__,
               _commit(), timing.KERNEL_NOMINAL_S))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, tristab, workloads, timing, out_dir):
    setup_norm, setup_raw, ref_raw = timing.setup_seconds(ROOT)
    wl = workloads.WORKLOADS[args.workload](tristab, args.seed, out_dir, ROOT)
    clock = wl.clock = timing.Clock(wl.probe)
    ops = _timed_loop(clock, wl, args.seconds)
    if args.workload == "cli_diagram":
        rss_kb = wl.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res = wl.check(len(ops))

    norms = [clock.normalized(*span) for _, span in ops]
    if args.workload == "point_checks":
        # per query (all three methods at one point), at reference speed
        op_s = [clock.normalized(t0, t1) for times in wl.query_times
                for is_j0, t0, t1 in times if not is_j0]
        what = "query"
    else:
        op_s = norms
        what = "diagram"
    unit_label = "method calls" if args.workload == "point_checks" else "cells"
    kern = statistics.median(clock.probe_samples)
    metrics = {
        "setup_s": _metric(setup_norm, "s"),
        "throughput_per_s": _metric(wl.units / statistics.median(norms), "1/s"),
        "op_ms_p50": _metric(1e3 * timing.quantile(op_s, 0.5), "ms"),
        "op_ms_p90": _metric(1e3 * timing.quantile(op_s, 0.9), "ms"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }
    lines = [
        "workload %s, seed %d: %d operations of %d %s, %d %s samples"
        % (args.workload, args.seed, len(ops), wl.units, unit_label,
           len(op_s), what),
        "raw: op median %.4f s (min %.4f, max %.4f); set-up %.4f s, "
        "reference import %.4f s" % (
            statistics.median(r for r, _ in ops), min(r for r, _ in ops),
            max(r for r, _ in ops), setup_raw, ref_raw),
        "reference probe: median %.5f s over %d samples (nominal %.5f s)"
        % (kern, len(clock.probe_samples), clock.nominal),
    ]
    if args.workload == "point_checks":
        j0 = [clock.normalized(t0, t1) for times in wl.query_times
              for is_j0, t0, t1 in times if is_j0]
        lines.append("eval_J0 calls: median %.3f ms at reference speed"
                     % (1e3 * statistics.median(j0)))
    return res, metrics, lines


def traced(args, tristab, workloads, timing, out_dir):
    import spans as tracing
    import tristab.cli
    import tristab.diagram
    import tristab.stability
    from layers import layer_metrics

    cli_import_s = timing.setup_seconds(ROOT, "tristab.cli", reps=3)[0]
    wl = workloads.WORKLOADS[args.workload](tristab, args.seed, out_dir, ROOT)
    op = wl.op
    if args.workload == "cli_diagram":      # in process, so every call shows
        op = lambda: wl.op_in_process(jobs=1)
    clock = timing.Clock()
    tracer = tracing.Tracer()
    modules = (tristab.stability, tristab.diagram, tristab.cli)
    ranges, plain, traced = [], [], []
    start = time.perf_counter()
    while True:     # untraced and traced operations alternate
        out, _, span = clock.time(op, timing.SEGMENT_S)
        wl.record(out)
        plain.append(span)
        tracing.install(tracer, modules)
        try:
            first = len(tracer.spans)
            out, raw, span = clock.time(op, timing.SEGMENT_S)
        finally:
            tracer.uninstall()
        wl.record(out)
        ranges.append((first, len(tracer.spans)))
        traced.append(span)
        if time.perf_counter() - start + 2 * raw > args.seconds:
            break
    pool_sweep_s = 0.0
    if args.workload == "cli_diagram":
        _, _, span = clock.time(
            lambda: tristab.diagram.sweep_grid(wl.params, wl.omega_range,
                                               wl.gamma_range, wl.n, wl.n))
        pool_sweep_s = clock.normalized(*span)
    res = wl.check(2 * len(ranges))
    trace_path = os.path.join(out_dir, "trace-%s-%d.json"
                              % (args.workload, args.seed))
    tracer.write(trace_path, ranges, clock.segments)
    metrics = layer_metrics(tracer.spans, len(ranges), clock.normalized)
    extra = {
        "diagram.pool_sweep_s": (pool_sweep_s, "s"),
        "cli.import_s": (cli_import_s, "s"),
        "trace.overhead_ratio": (
            statistics.median(clock.normalized(*t) for t in traced)
            / statistics.median(clock.normalized(*t) for t in plain),
            "ratio"),
    }
    metrics.update({k: _metric(v, u) for k, (v, u) in extra.items()})
    lines = ["traced workload %s, seed %d: %d operations, %d spans in %s"
             % (args.workload, args.seed, len(ranges), len(tracer.spans),
                os.path.relpath(trace_path, ROOT))]
    return res, metrics, lines


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tristab", "__init__.py")):
        print("perfbench: no program source at %s"
              % os.path.join(ROOT, "src", "tristab"), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import timing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    import tristab
    run = traced if args.trace else untraced
    res, metrics, lines = run(args, tristab, workloads, timing, out_dir)
    for line in lines + [_environment(timing)] + res.notes:
        print(line)
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
