"""In-memory spans around the public functions of each tristab layer.

A function is wrapped where the calling layer looks it up (for example
``tristab.stability.find_a``, the name ``eval_J`` resolves when it needs a
profile), so the program itself is not edited.  Each span records its name,
its parent span, start and end on the monotonic clock, and a small outcome
tag.  Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent, start, end, info]
        self._stack = []
        self._patches = []

    def wrap(self, module, attr: str, name: str, describe=None):
        """Replace module.attr by a span-recording wrapper.
        describe(result, kwargs) gives the span's outcome tag; an
        exception's class name is the tag when the call raises."""
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                rec[3] = time.perf_counter()
                rec[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[3] = time.perf_counter()
            if describe is not None:
                rec[4] = describe(result, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches = []

    def write(self, path: str, ranges, segments):
        """Dump the spans, the span range of each traced operation and the
        (start, end, closing burst) kernel segments to JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "info"],
                       "operations": ranges, "segments": segments,
                       "spans": self.spans}, fh)


def _profile_tag(res, kwargs):
    if res is None:
        return "no_wave"
    return "boundary" if res.on_boundary else "ok"


def _quad_tag(res, kwargs):
    return [res.n_panels, bool(res.converged), int(kwargs.get("initial", 1))]


def _value_tag(res, kwargs):
    return "sentinel" if res.diverging else "ok"


def install(tracer: Tracer, tristab_modules):
    """Wrap every public entry point the workloads reach, at the lookup
    site of the calling layer."""
    stability, diagram, cli = tristab_modules
    tracer.wrap(stability, "find_a", "profile.find_a", _profile_tag)
    tracer.wrap(stability, "integrate", "quadrature.integrate", _quad_tag)
    tracer.wrap(stability, "omega_star", "boundary.omega_star")
    tracer.wrap(stability, "mass_Q", "stability.mass_Q")
    for mod in (stability, diagram):
        tracer.wrap(mod, "eval_J", "stability.eval_J", _value_tag)
    tracer.wrap(stability, "eval_J_raw", "stability.eval_J_raw", _value_tag)
    tracer.wrap(stability, "eval_J_mass_fd", "stability.eval_J_mass_fd",
                _value_tag)
    tracer.wrap(stability, "eval_J0", "stability.eval_J0")
    for attr in ("sweep_grid", "extract_contours", "export_grid_csv",
                 "export_contours_json"):
        tracer.wrap(diagram, attr, "diagram." + attr)
    tracer.wrap(cli, "main", "cli.main")
