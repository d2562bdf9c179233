"""Drift-cancelled timing: a fixed reference kernel timed around the work.

This host's speed drifts by tens of percent within a minute, and CPU time
drifts with wall time, so raw seconds from two runs are not comparable.  A
fixed kernel (a pure-Python float loop with small numpy dot products and a
loop of 15-element numpy expressions, the same mix as the program's scalar
root finding and quadrature panels, importing nothing from tristab) is timed
in short bursts that cut the work into segments of a fraction of a second.
Each segment's time is reported in seconds at the reference speed:

    normalized = raw * KERNEL_NOMINAL_S / mean(kernel times of the bursts
                                               on both sides)

The ``cli_diagram`` work runs in other processes on every core, where an
in-process burst would compete with it, so each of its calls is bracketed
instead by a probe process of the same shape (a fresh interpreter starting
a pool of nproc workers and running fixed kernel work).  Import time tracks
file-system and loader speed rather than the float loop, so set-up time is
normalized against a reference import of fixed standard and numpy modules
in its own fresh interpreter.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# kernel time of one burst member on the reference host (2-core x86-64,
# Python 3.11, numpy 2.4), the "reference speed" every time is scaled to
KERNEL_NOMINAL_S = 0.0036
# fresh-interpreter time to import the reference module set, same host
REF_IMPORT_NOMINAL_S = 0.25
# fresh-interpreter pool run of process_probe, same host
PROCESS_NOMINAL_S = 0.55
BURST = 6
SEGMENT_S = 0.1          # work between two bursts inside an operation

_V = np.linspace(0.5, 1.5, 15)
_U = np.linspace(0.01, 0.99, 15)


def kernel() -> float:
    """One kernel call: a scalar float loop (the root finder's mix) and a
    loop of 15-node array expressions (the quadrature integrand's mix)."""
    x = 0.0
    for i in range(4000):
        y = 1.0 + (i % 97) * 0.013
        x += y ** 1.5 - math.sqrt(y) * 0.5
        if i % 16 == 0:
            x += float(np.dot(_V, _V * y))
    for i in range(120):
        L = np.log1p(-_U * _U)
        E = -np.expm1((1.0 + (i % 7) * 0.1) * L)
        D = 0.5 * E + 0.25 * np.expm1(0.5 * L)
        safe = D > 0.0
        x += float(np.dot(_V, np.where(safe, _U * E / np.where(safe, D, 1.0)
                                       ** 1.5, 0.0)))
    return x


def kernel_burst() -> list:
    out = []
    for _ in range(BURST):
        t = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t)
    return out


def _pool_task(i):
    for _ in range(4):
        kernel()
    return i


def process_probe() -> list:
    """Seconds for a fresh interpreter to start a pool of nproc workers,
    run 24 four-kernel tasks on it and exit: the shape of one `tristab
    diagram` call, with fixed work and nothing from tristab."""
    t = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--probe"],
                   check=True, timeout=120)
    return [time.perf_counter() - t]


KERNEL_PROBE = (kernel_burst, KERNEL_NOMINAL_S)
PROCESS_PROBE = (process_probe, PROCESS_NOMINAL_S)


class Clock:
    """Times work in segments closed by probes (kernel bursts, or probe
    processes), each segment scaled by the probes on both sides of it.
    Probe time belongs to no segment."""

    def __init__(self, probe=KERNEL_PROBE):
        self.probe, self.nominal = probe
        self.bursts = [self.probe()]     # probe samples, in time order
        self.segments = []               # (start, end, index of closing burst)
        self._start = time.perf_counter()
        self._hold_until = 0.0

    @property
    def probe_samples(self):
        return [x for burst in self.bursts for x in burst]

    def _close(self):
        """Close the open segment with a probe and open the next one."""
        end = time.perf_counter()
        self.bursts.append(self.probe())
        self.segments.append((self._start, end, len(self.bursts) - 1))
        self._start = time.perf_counter()

    def checkpoint(self):
        """Close the open segment if it has run SEGMENT_S, and keep the
        timer signal off the next step's first SEGMENT_S / 2; for
        operations made of steps of a few milliseconds, where a burst
        inside a step would disturb the time being taken."""
        if time.perf_counter() - self._start >= SEGMENT_S:
            self._close()
        self._hold_until = time.perf_counter() + SEGMENT_S / 2

    def time(self, fn, segment_s=None):
        """(result, raw seconds, (start, end)) of fn(); pass the interval
        to normalized().

        With segment_s, a timer signal closes a segment every segment_s
        seconds inside fn, so a long operation is scaled piece by piece.
        """
        first = len(self.segments)
        armed = [bool(segment_s)]

        def on_alarm(*_):
            wait = self._hold_until - time.perf_counter()
            if wait <= 0.0:
                self._close()
            if armed[0]:      # one-shot timer, re-armed after each burst
                signal.setitimer(signal.ITIMER_REAL,
                                 segment_s if wait <= 0.0 else wait)

        self._start = t0 = time.perf_counter()
        if segment_s:
            old = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, segment_s)
        try:
            result = fn()
        finally:
            if segment_s:
                armed[0] = False
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        self._close()
        segs = self.segments[first:]
        return result, sum(e - s for s, e, _ in segs), (t0, segs[-1][1])

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds at reference speed of the work within [t0, t1]."""
        i = max(bisect.bisect_right(self.segments, (t0,)) - 1, 0)
        total = 0.0
        while i < len(self.segments) and self.segments[i][0] < t1:
            s, e, b = self.segments[i]
            scale = self.nominal / statistics.fmean(self.bursts[b - 1]
                                                    + self.bursts[b])
            total += max(0.0, min(e, t1) - max(s, t0)) * scale
            i += 1
        return total


def _child_import_seconds(root: str, module_code: str) -> float:
    """Seconds from spawning a fresh interpreter to module_code returning
    in it, on the shared monotonic clock."""
    code = ("import time\n%s\nprint(repr(time.perf_counter()))\n"
            % module_code)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    return float(out.strip().splitlines()[-1]) - t0


REF_IMPORT = "import numpy, json, heapq, dataclasses, argparse, multiprocessing"


def setup_seconds(root: str, module: str = "tristab", reps: int = 6):
    """Normalized set-up time: median over reps fresh interpreters of the
    time to `import module`, each scaled by the mean of the reference
    imports run just before and after it.  Returns (normalized, raw
    median, reference median)."""
    _child_import_seconds(root, "import " + module)   # fills .pyc caches
    refs = [_child_import_seconds(root, REF_IMPORT)]
    raws, norms = [], []
    for _ in range(reps):
        raw = _child_import_seconds(root, "import " + module)
        refs.append(_child_import_seconds(root, REF_IMPORT))
        raws.append(raw)
        norms.append(raw * REF_IMPORT_NOMINAL_S / (0.5 * (refs[-2] + refs[-1])))
    return (statistics.median(norms), statistics.median(raws),
            statistics.median(refs))


def quantile(values, frac: float) -> float:
    """Linear-interpolation quantile of one sample set (p50 <= p90 always)."""
    xs = sorted(values)
    pos = frac * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    import multiprocessing
    # fork, as tristab's own pool starts on Linux: the probe mirrors it
    with multiprocessing.get_context("fork").Pool(os.cpu_count()) as pool:
        pool.map(_pool_task, range(24))
