"""Op timing and span tracing for the benchmark.

A :class:`Recorder` wraps each call the benchmark makes into a hardylab
layer.  Untraced, it keeps the start and end of each timed op, and while a
pass runs a wall-clock timer interrupts it every ``REF_INTERVAL_S`` seconds
to time :func:`reference_work`, a fixed loop that does not touch hardylab,
inside ops as well as between them.  :func:`normalized` takes the reference
samples out of each op and divides what is left by the reference times
nearest to it.  Traced, it keeps one span per call (name, start, end, parent,
run id) in memory and runs no reference; :func:`layer_totals` turns the
spans into per-name call counts and self times, and :func:`write_spans`
writes them out when the run ends.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# wall-clock seconds between two reference samples while a pass runs.  On a
# 2-core shared VM the reference time jumped between two levels 1.6x apart
# every few seconds, also in the middle of a single op.
REF_INTERVAL_S = 0.1
# reference samples whose median duration is the unit of a piece of an op
REF_NEAREST = 5

_REF_RNG = np.random.default_rng(0)
_REF_ARRAY = _REF_RNG.standard_normal(4096) + 0j
_REF_CONV = _REF_RNG.standard_normal(1024) + 1j * _REF_RNG.standard_normal(1024)


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def __add__(self, other):
        return _Pair(self.x + other.x, self.y + other.y)

    def __mul__(self, other):
        return _Pair(self.x * other.x - self.y * other.y, self.x * other.y + self.y * other.x)


def reference_work():
    """A fixed mix of the kinds of work hardylab does: ``Fraction`` sums,
    small-object arithmetic, dict updates and big-integer products, then
    NumPy FFTs and complex convolutions for about as long again.  Its time
    tracks the speed the host gives this process, which on a shared host
    moves by tens of percent within a minute; the program under test never
    changes it.  Interpreter work and NumPy kernels speed up and slow down
    by different amounts when the host's speed changes, so the mix holds
    both."""
    s = Fraction(0)
    for k in range(1, 160):
        s += Fraction(1, k * k + 1)
    acc, unit = _Pair(0.0, 0.0), _Pair(0.5, 0.25)
    for k in range(1000):
        acc = acc * unit + _Pair(k, 1.0)
    counts = {}
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    x = 3
    for k in range(400):
        x = (x * 1234567891011 + k) % (10**60 + 7)
    for _ in range(4):
        np.fft.ifft(np.fft.fft(_REF_ARRAY) * _REF_ARRAY)
        np.convolve(_REF_CONV, _REF_CONV)
    return s, acc, x


class Recorder:
    """Times the benchmark's calls into the library; optionally traces them.

    ``times`` holds the ``(start, end)`` of every timed op and ``refs`` the
    ``(start, end)`` of every reference sample, both on the
    ``time.perf_counter`` clock.  A sample taken inside an op lies wholly
    inside it: the timer's handler runs between two bytecodes of the one
    thread, never inside a ``perf_counter`` call.
    """

    def __init__(self, trace=False, reference=reference_work, interval=REF_INTERVAL_S):
        self.times = []
        self.refs = []
        self.spans = [] if trace else None
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self._stack = []
        self._reference = None if trace else reference
        self._interval = interval
        self._busy = False
        self._handler = signal.SIG_DFL

    @property
    def tracing(self):
        return self.spans is not None

    def reference(self):
        """Time one reference sample, unless one is being taken already."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self._reference()
            self.refs.append((t0, time.perf_counter()))
        finally:
            self._busy = False

    def sampling(self, on):
        """Start or stop taking a reference sample every ``interval`` seconds
        of wall time, whatever runs at that moment."""
        if on:
            self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.reference())
            signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def call(self, name, fn, *args, op=True, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one call into a layer.

        ``op=True`` keeps its start and end as a timed op; either way a
        traced recorder keeps a span named ``name``.
        """
        if self.spans is None:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            if op:
                self.times.append((t0, time.perf_counter()))
            return result
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, t0, t1)
            if op:
                self.times.append((t0, t1))


def normalized(times, refs, nearest=REF_NEAREST):
    """Each op's latency in reference units and in seconds, without the
    reference samples taken inside it.

    The samples inside an op cut it into pieces.  Each piece is divided by
    the median duration of the ``nearest`` samples whose midpoints lie
    closest to its own.  The op's latency in reference units is the sum over
    its pieces, so an op during which the host changed speed is measured at
    each speed for the time it ran at it.  ``refs`` must be sorted, and no
    sample may straddle the start or the end of an op.
    """
    starts = [r0 for r0, _ in refs]
    mids = [(r0 + r1) / 2 for r0, r1 in refs]
    durations = [r1 - r0 for r0, r1 in refs]
    out = []
    for t0, t1 in times:
        first = bisect.bisect_left(starts, t0)
        inside = bisect.bisect_left(starts, t1) - first
        edges = [t0, *(t for ref in refs[first:first + inside] for t in ref), t1]
        ratio = seconds = 0.0
        for a, b in zip(edges[::2], edges[1::2]):
            mid = (a + b) / 2
            lo = hi = bisect.bisect_left(mids, mid)
            while hi - lo < nearest and (lo > 0 or hi < len(mids)):
                if lo > 0 and (hi == len(mids) or mid - mids[lo - 1] <= mids[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
            ratio += (b - a) / statistics.median(durations[lo:hi])
            seconds += b - a
        out.append((ratio, seconds))
    return out


def layer_totals(spans):
    """Map span name -> (calls, self seconds).

    ``spans`` holds ``(id, parent, name, start, end)`` tuples.  A span's self
    time is its duration minus the part of its interval that the union of
    its direct children covers.
    """
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    totals = {}
    for span_id, _, name, start, end in spans:
        covered = 0.0
        cursor = start
        for _, _, _, c_start, c_end in sorted(children.get(span_id, ()), key=lambda s: s[3]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        calls, self_s = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, self_s + (end - start) - covered)
    return totals


def write_spans(spans, run_id, path):
    """Write the spans as JSON lines; times are seconds on the run's clock."""
    os.makedirs(os.path.dirname(str(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for span_id, parent, name, start, end in spans:
            out.write(json.dumps({
                "run": run_id, "id": span_id, "parent": parent,
                "name": name, "start": start, "end": end,
            }) + "\n")
