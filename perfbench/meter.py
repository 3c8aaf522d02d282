"""Item timing with host-speed calibration.

The benchmark runs on shared machines whose speed drifts by 15-70% over
seconds to minutes (other tenants, not this process: CPU time tracks wall
time).  Raw timings of two runs of the same code therefore differ by more
than the changes the benchmark has to resolve.  To take the drift out, a
pass interleaves a fixed calibration chunk, owned by the benchmark,
between items every ``CAL_EVERY_S`` seconds (about 2% of the pass).  The
local host speed at a moment is the median duration of the chunks within
``CAL_WINDOW_S`` of it, and every item latency and every stretch of pass
time is scaled by ``CAL_REF_S`` / that median.  The calibrated figures are
what the pass would have taken on a host where the chunk runs in
``CAL_REF_S``, its typical duration on the reference machine (2-core Intel
Xeon, Python 3.11.7).  The raw figures are kept alongside.

The chunk does the same kind of work as the package's hot loops (see
:func:`calibration_chunk`), because the drift does not slow all code
alike: over 3-second windows on the reference machine, the log of its
duration follows the log of the package's item times with slope 0.96-1.0
(correlation 0.97-0.99) for ``resolve``, ``oracle`` and small schemes,
where a plain integer loop with dictionary lookups gets slope 0.7.

Calibration chunks run between items, never inside one, and their time is
excluded from the pass time.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

CAL_REF_S = 0.005
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 2.0
CAL_MIN_SAMPLES = 5
CAL_REPEAT = 12


class _Class(tuple):
    """A 7-coefficient class the way the package builds its own: a tuple
    subclass that validates in ``__new__``."""

    __slots__ = ()

    def __new__(cls, coeffs):
        t = tuple(coeffs)
        if len(t) != 7:
            raise ValueError("need 7 coefficients")
        for c in t:
            if not isinstance(c, int):
                raise TypeError("non-integer coefficient")
        return tuple.__new__(cls, t)

    def __sub__(self, o):
        return _Class((self[0] - o[0], self[1] - o[1], self[2] - o[2], self[3] - o[3],
                       self[4] - o[4], self[5] - o[5], self[6] - o[6]))

    def dot(self, o):
        return (self[0] * o[0] - self[1] * o[1] - self[2] * o[2] - self[3] * o[3]
                - self[4] * o[4] - self[5] * o[5] - self[6] * o[6])


#: Exceptional curves of six points: the six points and the 15 lines
#: through two of them.
_CURVES = tuple(
    [_Class((0,) + tuple(-(j == i) for j in range(6))) for i in range(6)]
    + [_Class((1,) + tuple(int(j in (a, b)) for j in range(6)))
       for a in range(6) for b in range(a + 1, 6)])


def calibration_chunk() -> int:
    """Fixed work of the same kind as the package's hot loops: strip curves
    off a series of classes, one curve at a time, caching every class met."""
    acc = 0
    for rep in range(CAL_REPEAT):
        cache: dict = {}
        for m in range(3, 40):
            cur = _Class((2 * m + rep, m, m - 1, m - 2, 1, 2, 0))
            steps = 0
            while cur[0] >= 0 and steps < 60:
                hit = None
                for c in _CURVES:
                    if cur.dot(c) < 0:
                        hit = c
                        break
                if hit is None:
                    break
                cur = cur - hit
                steps += 1
                cache[cur] = steps
            acc += steps
        acc += len(cache)
    return acc


@dataclass
class PassTiming:
    """Timings of one pass; ``seconds`` and ``latencies`` are calibrated."""

    seconds: float
    latencies: list
    raw_seconds: float
    raw_latencies: list
    speed: float  # median chunk time / CAL_REF_S; above 1 is a slow host


class Meter:
    """Times the items of one pass at a time; see the module doc.

    ``start()`` and ``stop()`` bracket a pass; ``item(id)`` is the context
    manager the workload wraps around each item.  With a tracer, each item
    is also a root span of the trace.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer

    def start(self):
        self._cal: list = []  # (start, duration)
        self._items: list = []  # (start, latency)
        self._begin = time.perf_counter()
        self._calibrate()

    def _calibrate(self):
        t = time.perf_counter()
        calibration_chunk()
        self._cal.append((t, time.perf_counter() - t))

    def item(self, item_id):
        if time.perf_counter() - self._cal[-1][0] >= CAL_EVERY_S:
            self._calibrate()
        return _Item(self, item_id)

    def stop(self) -> PassTiming:
        self._calibrate()
        end = time.perf_counter()
        starts = [t for t, _ in self._cal]
        cal_total = sum(d for _, d in self._cal)

        def scale(t):
            lo = bisect.bisect_left(starts, t - CAL_WINDOW_S)
            hi = bisect.bisect_right(starts, t + CAL_WINDOW_S)
            while hi - lo < min(CAL_MIN_SAMPLES, len(starts)):
                # widen towards the side with the nearer sample
                if lo > 0 and (hi == len(starts) or t - starts[lo - 1] < starts[hi] - t):
                    lo -= 1
                else:
                    hi += 1
            return CAL_REF_S / statistics.median(d for _, d in self._cal[lo:hi])

        seconds = 0.0
        for (t0, d0), (t1, _) in zip(self._cal, self._cal[1:]):
            gap = t1 - (t0 + d0)
            seconds += gap * scale(t0 + d0 + gap / 2)
        raw = [lat for _, lat in self._items]
        return PassTiming(
            seconds=seconds,
            latencies=[lat * scale(t) for t, lat in self._items],
            raw_seconds=end - self._begin - cal_total,
            raw_latencies=raw,
            speed=statistics.median(d for _, d in self._cal) / CAL_REF_S)


class _Item:
    def __init__(self, meter: Meter, item_id):
        self.meter = meter
        self.item_id = item_id
        self.span = None
        self.keep = True

    def discard(self):
        """Time spent here belongs to the pass but to no item."""
        self.keep = False

    def __enter__(self):
        if self.meter.tracer is not None:
            self.span = self.meter.tracer.item(self.item_id)
            self.span.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        lat = time.perf_counter() - self.start
        if self.span is not None:
            self.span.__exit__(*exc)
        if self.keep:
            self.meter._items.append((self.start, lat))
        return False
