"""Host-speed calibration for the timed runs.

On a shared host the speed of this process drifts: on the 2-core Xeon
virtual machine where the benchmark was written, the same certificate took from
0.19 s to 0.33 s within a few minutes, in stretches of seconds to a minute.
Run-to-run spreads of raw times were 10-25 %, too wide for any useful bound.

A SIGALRM timer interrupts the timed calls every ``INTERVAL`` seconds and
runs a fixed pure-Python reference loop that shares no code with pentacc.
The time spent in the interruption is taken out of the operation's time,
and the operation is rescaled by how fast the reference loop ran around it:

    ref_time = net_time * REF_LOOP_S / mean(reference loop times)

so a host running slow stretches both by the same factor.  The reference
loop cannot move with a change to pentacc, so a change to the program still
moves ``ref_time`` in full.  Signals reach Python between bytecodes, so long
pure-Python calls are sampled throughout; numpy calls delay the sample until
they return.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.05
LOOP_ITERATIONS = 2000
# median reference-loop time on the host the benchmark was written on
REF_LOOP_S = 0.0020
# an operation shorter than this many samples borrows the latest ones
MIN_SAMPLES = 8


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def add(self, other):
        return _Pair(self.a + other.a, self.b + other.b)


def reference_loop(n: int = LOOP_ITERATIONS) -> float:
    """Fixed object-allocating float work, like the interval layer's."""
    p, q, acc = _Pair(0.5, 1.5), _Pair(0.25, 0.75), 0.0
    for _ in range(n):
        r = p.add(q)
        p = _Pair(math.sqrt(abs(r.a)), min(r.a, r.b) * 0.999)
        acc += max(p.a, p.b)
    return acc


class SpeedProbe:
    """Samples host speed on a timer while the timed calls run."""

    def __init__(self):
        self.loops: list = []     # seconds of each reference loop
        self.handler_s = 0.0      # total seconds spent in the interruptions
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.loops.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        return len(self.loops), self.handler_s

    def rescale(self, start: tuple, raw_s: float) -> tuple:
        """(net seconds, reference seconds) of a call timed from ``start``.

        The speed factor uses the samples taken during the call, or the
        latest MIN_SAMPLES when the call was too short to collect that many
        (the host's speed holds for seconds at a time).
        """
        i0, h0 = start
        i1 = len(self.loops)
        net = raw_s - (self.handler_s - h0)
        window = self.loops[max(0, min(i0, i1 - MIN_SAMPLES)):i1]
        return net, net * REF_LOOP_S / statistics.fmean(window)
