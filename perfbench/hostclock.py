"""A clock that discounts the speed changes of a shared host.

On a shared virtual machine the same Python code runs at speeds up to 2x
apart, in phases that switch within a second, and process CPU time moves
with wall time: the vCPU is not taken away, it runs slower.  So while
the clock runs, a SIGALRM every PROBE_EVERY_S seconds times a fixed
pure-Python probe: a small register-machine loop of dict, tuple and
attribute work, the kind of work ctlin's interpreter does.  It never
calls ctlin, so a change to ctlin cannot change the probe.

`span(t0, t1)` turns a wall-clock span into reference seconds: the wall
time, less the probes that ran inside it, times the mean of
REF_PROBE_S / probe over the probes inside it and one period either
side.  REF_PROBE_S is the probe's time in the fast phase of the 2-vCPU
host the bounds were set on, so a reference second is about a second
there.  No threads: the probe runs in the main thread, between
bytecodes, when the signal arrives.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_EVERY_S = 0.02
PROBE_ROUNDS = 40
REF_PROBE_S = 135e-6

M64 = (1 << 64) - 1
_OPS = {"add": lambda a, b: (a + b) & M64,
        "mul": lambda a, b: (a * b) & M64,
        "xor": lambda a, b: a ^ b}
_PROG = [("add", "a", "a", 3), ("mul", "b", "a", 7), ("xor", "c", "b", 5),
         ("add", "a", "c", 1)] * 4


class _Cell:
    __slots__ = ("v",)


def probe_work(rounds: int = PROBE_ROUNDS) -> int:
    regs = {"a": 1}
    cells = [_Cell() for _ in range(8)]
    for i in range(rounds):
        for op, dst, a, b in _PROG:
            regs[dst] = _OPS[op](regs.get(a, 0), b)
        cells[i & 7].v = regs["a"]
    return regs["a"]


class HostClock:
    def __init__(self):
        self.at = []        # probe start times, increasing
        self.speed = []     # REF_PROBE_S / probe time
        self.cost = []      # time the handler took, probe included
        self._old = None

    def start(self):
        self._sample(None, None)    # so that every span has a probe
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        try:
            probe_work()
        except RecursionError:
            # the signal came deep inside recursive ctlin code; the probe
            # must not turn into a crash of the job it interrupted
            return
        t1 = time.perf_counter()
        self.at.append(t0)
        self.speed.append(REF_PROBE_S / (t1 - t0))
        self.cost.append(time.perf_counter() - t0)

    def span(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall-clock span [t0, t1]."""
        at = self.at
        i = bisect.bisect_left(at, t0 - PROBE_EVERY_S)
        k = bisect.bisect_right(at, t1 + PROBE_EVERY_S)
        # a span that ends before its next probe still has the one before
        speeds = self.speed[i:k] or self.speed[k - 1:k]
        if not speeds:
            raise RuntimeError("no host-speed probe near the span; "
                               "is the clock running?")
        inside = self.cost[bisect.bisect_left(at, t0):
                           bisect.bisect_right(at, t1)]
        return (t1 - t0 - sum(inside)) * sum(speeds) / len(speeds)
