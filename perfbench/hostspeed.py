"""Host-speed calibration, so timings compare across a shared host's moods.

The benchmark runs on a few cores of a shared host whose speed drifts
by a quarter or more over tens of seconds to minutes, as neighbours
load it: the same 24-GPU simulator point takes 1.6 s in one minute and
2.5 s in the next, in CPU time as much as in wall time.  A window's
wall time therefore measures the host as much as the program.

:class:`HostSpeed` runs a fixed pure-Python reference loop in a
background thread for a short burst every ``period`` seconds and
records the burst's rate in thread CPU time, which waiting for the GIL
or for a core does not inflate.  The loop does what the simulator's
event loop does — heap pushes and pops, dict updates, attribute reads,
and allocating and freeing small objects scattered over a working set
larger than a core's caches — so most of what slows the simulator
slows it too.  The tracking is partial: on a 2-vCPU cloud host whose
speed drifted it cut the run-to-run spread of simulator timings by half
to two thirds, and time the hypervisor steals is not in CPU time.
``factor(t0, t1)`` is the mean rate over ``[t0, t1]`` (widened to at
least ``MIN_SPAN_S``) divided by ``REF_RATE``: 1.0 on a host as fast as
the reference, 0.8 on one 20% slower.  A wall time multiplied by the
factor is in *reference seconds*: the time the same work would have
taken at the reference speed.  The bursts take about ``3 ms / period``
of the window, the same share in every run.
"""

from __future__ import annotations

import heapq
import random
import threading
import time

__all__ = ["BURST_OPS", "HostSpeed", "MIN_SPAN_S", "REF_RATE",
           "reference_loop"]

#: Reference-loop operations per burst (about 3 ms on a 2-vCPU cloud host).
BURST_OPS = 1500
#: Reference-loop operations per CPU second that count as factor 1.0:
#: about the rate the bursts reach beside the simulator on a 2-vCPU
#: cloud host.  Only ratios between runs matter; the constant keeps
#: reference seconds near wall seconds.
REF_RATE = 5.0e5
#: A factor is averaged over at least this many seconds of samples, so
#: a short interval (one service job) is not scaled by one burst.
MIN_SPAN_S = 2.0
#: Objects in the loop's working set (about 20 MB).
WORKING_SET = 300_000


class _Slot:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _working_set() -> list:
    slots = [_Slot(i & 255) for i in range(WORKING_SET)]
    # Visiting them in a shuffled order scatters the reads over memory.
    random.Random(0).shuffle(slots)
    return slots


def reference_loop(ops: int, slots: list, start: int = 0) -> int:
    """``ops`` steps of heap, dict, attribute and allocation work over
    ``slots``, from position ``start``; returns a checksum so no work is
    skipped."""
    heap: list = []
    table: dict = {}
    total = 0
    n = len(slots)
    for i in range(ops):
        at = (start + i) % n
        slot = slots[at]
        total += slot.value
        # Replacing the object allocates one and frees one, as the
        # simulator does for every event and request.
        slots[at] = _Slot(slot.value)
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        if len(heap) > 32:
            total += heapq.heappop(heap)[1]
        key = i & 127
        table[key] = table.get(key, 0) + 1
    return total + len(table)


class HostSpeed:
    """Background sampler of the host's speed; a context manager."""

    def __init__(self, period: float = 0.1, ops: int = BURST_OPS) -> None:
        self.period = period
        self.ops = ops
        #: ``(perf_counter at the end of the burst, ops per CPU second)``.
        self.samples: list = []
        self._slots = _working_set()
        self._at = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-hostspeed",
                                        daemon=True)

    def __enter__(self) -> "HostSpeed":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            self.burst()
            if self._stop.wait(self.period):
                return

    def burst(self) -> float:
        """Run one burst, record and return its rate."""
        began = time.thread_time()
        reference_loop(self.ops, self._slots, self._at)
        took = time.thread_time() - began
        self._at = (self._at + self.ops) % len(self._slots)
        if took <= 0:
            return 0.0
        rate = self.ops / took
        self.samples.append((time.perf_counter(), rate))
        return rate

    def factor(self, t0: float, t1: float) -> float:
        """Mean burst rate over ``[t0, t1]``, widened about its middle to
        ``MIN_SPAN_S``, over ``REF_RATE``; the nearest sample's rate if
        none falls inside."""
        if not self.samples:
            raise RuntimeError("no host-speed samples taken")
        middle = (t0 + t1) / 2
        lo = min(t0, middle - MIN_SPAN_S / 2)
        hi = max(t1, middle + MIN_SPAN_S / 2)
        inside = [rate for at, rate in self.samples if lo <= at <= hi]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return sum(inside) / len(inside) / REF_RATE

    def ref_seconds(self, spans) -> float:
        """Total length of the ``(t0, t1)`` spans in reference seconds."""
        return sum((t1 - t0) * self.factor(t0, t1) for t0, t1 in spans)
