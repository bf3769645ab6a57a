"""A ``signal.setitimer`` stack sampler that buckets host CPU time by
``repro.<pkg>``.

Every ``INTERVAL_S`` of process CPU time the kernel raises ``SIGPROF``.
The handler walks the stack of every live thread and charges each
thread the CPU time it used since the previous sample
(``pthread_getcpuclockid``), so threads blocked in ``sleep``, ``select``
or a lock contribute nothing and busy threads contribute what they
burned.  A sample's *self* bucket is the innermost frame whose module is
``repro.<pkg>``: stdlib code called from the program (``json``,
``pickle``, ``heapq``, ``http``) counts as the calling package's self
time.  Its *inclusive* buckets are every ``repro`` package on the stack.
Stacks with no ``repro`` frame land in ``other`` (the benchmark itself,
interpreter start-up, bare stdlib threads).  Threads the caller tags
(``tag_thread``) are charged to the tag regardless of stack: the
benchmark's HTTP client threads run ``repro.service.client`` code that
would otherwise be booked as server time.

The sampler only sees its own process.  A fork child gets a fresh
sampler through :meth:`reset_after_fork`; exec'd subprocesses (fabric
workers) are invisible.
"""

from __future__ import annotations

import signal
import sys
import threading
import time

__all__ = ["OTHER", "StackSampler", "classify", "package_of"]

#: Bucket for samples with no ``repro`` frame on the stack.
OTHER = "other"
#: Process CPU time between samples.
INTERVAL_S = 0.01


def package_of(module: str) -> str | None:
    """``"repro.sim.engine"`` -> ``"sim"``; non-program modules -> None."""
    if module == "repro" or module == "__main__":
        return None
    if module.startswith("repro."):
        return module.split(".", 2)[1]
    return None


def classify(modules) -> tuple[str, list[str]]:
    """(self bucket, inclusive buckets) of a stack of module names.

    ``modules`` is ordered innermost frame first.
    """
    self_bucket = None
    inclusive: list[str] = []
    for module in modules:
        pkg = package_of(module)
        if pkg is None:
            continue
        if self_bucket is None:
            self_bucket = pkg
        if pkg not in inclusive:
            inclusive.append(pkg)
    if self_bucket is None:
        return OTHER, [OTHER]
    return self_bucket, inclusive


def frame_modules(frame):
    """Module names from ``frame`` outwards (innermost first)."""
    while frame is not None:
        yield frame.f_globals.get("__name__", "")
        frame = frame.f_back


def _thread_cpu(ident: int) -> float | None:
    try:
        return time.clock_gettime(time.pthread_getcpuclockid(ident))
    except (OSError, OverflowError, ValueError):
        return None


class StackSampler:
    """CPU-weighted all-thread stack sampler driven by ``ITIMER_PROF``."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.running = False
        self._last_cpu: dict[int, float] = {}
        self._tags: dict[int, str] = {}
        self._previous = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Baseline every thread's CPU clock and arm the timer."""
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        self._baseline()
        self.running = True
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer and restore the previous handler."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.running = False

    def reset_after_fork(self) -> None:
        """In a fork child: drop the parent's totals, re-arm the timer.

        Interval timers are not inherited across ``fork``; the handler
        is.
        """
        self.self_s, self.inclusive_s, self.samples = {}, {}, {}
        self._tags = {}
        if self.running:
            self._baseline()
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def tag_thread(self, bucket: str) -> None:
        """Charge the calling thread's CPU to ``bucket`` from now on."""
        self._tags[threading.get_ident()] = bucket

    # -- sampling ------------------------------------------------------------
    def _baseline(self) -> None:
        self._last_cpu = {}
        for ident in sys._current_frames():
            cpu = _thread_cpu(ident)
            if cpu is not None:
                self._last_cpu[ident] = cpu

    def _on_signal(self, signum, frame) -> None:
        self.sample(frame)

    def sample(self, main_frame=None) -> None:
        """Charge each thread's CPU delta to its current stack.

        ``main_frame`` replaces the main thread's stack (whose top is
        this handler while a signal is being served).
        """
        main = threading.main_thread().ident
        frames = sys._current_frames()
        for ident, frame in frames.items():
            cpu = _thread_cpu(ident)
            if cpu is None:
                continue
            last = self._last_cpu.get(ident, 0.0)
            self._last_cpu[ident] = cpu
            # A smaller reading means the ident was reused by a new
            # thread: everything on its clock is new.
            delta = cpu - last if cpu >= last else cpu
            if delta <= 0.0:
                continue
            tag = self._tags.get(ident)
            if tag is not None:
                own, inclusive = tag, [tag]
            else:
                if ident == main and main_frame is not None:
                    frame = main_frame
                own, inclusive = classify(frame_modules(frame))
            self.self_s[own] = self.self_s.get(own, 0.0) + delta
            self.samples[own] = self.samples.get(own, 0) + 1
            for bucket in inclusive:
                self.inclusive_s[bucket] = (
                    self.inclusive_s.get(bucket, 0.0) + delta)
        if len(self._last_cpu) > 4 * len(frames) + 64:
            self._last_cpu = {i: c for i, c in self._last_cpu.items()
                              if i in frames}

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict totals (mergeable across processes)."""
        return {"self_s": dict(self.self_s),
                "inclusive_s": dict(self.inclusive_s),
                "samples": dict(self.samples)}
