"""Timed point-to-point transfers over a topology.

:class:`Fabric` turns a :class:`~repro.cluster.topology.Topology` into an
executable data-movement service: ``fabric.transfer(src, dst, nbytes)``
returns a simulation process that occupies every link on the route for the
wormhole (cut-through) transfer time

    T = Σ link latencies + extra_latency + nbytes / (min link bandwidth × derate)

Contention is modeled by link serialization: a transfer must acquire all
route links (in canonical global order, which makes deadlock impossible)
before the clock starts.  This is the flow-level model standard in
collective-algorithm analysis (the α–β model with explicit shared links).

``bandwidth_derate`` is how MPI library profiles express imperfect
pipelining (e.g. host-staged sends through Spectrum MPI achieve ~70–80% of
raw link bandwidth); ``extra_latency`` expresses per-message software
overheads (protocol handshakes, staging-buffer management).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.topology import Device, RouteInfo, Topology
from repro.sim import Environment
from repro.sim.engine import Timeout
from repro.sim.fastpath import fast_path_enabled
from repro.sim.resources import Request

__all__ = ["Fabric", "FastPathStats", "LinkDownError", "TransferStats"]


class LinkDownError(RuntimeError):
    """Raised when a transfer's route crosses a link that is down.

    Flapping-rail fault injection marks links down; senders (the MPI
    layer) catch this and retry with backoff until the link comes back or
    their transfer timeout expires.
    """

    def __init__(self, label: str) -> None:
        super().__init__(f"link {label} is down")
        self.label = label


@dataclass
class FastPathStats:
    """Counters for the flow-level transfer shortcut (diagnostics only).

    Excluded from every compared payload: the split between fast and
    reference transfers depends on queue coincidences, and the whole
    point of the fast path is that the split is *unobservable* in
    simulated time.
    """

    #: Transfers completed through the closed-form shortcut.
    fast: int = 0
    #: Transfers that took the reference per-step path.
    fallback: int = 0
    #: Kernel events elided (one grant event per fast-acquired link).
    events_elided: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of transfers that took the shortcut."""
        total = self.fast + self.fallback
        return self.fast / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-able snapshot for diagnostics and E17 reporting."""
        return {
            "fast": self.fast,
            "fallback": self.fallback,
            "events_elided": self.events_elided,
            "hit_rate": round(self.hit_rate, 6),
        }


@dataclass
class TransferStats:
    """Aggregate accounting of everything a fabric has carried."""

    transfers: int = 0
    bytes_moved: int = 0
    seconds_busy: float = 0.0
    #: Per-link-type byte counters, e.g. ``{"nvlink2-gg": ..., "ib-edr": ...}``.
    bytes_by_link_type: dict[str, int] = field(default_factory=dict)

    def record(self, nbytes: int, seconds: float, links) -> None:
        """Account one completed transfer over ``links``."""
        self.transfers += 1
        self.bytes_moved += nbytes
        self.seconds_busy += seconds
        by_type = self.bytes_by_link_type
        for link in links:
            lt = link.spec.name
            by_type[lt] = by_type.get(lt, 0) + nbytes


class Fabric:
    """Executable data-movement service over a :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.env: Environment = topology.env
        self.stats = TransferStats()
        self.fast_stats = FastPathStats()
        #: Optional span recorder (``repro.trace``); observation only.
        self.tracer: Any = None

    def transfer_seconds(self, src: Device, dst: Device, nbytes: int,
                         extra_latency: float = 0.0,
                         bandwidth_derate: float = 1.0) -> float:
        """Unloaded (contention-free) transfer time for planning/validation."""
        route = self.topology.route(src, dst)
        if not route:
            return 0.0
        latency = sum(link.latency_s for link in route) + extra_latency
        bottleneck = min(link.bandwidth_Bps for link in route) * bandwidth_derate
        return latency + nbytes / bottleneck

    def utilization_report(self, elapsed_seconds: float | None = None) -> dict[str, dict]:
        """Per-link-type utilization summary.

        Returns ``{link_type: {links, bytes, busy_s, mean_utilization}}``
        over ``elapsed_seconds`` (default: current simulation time).
        This is the view that shows *where* a collective's time went —
        e.g. the per-node EDR rails saturating under the default
        configuration while NVLink sits idle.
        """
        elapsed = self.env.now if elapsed_seconds is None else elapsed_seconds
        report: dict[str, dict] = {}
        for link in self.topology.links():
            entry = report.setdefault(
                link.spec.name,
                {"links": 0, "bytes": 0, "busy_s": 0.0, "mean_utilization": 0.0},
            )
            entry["links"] += 1
            entry["bytes"] += link.bytes_carried
            entry["busy_s"] += link.busy_seconds
        for entry in report.values():
            if elapsed > 0 and entry["links"]:
                entry["mean_utilization"] = min(
                    1.0, entry["busy_s"] / (entry["links"] * elapsed)
                )
        return report

    def transfer(self, src: Device, dst: Device, nbytes: int,
                 extra_latency: float = 0.0,
                 bandwidth_derate: float = 1.0):
        """A simulation process moving ``nbytes`` from ``src`` to ``dst``.

        Yields until the transfer completes; returns the elapsed seconds.
        ``src == dst`` completes immediately with 0.  ``nbytes`` may be 0
        (a pure control message still pays route latency).
        """
        return self.env.process(self.transfer_gen(src, dst, nbytes,
                                                  extra_latency, bandwidth_derate))

    def transfer_gen(self, src: Device, dst: Device, nbytes: int,
                     extra_latency: float = 0.0,
                     bandwidth_derate: float = 1.0):
        """Generator form of :meth:`transfer`, for ``yield from`` embedding.

        Embedding avoids one :class:`~repro.sim.engine.Process` per
        message — the difference between minutes and seconds on
        132-rank collective simulations.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if not 0 < bandwidth_derate <= 1.0:
            raise ValueError(f"bandwidth_derate must be in (0, 1], got {bandwidth_derate}")
        return self._routed_transfer(src, dst, nbytes, extra_latency, bandwidth_derate)

    def _routed_transfer(self, src, dst, nbytes, extra_latency, bandwidth_derate):
        # The route is looked up when the generator starts, not when it
        # is created: under :meth:`transfer` the process starts later in
        # the instant, after events that may have re-routed the pair.
        info = self.topology.route_info(src, dst)
        if info is None:
            return 0.0
        return (yield from self.route_transfer_gen(
            info, src, dst, nbytes, extra_latency, bandwidth_derate))

    def _fast_transfer_viable(self, info) -> bool:
        """True when the closed-form shortcut is provably equivalent.

        The reference path acquires the route's links through one queued
        grant event per link, popped in sequence at the current timestamp.
        Eliding those events is safe exactly when nothing else could have
        interleaved between the grant pops:

        * every route link is **idle** (free with an empty wait queue), so
          each grant would have been immediate; and
        * no other event is pending at the current timestamp — neither in
          the queue (``peek() > now``) nor later in the current dispatch
          cascade (``_cascade_rest == 0``) — so no concurrent process can
          request a route link, flap it down, or observe its occupancy
          between the grants the reference path would have scheduled.

        Under these conditions the shortcut acquires at the same instant,
        computes the same duration float, and releases at the same
        instant as the reference path; only the grant events (and hence
        the kernel event counter) differ.
        """
        env = self.env
        queue = env._queue
        if (env._cascade_rest or env._urgent or env._ready
                or (queue and queue[0][0] <= env._now)):
            return False
        for link in info.acquire_order:
            resource = link.resource
            if resource._waiting or len(resource._users) >= resource.capacity:
                return False
        return True

    def route_transfer_gen(self, info: RouteInfo, src: Device, dst: Device,
                           nbytes: int, extra_latency: float,
                           bandwidth_derate: float):
        """:meth:`transfer_gen` over an already looked-up, current route.

        The hot path for callers that cache ``info`` per device pair
        (:class:`~repro.mpi.communicator.Comm`): it skips the argument
        checks and the route lookup, so the caller must pass valid
        arguments and a route no older than
        :attr:`Topology.route_epoch <repro.cluster.topology.Topology.route_epoch>`.
        """
        env = self.env
        start = env._now
        links = info.links
        for link in links:
            if not link.up:
                raise LinkDownError(link.label)
        duration = (
            info.latency_s
            + extra_latency
            + nbytes / (info.bottleneck_Bps * bandwidth_derate)
        )
        order = info.acquire_order
        if fast_path_enabled() and self._fast_transfer_viable(info):
            # Flow-level shortcut: the route is uncontended and the
            # queue is quiet at this instant, so the reference path's
            # grant events would all pop back-to-back right now.
            # Acquire event-free; only the duration timeout remains.
            held = [link.resource.try_acquire() for link in order]
            fs = self.fast_stats
            fs.fast += 1
            fs.events_elided += len(order)
        else:
            self.fast_stats.fallback += 1
            # Reference path: acquire links in canonical global order
            # (deadlock-free: every transfer holding link k can only be
            # waiting on links > k).
            held = []
            for link in order:
                req = Request(link.resource)
                yield req
                held.append(req)
        acquired_at = env._now
        # A link may have flapped down while we queued for the route;
        # release everything and fail so the sender can back off.
        for down in links:
            if not down.up:
                for link, req in zip(order, held):
                    link.resource.release(req)
                raise LinkDownError(down.label)
        yield Timeout(env, duration)
        for link, req in zip(order, held):
            link.bytes_carried += nbytes
            link.busy_seconds += duration
            link.resource.release(req)
        elapsed = env._now - start
        self.stats.record(nbytes, elapsed, links)
        if self.tracer is not None and self.tracer.link_detail:
            self.tracer.on_transfer(src, dst, nbytes, start, acquired_at,
                                    env._now, info)
        return elapsed
