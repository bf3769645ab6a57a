"""Timed point-to-point transfers over a topology.

:class:`Fabric` turns a :class:`~repro.cluster.topology.Topology` into an
executable data-movement service: ``fabric.transfer(src, dst, nbytes)``
returns an event that fires once the transfer has occupied every link on
the route for the wormhole (cut-through) transfer time

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

import networkx as nx

from repro.cluster.topology import Device, RouteInfo, Topology
from repro.sim import Environment
from repro.sim.engine import Event, Token
from repro.sim.fastpath import fast_path_enabled

__all__ = ["Fabric", "FastPathStats", "LinkDownError", "Transfer", "TransferStats"]


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
                 bandwidth_derate: float = 1.0) -> Event:
        """An event firing when ``nbytes`` have moved from ``src`` to ``dst``.

        Its value is the elapsed seconds; it fails with
        :class:`LinkDownError` if the route is down.  ``src == dst``
        completes with 0.  ``nbytes`` may be 0 (a pure control message
        still pays route latency).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if not 0 < bandwidth_derate <= 1.0:
            raise ValueError(f"bandwidth_derate must be in (0, 1], got {bandwidth_derate}")
        return Transfer(self, src, dst, nbytes, extra_latency, bandwidth_derate).done

    def _fast_transfer_viable(self, info: RouteInfo) -> bool:
        """True when the closed-form shortcut is provably equivalent.

        The reference path acquires the route's links through one queued
        grant firing per link, popped in sequence at the current timestamp.
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


class Transfer(Token):
    """One transfer: its lane token and the state machine that drives it.

    The machine runs, between two firings of the token, exactly the code
    a generator transfer runs between two ``yield`` statements, so it
    schedules the same events in the same order (DESIGN.md,
    "Callback-driven sends"):

    1. start (URGENT, like a process start): look the route up;
    2. :meth:`_move`: fail if a route link is down; take the fast path
       if its guard holds, else request the route's links one at a
       time in canonical acquire order, one grant firing per link;
    3. once all are held: fail if a link went down meanwhile
       (releasing them), else hold for the transfer time;
    4. release, account, report to the tracer, then :meth:`_moved`.

    The token itself is the links' holder.  A failed route check calls
    :meth:`_link_down`.  Both hooks settle :attr:`done` here; a subclass
    (the MPI send) overrides them to compose retries, rendezvous and
    delivery around the transfer without any extra event.
    """

    __slots__ = ("fabric", "done", "src", "dst", "nbytes", "extra_latency",
                 "bandwidth_derate", "route", "start", "acquired_at",
                 "duration", "held")

    def __init__(self, fabric: Fabric, src: Device, dst: Device, nbytes: int,
                 extra_latency: float, bandwidth_derate: float) -> None:
        super().__init__(fabric.env)
        self.fabric = fabric
        #: Fires with the elapsed seconds, or fails, when the transfer ends.
        self.done = Event(fabric.env)
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.extra_latency = extra_latency
        self.bandwidth_derate = bandwidth_derate
        self.urgent(self._start)

    def _start(self, _token: Event) -> None:
        # The route is looked up when the transfer starts, not when it is
        # created: events earlier in the instant may have re-routed.
        try:
            route = self.fabric.topology.route_info(self.src, self.dst)
        except nx.NetworkXException as exc:  # a device off the topology
            self.done.fail(exc)
            return
        if route is None:
            self.done.succeed(0.0)
            return
        self.route = route
        self._move()

    # -- hooks ---------------------------------------------------------------
    def _moved(self, elapsed: float) -> None:
        """The payload arrived ``elapsed`` seconds after :meth:`_move`."""
        self.done.succeed(elapsed)

    def _link_down(self, error: LinkDownError) -> None:
        """The route crossed a down link; nothing is held."""
        self.done.fail(error)

    # -- machine ---------------------------------------------------------------
    def _move(self) -> None:
        """Move ``nbytes`` over :attr:`route`, which must be current."""
        env = self.env
        self.start = env._now
        route = self.route
        for link in route.links:
            if not link.up:
                self._link_down(LinkDownError(link.label))
                return
        self.duration = (
            route.latency_s
            + self.extra_latency
            + self.nbytes / (route.bottleneck_Bps * self.bandwidth_derate)
        )
        fabric = self.fabric
        if fast_path_enabled() and fabric._fast_transfer_viable(route):
            # Flow-level shortcut: the route is uncontended and the
            # queue is quiet at this instant, so every grant firing
            # would pop back-to-back right now.  Hold the links without
            # those firings; only the hold firing remains.
            order = route.acquire_order
            for link in order:
                link.resource._users.add(self)
            fs = fabric.fast_stats
            fs.fast += 1
            fs.events_elided += len(order)
            self._acquired()
            return
        fabric.fast_stats.fallback += 1
        # Canonical global order is deadlock-free: every transfer holding
        # link k can only be waiting on links > k.
        self.held = 0
        route.acquire_order[0].resource.acquire(self, self._granted)

    def _granted(self, _token: Event) -> None:
        order = self.route.acquire_order
        held = self.held = self.held + 1
        if held < len(order):
            order[held].resource.acquire(self, self._granted)
        else:
            self._acquired()

    def _acquired(self) -> None:
        self.acquired_at = self.env._now
        route = self.route
        # A link may have flapped down while we queued for the route;
        # release everything and fail so the sender can back off.
        for down in route.links:
            if not down.up:
                for link in route.acquire_order:
                    link.resource.release(self)
                self._link_down(LinkDownError(down.label))
                return
        self.after(self.duration, self._arrived)

    def _arrived(self, _token: Event) -> None:
        env = self.env
        route = self.route
        nbytes = self.nbytes
        duration = self.duration
        for link in route.acquire_order:
            link.bytes_carried += nbytes
            link.busy_seconds += duration
            link.resource.release(self)
        elapsed = env._now - self.start
        fabric = self.fabric
        fabric.stats.record(nbytes, elapsed, route.links)
        tracer = fabric.tracer
        if tracer is not None and tracer.link_detail:
            tracer.on_transfer(self.src, self.dst, nbytes, self.start,
                               self.acquired_at, env._now, route)
        self._moved(elapsed)
