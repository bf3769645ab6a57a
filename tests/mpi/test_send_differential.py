"""Differential test: callback-driven sends against the generator sends
they replaced.

A message used to be a :class:`~repro.sim.Process` running a send
generator that delegated to a generator transfer body; a raw
``Fabric.transfer`` was a process over the same body.  Both now run as
state machines on one re-armed token (:class:`repro.cluster.fabric.
Transfer` and the communicator's send), which must schedule the same
events in the same order.  :func:`reference_send` and
:func:`reference_transfer` below are the generator versions, kept here
as the reference; :class:`ReferenceComm` and :func:`reference_fabric_
transfer` wire them in where the communicator and fabric use the new
machines.

Seeded random schedules mix eager and rendezvous sends (receive posted
before, with and after the send), self-sends, raw fabric transfers,
contended links, allreduces, and links flapping down before or during
acquisition (retries, then :class:`~repro.mpi.TransferTimeout`), with
the fast path on and off and the span tracer on or off.  Every
dispatch ``(time, eid, kind, queue depth)`` must be equal, where a
send's or transfer's internal firings (process start, link grants,
RTS, round trip, hold, backoff) are one kind and its completion
another; so must every outcome, counter, link tally and span.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque

import numpy as np
import pytest

from repro.cluster import Fabric, build_summit
from repro.cluster.fabric import LinkDownError, Transfer
from repro.mpi import MVAPICH2_GDR, Comm, TransferTimeout, VirtualBuffer
from repro.mpi.payload import ops_for
from repro.sim import Environment, Process, fast_path
from repro.sim.engine import Timeout
from repro.sim.fastpath import fast_path_enabled
from repro.sim.resources import Request
from repro.trace.spans import SpanRecorder

SIZES = (0, 8, 4096, 65536, 1 << 20, 8 << 20)
EAGER = (0, 4096, 1 << 20)
DELAYS = (0.0, 0.0, 1e-6, 5e-6, 2e-5, 1e-4, 5e-4)
ACTIONS = ("p2p", "p2p", "p2p", "raw", "allreduce", "flap", "wait")


# -- the reference: generator sends ---------------------------------------------
class _Held:
    """Event-free link holder of the reference fast path."""

    __slots__ = ()


def reference_transfer(fabric, info, src, dst, nbytes, extra_latency,
                       bandwidth_derate):
    """The generator transfer body over a current route."""
    env = fabric.env
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
    if fast_path_enabled() and fabric._fast_transfer_viable(info):
        held = []
        for link in order:
            grant = _Held()
            link.resource._users.add(grant)
            held.append(grant)
        fs = fabric.fast_stats
        fs.fast += 1
        fs.events_elided += len(order)
    else:
        fabric.fast_stats.fallback += 1
        held = []
        for link in order:
            req = Request(link.resource)
            yield req
            held.append(req)
    acquired_at = env._now
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
    fabric.stats.record(nbytes, elapsed, links)
    if fabric.tracer is not None and fabric.tracer.link_detail:
        fabric.tracer.on_transfer(src, dst, nbytes, start, acquired_at,
                                  env._now, info)
    return elapsed


def reference_routed_transfer(fabric, src, dst, nbytes, extra_latency,
                              bandwidth_derate):
    """A raw fabric transfer: route looked up when the process starts."""
    info = fabric.topology.route_info(src, dst)
    if info is None:
        return 0.0
    return (yield from reference_transfer(
        fabric, info, src, dst, nbytes, extra_latency, bandwidth_derate))


def reference_fabric_transfer(fabric, src, dst, nbytes):
    return fabric.env.process(
        reference_routed_transfer(fabric, src, dst, nbytes, 0.0, 1.0))


def reference_send(comm, src, dst, payload, tag):
    """The generator send: rendezvous, retry with backoff, deposit."""
    ops = ops_for(payload)
    nbytes = ops.nbytes(payload)
    key = (src, tag)
    if src == dst:
        comm._deposit(dst, key, payload)
        return 0.0
    lib = comm.library
    mb = comm._mailboxes[dst]
    if lib.uses_rendezvous(nbytes):
        if mb.posted.get(key, 0) > 0:
            mb.posted[key] -= 1
            if not mb.posted[key]:
                del mb.posted[key]
        else:
            ready = comm.env.event()
            mb.rts_waiters.setdefault(key, deque()).append(ready)
            yield ready
        yield comm.env.timeout(lib.rendezvous_rtt_s)
    pair = comm._pairs.get((src, dst))
    if pair is None:
        pair = comm._pair(src, dst)
    topology = comm.fabric.topology
    attempt = 0
    waited = 0.0
    while True:
        if pair.epoch != topology.route_epoch:
            pair.route = topology.route_info(pair.src_dev, pair.dst_dev)
            pair.epoch = topology.route_epoch
        try:
            elapsed = yield from reference_transfer(
                comm.fabric, pair.route, pair.src_dev, pair.dst_dev, nbytes,
                pair.extra_latency, pair.bandwidth_derate)
            break
        except LinkDownError as down:
            backoff = comm.retry_backoff_s * (2 ** attempt)
            if waited + backoff > comm.transfer_timeout_s:
                comm.transfer_timeouts += 1
                raise TransferTimeout(
                    f"transfer {src}->{dst} ({nbytes} B) gave up after "
                    f"{attempt} retries / {waited:.3f}s backoff: {down}"
                ) from down
            comm.transfer_retries += 1
            attempt += 1
            waited += backoff
            yield comm.env.timeout(backoff)
    comm._deposit(dst, key, payload)
    return elapsed


class RecordingComm(Comm):
    """Keeps every completion event its sends return."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.completions: set = set()

    def _isend(self, src, dst, payload, tag):
        done = super()._isend(src, dst, payload, tag)
        self.completions.add(done)
        return done


class ReferenceComm(RecordingComm):
    """A communicator whose sends are generator processes."""

    def _isend(self, src, dst, payload, tag):
        self.messages_sent += 1
        done = Process(self.env, reference_send(self, src, dst, payload, tag))
        self.completions.add(done)
        return done


_REFERENCE_CODES = {reference_send.__code__,
                    reference_routed_transfer.__code__}


# -- the schedule -----------------------------------------------------------------
class SendLog:
    """Monitor recording each dispatch as ``(time, eid, kind, depth)``.

    ``kind`` is ``"step"`` for a send's or transfer's internal firing
    (the new token; in the reference, an event whose only waiter is a
    send process), ``"done"`` for its completion and the event type
    otherwise.  ``queued`` counts dispatches that found a link grant
    waiting in some queue (contention).
    """

    def __init__(self, completions: set, resources: list) -> None:
        self.completions = completions
        self.resources = resources
        self.eids: dict = {}
        self.dispatched: list = []
        self.queued = 0

    def on_schedule(self, env, event, delay) -> None:
        self.eids[event] = env.events_scheduled

    def on_step(self, env, event, depth) -> None:
        self.dispatched.append(
            (env.now, self.eids.pop(event), self.kind(event), depth))
        if any(resource._waiting for resource in self.resources):
            self.queued += 1

    def kind(self, event) -> str:
        if event in self.completions:
            return "done"
        if isinstance(event, Transfer):
            return "step"
        callbacks = event.callbacks
        if callbacks and len(callbacks) == 1:
            proc = getattr(callbacks[0], "__self__", None)
            if (isinstance(proc, Process)
                    and proc._generator.gi_code in _REFERENCE_CODES):
                return "step"
        return type(event).__name__


def run_schedule(seed: int, reference: bool, fast: bool) -> dict:
    rng = random.Random(seed)
    env = Environment()
    topo = build_summit(env, nodes=2)
    fabric = Fabric(topo)
    gpus = topo.gpus()
    devices = gpus[:3] + gpus[6:9]
    library = dataclasses.replace(MVAPICH2_GDR,
                                  eager_threshold_bytes=rng.choice(EAGER))
    comm_cls = ReferenceComm if reference else RecordingComm
    comm = comm_cls(fabric, devices, library, retry_backoff_s=2e-5,
                    transfer_timeout_s=rng.choice((1e-4, 5e-4, 1.0)))
    tracer = None
    if rng.random() < 0.5:
        tracer = SpanRecorder(level="links")
        tracer.attach(env=env, comm=comm, fabric=fabric)
    links = {data["link"]: (a, b) for a, b, data in topo.graph.edges(data=True)}
    resources = [link.resource for link in links]
    completions = comm.completions
    log = SendLog(completions, resources)
    env.monitor = log
    outcomes: list = []
    coverage: set = set()
    # Above every tag block the allreduces reserve.
    tags = iter(range(1 << 40, 1 << 41))

    def watch(label, event):
        try:
            value = yield event
        except (TransferTimeout, LinkDownError) as exc:
            outcomes.append((label, env.now, "fail", type(exc).__name__,
                             str(exc), type(exc.__cause__).__name__))
            coverage.add(type(exc).__name__)
            return
        if isinstance(value, list):
            value = [np.asarray(v).tolist() for v in value]
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        outcomes.append((label, env.now, "ok", value))

    def p2p(wrng):
        src = wrng.randrange(len(devices))
        dst = src if wrng.random() < 0.1 else wrng.randrange(len(devices))
        nbytes = wrng.choice(SIZES)
        payload = (VirtualBuffer(nbytes) if wrng.random() < 0.7
                   else np.arange(nbytes // 8, dtype=np.float64))
        nbytes = ops_for(payload).nbytes(payload)
        tag = next(tags)
        order = wrng.choice(("recv_first", "send_first", "together"))
        delay = wrng.choice(DELAYS)
        if library.uses_rendezvous(nbytes) and src != dst:
            waits = order == "send_first" and delay > 0
            coverage.add("rts_wait" if waits else "rts_posted")
        else:
            coverage.add("eager" if src != dst else "self")
        label = ("p2p", src, dst, nbytes, tag)
        if order == "send_first":
            send = comm.isend(src, dst, payload, tag)
            env.process(watch(label + ("send",), send))
            if delay:
                yield env.timeout(delay)
            env.process(watch(label + ("recv",), comm.recv(dst, src, tag)))
        else:
            env.process(watch(label + ("recv",), comm.recv(dst, src, tag)))
            if order == "recv_first" and delay:
                yield env.timeout(delay)
            send = comm.isend(src, dst, payload, tag)
            env.process(watch(label + ("send",), send))
        if wrng.random() < 0.5:
            yield env.any_of([send, env.timeout(wrng.choice(DELAYS))])

    def actor(name, wrng):
        for _ in range(wrng.randint(3, 9)):
            action = wrng.choice(ACTIONS)
            if action == "p2p":
                yield from p2p(wrng)
            elif action == "raw":
                src, dst = wrng.choice(devices), wrng.choice(devices)
                nbytes = wrng.choice(SIZES)
                if reference:
                    done = reference_fabric_transfer(fabric, src, dst, nbytes)
                else:
                    done = fabric.transfer(src, dst, nbytes)
                completions.add(done)
                env.process(watch(("raw", str(src), str(dst), nbytes), done))
            elif action == "allreduce":
                algorithm = wrng.choice(("ring", "recursive_doubling",
                                         "hierarchical"))
                n = wrng.choice((1, 6, 600))
                payloads = [np.full(n, float(r + 1)) for r in range(comm.size)]
                done = comm.allreduce(payloads, algorithm=algorithm)
                env.process(watch(("allreduce", algorithm, n), done))
                if wrng.random() < 0.5:
                    yield env.any_of([done, env.timeout(wrng.choice(DELAYS))])
            elif action == "flap":
                a, b = wrng.choice([pair for link, pair in links.items()
                                    if "gpu" in link.label
                                    or "nic" in link.label])
                resource = topo.link(a, b).resource
                if resource._waiting:
                    coverage.add("flap_while_queued")
                elif resource.count:
                    coverage.add("flap_while_held")
                topo.set_link_up(a, b, False, duplex=wrng.random() < 0.5)
                coverage.add("flap")
                down_for = wrng.choice((0.0, 1e-5, 5e-5, 2e-4, 2e-3, None))
                if down_for is not None:
                    env.process(restore(a, b, down_for))
            else:
                yield env.timeout(wrng.choice(DELAYS))
            if wrng.random() < 0.5:
                yield env.timeout(wrng.choice(DELAYS))

    def restore(a, b, after):
        yield env.timeout(after)
        topo.set_link_up(a, b, True)

    with fast_path(fast):
        for i in range(rng.randint(2, 5)):
            env.process(actor(f"a{i}", random.Random(rng.random())))
        while True:
            # A collective's send can fail while its rank waits on
            # something else; nothing defuses that failure, so it
            # escapes the run, which then carries on.
            try:
                env.run()
                break
            except TransferTimeout as exc:
                outcomes.append(("escaped", env.now, str(exc)))
    if comm.transfer_retries:
        coverage.add("retry")
    if log.queued:
        coverage.add("contended")
    return {
        "dispatched": log.dispatched,
        "outcomes": outcomes,
        "events_scheduled": env.events_scheduled,
        "now": env.now,
        "counters": (comm.messages_sent, comm.transfer_retries,
                     comm.transfer_timeouts),
        "stats": dataclasses.asdict(fabric.stats),
        "fast_stats": fabric.fast_stats.as_dict(),
        "links": [(link.label, link.bytes_carried, link.busy_seconds,
                   link.resource.count, link.resource.queue_len)
                  for link in links],
        "spans": [span.to_dict() for span in tracer.spans] if tracer else None,
        "coverage": coverage,
    }


@pytest.mark.parametrize("fast", [False, True], ids=["reference", "fast"])
@pytest.mark.parametrize("seed", range(60))
def test_send_machine_matches_generator_send(seed, fast):
    expected = run_schedule(seed, reference=True, fast=fast)
    got = run_schedule(seed, reference=False, fast=fast)
    assert got["dispatched"] == expected["dispatched"]
    assert got == expected


def test_schedules_cover_every_send_path():
    """The seeds above reach every path of the send machine."""
    coverage: set = set()
    fast_hits = 0
    spans = 0
    for seed in range(60):
        for fast in (False, True):
            out = run_schedule(seed, reference=False, fast=fast)
            coverage |= out["coverage"]
            fast_hits += out["fast_stats"]["fast"]
            spans += bool(out["spans"])
    assert {"eager", "self", "rts_posted", "rts_wait", "flap",
            "flap_while_queued", "flap_while_held", "retry", "contended",
            "TransferTimeout", "LinkDownError"} <= coverage
    assert fast_hits > 0
    assert spans > 0
