"""Differential test: the kernel's event lanes against a heap-only scheduler.

:class:`~repro.sim.Environment` keeps pending events in three lanes (an
URGENT FIFO, a FIFO of zero-delay NORMAL events and a heap for the
rest).  The contract is that they dispatch in exactly the order one
``(time, priority, eid)`` heap would.  :class:`HeapEnvironment` below is
that single-heap scheduler; both run the same seeded random schedules —
zero-delay ``succeed``, timeouts landing on the same instant as
zero-delay events, process starts and interrupts, ``timeout_until(now)``,
resource grants, composite events — under a random mix of ``step()``,
``run(until=float)`` and ``run(until=Event)``.  The dispatch sequence
``(time, eid, event type, queue depth)``, ``peek()`` before every stepping
move, ``events_scheduled`` and the final clock must all be equal.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError
from repro.sim.engine import NORMAL, URGENT

#: Delays drawn by the schedules.  The grid values collide across
#: processes (0.25 + 0.25 == 0.5 exactly), and 1e-12 vanishes when added
#: to a start time of 1e9, so the timeout lands on ``now`` itself.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1e-12)
START_TIMES = (0.0, 1e9)
ACTIONS = ("timeout", "until_now", "until_later", "succeed", "wait_shared",
           "spawn", "interrupt", "all_of", "any_of", "resource")


class _HeapLane:
    """Stands in for a FIFO lane: pushes onto the reference heap instead."""

    def __init__(self, env: "HeapEnvironment", priority: int) -> None:
        self.env = env
        self.priority = priority

    def append(self, event) -> None:
        env = self.env
        # Every scheduling path bumps the eid before appending.
        heappush(env._heap, (env._now, self.priority, env._eid, event))

    def __len__(self) -> int:
        return 0


class HeapEnvironment(Environment):
    """The reference: every pending event sits in one ``(time, priority,
    eid)`` heap, popped one at a time."""

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._heap: list = []
        self._urgent = _HeapLane(self, URGENT)
        self._ready = _HeapLane(self, NORMAL)

    def _schedule(self, event, delay, at) -> None:
        self._eid += 1
        when = (self._now + delay) if at is None else at
        heappush(self._heap, (when, NORMAL, self._eid, event))
        if self.monitor is not None:
            self.monitor.on_schedule(self, event, delay)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        self._now, _, _, event = heappop(self._heap)
        if self.monitor is not None:
            self.monitor.on_step(self, event, len(self._heap))
        callbacks, event.callbacks = event.callbacks, None
        rest = len(callbacks)
        for callback in callbacks:
            rest -= 1
            self._cascade_rest = rest
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def _drain(self, horizon, until) -> None:
        while self._heap:
            if until is not None and until.callbacks is None:
                return
            if horizon is not None and self._heap[0][0] > horizon:
                return
            self.step()


class DispatchLog:
    """Monitor recording ``(time, eid, event type, depth)`` per dispatch.

    ``ties`` counts dispatches of an event scheduled before time reached
    ``now`` while an event scheduled for ``now`` was already pending: the
    heap-versus-ready-lane case the lanes must order by eid.
    """

    def __init__(self) -> None:
        self.eids: dict = {}
        self.pending_now: dict = {}
        self.dispatched: list = []
        self.ties = 0

    def on_schedule(self, env, event, delay) -> None:
        self.eids[event] = (env.events_scheduled, env.now)
        if env.now + delay == env.now:
            self.pending_now[event] = env.now

    def on_step(self, env, event, depth) -> None:
        eid, scheduled_at = self.eids.pop(event)
        self.pending_now.pop(event, None)
        if scheduled_at < env.now and env.now in self.pending_now.values():
            self.ties += 1
        self.dispatched.append((env.now, eid, type(event).__name__, depth))


def run_schedule(env_cls, seed: int):
    """Run seeded schedule ``seed`` on a fresh ``env_cls``; returns every
    observable the two schedulers must agree on."""
    rng = random.Random(seed)
    env = env_cls(rng.choice(START_TIMES))
    log = DispatchLog()
    env.monitor = log
    actions: list = []
    shared = [env.event() for _ in range(4)]
    resource = Resource(env, capacity=rng.choice((1, 2)))
    procs: list = []

    def worker(name: str, wrng: random.Random, depth: int):
        for step in range(wrng.randint(3, 10)):
            action = wrng.choice(ACTIONS)
            try:
                if action == "timeout":
                    yield env.timeout(wrng.choice(DELAYS))
                elif action == "until_now":
                    yield env.timeout_until(env.now)
                elif action == "until_later":
                    yield env.timeout_until(env.now + wrng.choice(DELAYS))
                elif action == "succeed":
                    event = wrng.choice(shared)
                    if not event.triggered:
                        event.succeed(name)
                    yield env.timeout(0)
                elif action == "wait_shared":
                    yield env.any_of([wrng.choice(shared),
                                      env.timeout(wrng.choice(DELAYS))])
                elif action == "spawn":
                    if depth < 2:
                        child_name = f"{name}.{step}"
                        child = env.process(worker(
                            child_name, random.Random(wrng.random()),
                            depth + 1))
                        procs.append((child_name, child))
                        if wrng.random() < 0.5:
                            yield child
                elif action == "interrupt":
                    # Also processes not started yet, or with an
                    # interrupt still in flight: each interrupt detaches
                    # its process from what it waits on at dispatch.
                    targets = [p for _, p in procs
                               if p.is_alive and p is not env.active_process]
                    if targets:
                        wrng.choice(targets).interrupt(name)
                    if wrng.random() < 0.5:
                        yield env.timeout(0)
                elif action == "all_of":
                    yield env.all_of([env.timeout(wrng.choice(DELAYS))
                                      for _ in range(wrng.randint(0, 3))])
                elif action == "any_of":
                    yield env.any_of([env.timeout(wrng.choice(DELAYS))
                                      for _ in range(wrng.randint(1, 3))])
                else:
                    with resource.request() as req:
                        yield req
                        yield env.timeout(wrng.choice(DELAYS))
                actions.append((env.now, name, action))
            except Interrupt as interrupt:
                actions.append((env.now, name, "interrupted", interrupt.cause))

    for i in range(rng.randint(2, 6)):
        procs.append((f"p{i}", env.process(
            worker(f"p{i}", random.Random(rng.random()), 0))))

    peeks = []
    for _ in range(40):
        peeks.append(env.peek())
        if env.peek() == float("inf"):
            break
        move = rng.choice(("step", "step", "until_float", "until_event"))
        if move == "step":
            for _ in range(rng.randint(1, 5)):
                if env.peek() < float("inf"):
                    env.step()
        elif move == "until_float":
            env.run(until=env.now + rng.choice((0.0, 0.25, 0.5)))
        else:
            env.run(until=env.timeout(rng.choice(DELAYS)))
    env.run()
    return {
        "ties": log.ties,
        "dispatched": log.dispatched,
        "actions": actions,
        "peeks": peeks,
        "events_scheduled": env.events_scheduled,
        "now": env.now,
    }


@pytest.mark.parametrize("seed", range(120))
def test_lanes_dispatch_in_heap_order(seed):
    expected = run_schedule(HeapEnvironment, seed)
    got = run_schedule(Environment, seed)
    assert got["dispatched"] == expected["dispatched"]
    assert got == expected


def test_schedules_exercise_every_ordering_case():
    """The seeds above cover what the lanes must order: URGENT starts and
    interrupts, same-instant ties between heap and zero-delay events,
    and every action of the schedule grammar."""
    kinds: set = set()
    actions: set = set()
    ties = 0
    for seed in range(120):
        out = run_schedule(HeapEnvironment, seed)
        kinds.update(kind for _, _, kind, _ in out["dispatched"])
        actions.update(a[2] for a in out["actions"])
        ties += out["ties"]
    assert {"Initialize", "Timeout", "Event", "Process", "Request",
            "AllOf", "AnyOf"} <= kinds
    assert set(ACTIONS) | {"interrupted"} <= actions
    assert ties > 0
