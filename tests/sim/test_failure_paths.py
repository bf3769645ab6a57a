"""Failure propagation through composed simulation structures."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt, Resource


def test_failure_inside_nested_yield_from():
    """Exceptions cross `yield from` boundaries like normal Python."""
    env = Environment()

    def inner(env):
        yield env.timeout(1)
        raise ValueError("deep failure")

    def middle(env):
        result = yield from inner(env)
        return result

    def outer(env):
        try:
            yield env.process(middle(env))
        except ValueError as exc:
            return str(exc)

    p = env.process(outer(env))
    env.run()
    assert p.value == "deep failure"


def test_anyof_with_failing_member_fails():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise KeyError("boom")

    def waiter(env):
        try:
            yield AnyOf(env, [env.process(failing(env)), env.timeout(5)])
        except KeyError:
            return "failed-first"
        return "ok"

    p = env.process(waiter(env))
    env.run(until=p)
    assert p.value == "failed-first"


def test_anyof_succeeds_before_late_failure():
    """A failure after the AnyOf already fired must not abort the run."""
    env = Environment()

    def failing(env):
        yield env.timeout(5)
        raise KeyError("late")

    def waiter(env):
        result = yield AnyOf(env, [env.timeout(1, value="fast"),
                                   env.process(failing(env))])
        return list(result.values())

    p = env.process(waiter(env))
    # The late failure is nobody's problem once the condition resolved;
    # the run must complete cleanly.
    env.run()
    assert p.value == ["fast"]


def test_interrupt_while_holding_resource_releases_via_context():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        with res.request() as req:
            yield req
            order.append("acquired")
            try:
                yield env.timeout(100)
            except Interrupt:
                order.append("interrupted")
        # context manager released the resource

    def next_user(env):
        with res.request() as req:
            yield req
            order.append("second-acquired")

    victim = env.process(holder(env))

    def interrupter(env):
        yield env.timeout(1)
        victim.interrupt()

    env.process(interrupter(env))
    env.process(next_user(env))
    env.run()
    assert order == ["acquired", "interrupted", "second-acquired"]
    assert res.count == 0


def test_double_interrupt_before_resume():
    """Two interrupts queued for the same process both get delivered."""
    env = Environment()
    hits = []

    def sleeper(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                hits.append(intr.cause)
        return "done"

    victim = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1)
        victim.interrupt("a")
        victim.interrupt("b")

    env.process(interrupter(env))
    env.run(until=victim)
    assert hits == ["a", "b"]


class ResumeLog:
    """Monitor counting, per dispatched event, how often ``victim`` was
    resumed by it."""

    def __init__(self) -> None:
        self.victim = None
        self.resumes: list = []

    def on_schedule(self, env, event, delay) -> None:
        pass

    def on_step(self, env, event, depth) -> None:
        hits = sum(1 for cb in event.callbacks
                   if getattr(cb, "__self__", None) is self.victim)
        if hits:
            self.resumes.append((env.now, type(event).__name__, hits))


def test_interrupt_before_start_detaches_from_the_first_wait():
    """Interrupted before its start event ran, the process starts, waits
    on its first timeout, and the interrupt detaches it from *that*: the
    timeout firing later must not resume it again."""
    env = Environment()
    monitor = env.monitor = ResumeLog()
    log = []

    def victim_gen():
        try:
            yield env.timeout(5)
            log.append(("timeout", env.now))
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))
        yield env.timeout(10)
        log.append(("end", env.now))
        return "done"

    def starter():
        victim = monitor.victim = env.process(victim_gen())
        victim.interrupt("early")
        return (yield victim)

    starter_proc = env.process(starter())
    env.run()
    assert log == [("interrupted", 0.0, "early"), ("end", 10.0)]
    assert starter_proc.value == "done"
    assert monitor.resumes == [(0.0, "Initialize", 1), (0.0, "Event", 1),
                               (10.0, "Timeout", 1)]


def test_second_interrupt_detaches_from_the_wait_after_the_first():
    """Two interrupts before the first is dispatched: the second detaches
    the process from what it waits on after handling the first, so every
    event resumes it once."""
    env = Environment()
    monitor = env.monitor = ResumeLog()
    log = []

    def sleeper():
        for _ in range(3):
            try:
                yield env.timeout(100)
                log.append(("woke", env.now))
            except Interrupt as intr:
                log.append(("interrupted", env.now, intr.cause))
        return "done"

    victim = monitor.victim = env.process(sleeper())

    def interrupter():
        yield env.timeout(1)
        victim.interrupt("a")
        victim.interrupt("b")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 1.0, "a"), ("interrupted", 1.0, "b"),
                   ("woke", 101.0)]
    assert victim.value == "done"
    assert monitor.resumes == [(0.0, "Initialize", 1), (1.0, "Event", 1),
                               (1.0, "Event", 1), (101.0, "Timeout", 1)]


def test_interrupt_of_a_process_that_died_meanwhile_is_dropped():
    """A process that returns on its first interrupt is dead when the
    second is dispatched; the second is skipped."""
    env = Environment()

    def victim_gen():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            return intr.cause

    victim = env.process(victim_gen())

    def interrupter():
        yield env.timeout(1)
        victim.interrupt("first")
        victim.interrupt("second")

    env.process(interrupter())
    env.run()
    assert victim.value == "first"
    assert env.now == 100.0


def test_failed_allof_member_after_condition_failed_is_defused():
    env = Environment()

    def fail_at(env, t, msg):
        yield env.timeout(t)
        raise RuntimeError(msg)

    def waiter(env):
        cond = AllOf(env, [
            env.process(fail_at(env, 1, "first")),
            env.process(fail_at(env, 2, "second")),
        ])
        with pytest.raises(RuntimeError, match="first"):
            yield cond
        return "handled"

    p = env.process(waiter(env))
    env.run()
    assert p.value == "handled"
