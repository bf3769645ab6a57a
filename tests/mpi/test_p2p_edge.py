"""Edge cases of point-to-point matching and protocol interaction."""

import numpy as np
import pytest

from repro.mpi import MVAPICH2_GDR, VirtualBuffer

from tests.mpi.conftest import make_comm


def test_two_rendezvous_sends_one_recv_then_second():
    """Posted-receive counting with multiple outstanding rendezvous sends
    (distinct tags, as the collectives discipline requires)."""
    env, comm = make_comm(2)
    big = VirtualBuffer(1 << 20)
    s1 = comm.isend(0, 1, big, tag=1)
    s2 = comm.isend(0, 1, big, tag=2)
    env.run(until=0.001)
    assert not s1.triggered and not s2.triggered

    def receiver(env):
        a = yield comm.recv(1, src=0, tag=2)  # release tag-2 first
        b = yield comm.recv(1, src=0, tag=1)
        return (a.nbytes, b.nbytes)

    r = env.process(receiver(env))
    env.run()
    assert s1.ok and s2.ok and r.value == (1 << 20, 1 << 20)


def test_eager_messages_fifo_within_same_key():
    """Multiple eager messages on one (src, tag) arrive in send order."""
    env, comm = make_comm(2)
    for i in range(4):
        comm.isend(0, 1, np.array([float(i)]), tag=9)

    def receiver(env):
        got = []
        for _ in range(4):
            v = yield comm.recv(1, src=0, tag=9)
            got.append(float(v[0]))
        return got

    r = env.process(receiver(env))
    env.run()
    assert r.value == [0.0, 1.0, 2.0, 3.0]


def test_recv_from_two_sources_interleaved():
    env, comm = make_comm(3)

    def sender(env, src, delay, val):
        yield env.timeout(delay)
        yield comm.isend(src, 2, np.array([val]), tag=0)

    env.process(sender(env, 0, 0.001, 10.0))
    env.process(sender(env, 1, 0.0005, 20.0))

    def receiver(env):
        a = yield comm.recv(2, src=0, tag=0)
        b = yield comm.recv(2, src=1, tag=0)
        return (float(a[0]), float(b[0]))

    r = env.process(receiver(env))
    env.run()
    assert r.value == (10.0, 20.0)


def test_eager_threshold_boundary():
    """A message exactly at the threshold is still eager; one byte more
    (rounded to the element) takes rendezvous."""
    env, comm = make_comm(2)
    lib = comm.library
    at = VirtualBuffer(lib.eager_threshold_bytes)
    send_at = comm.isend(0, 1, at, tag=0)
    env.run()
    assert send_at.ok  # delivered with no receiver: eager

    over = VirtualBuffer(lib.eager_threshold_bytes + 4)
    send_over = comm.isend(0, 1, over, tag=1)
    env.run()
    assert not send_over.triggered  # rendezvous: waiting for the recv

    def receiver(env):
        yield comm.recv(1, src=0, tag=1)

    env.process(receiver(env))
    env.run()
    assert send_over.ok


def test_allreduce_deterministic_repeat_on_same_env():
    """Back-to-back allreduces on one environment take identical time."""
    env, comm = make_comm(6)
    times = []
    for _ in range(3):
        start = env.now
        done = comm.allreduce(
            [VirtualBuffer(1 << 20) for _ in range(6)], algorithm="ring"
        )
        env.run(until=done)
        times.append(env.now - start)
    assert times[0] == pytest.approx(times[1]) == pytest.approx(times[2])


def test_concurrent_allreduces_share_fabric():
    """Two simultaneous allreduces contend and take longer than one."""
    env, comm = make_comm(6)
    n = 8 << 20
    start = env.now
    d1 = comm.allreduce([VirtualBuffer(n) for _ in range(6)], algorithm="ring")
    env.run(until=d1)
    solo = env.now - start

    env2, comm2 = make_comm(6)
    start = env2.now
    da = comm2.allreduce([VirtualBuffer(n) for _ in range(6)], algorithm="ring")
    db = comm2.allreduce([VirtualBuffer(n) for _ in range(6)], algorithm="ring")
    env2.run(until=env2.all_of([da, db]))
    both = env2.now - start
    assert both > 1.5 * solo


def test_send_of_an_unsupported_payload_fails_its_completion():
    """The payload is sized when the send starts: a type the library
    cannot move fails the returned event, which the sender sees."""
    env, comm = make_comm(2)
    send = comm.isend(0, 1, "not a buffer", tag=0)

    def sender(env):
        try:
            yield send
        except TypeError as exc:
            return str(exc)

    proc = env.process(sender(env))
    env.run()
    assert proc.value == "no payload ops for str"
