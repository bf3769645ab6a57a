"""Placement properties of every allreduce algorithm and of the
communicator's cached hierarchical plans.

Sweeps only ever place six ranks per node.  Here Hypothesis draws 1–6
ranks per node, a partly filled last node, and permuted, non-contiguous
``ranks=`` subgroups, and runs two different subgroups on one
communicator.  Every algorithm (ring, recursive doubling, Rabenseifner,
tree, hierarchical) must equal the numpy sum bit for bit (payloads are
integer-valued, so every summation order is exact), and its simulated
time must not decrease as the message grows.  A hierarchical plan must
describe exactly the group it was built for: never one reused across
subgroups.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Fabric, build_summit
from repro.mpi import MVAPICH2_GDR, Comm, VirtualBuffer
from repro.sim import Environment
from repro.trace.spans import SpanRecorder

ALGORITHMS = ("ring", "recursive_doubling", "rabenseifner", "tree",
              "hierarchical")


@st.composite
def layouts(draw):
    """``(full nodes, ranks per full node, first GPU index, ranks on the
    partly filled last node)``."""
    per_node = draw(st.integers(1, 6))
    full_nodes = draw(st.integers(0, 4))
    last = draw(st.integers(1, per_node))
    offset = draw(st.integers(0, 6 - per_node))
    return full_nodes, per_node, offset, last


def build_comm(full_nodes, per_node, offset, last):
    env = Environment()
    topo = build_summit(env, nodes=full_nodes + 1)
    gpus = topo.gpus()
    devices = [gpus[node * 6 + offset + i]
               for node in range(full_nodes) for i in range(per_node)]
    devices += [gpus[full_nodes * 6 + offset + i] for i in range(last)]
    return env, Comm(Fabric(topo), devices, MVAPICH2_GDR)


@st.composite
def subgroup(draw, size, min_size=1):
    """A non-empty, permuted (possibly non-contiguous) list of world ranks
    (at least ``min_size`` of them where the communicator has that many)."""
    ranks = draw(st.lists(st.integers(0, size - 1),
                          min_size=min(min_size, size), max_size=size,
                          unique=True))
    return draw(st.permutations(ranks))


def expected_plan(comm, ranks):
    """Node groups, leaders and per-rank slots, recomputed from scratch."""
    nodes: dict = {}
    for rank in ranks:
        nodes.setdefault(comm.devices[rank].node, []).append(rank)
    groups = sorted(nodes.values(), key=lambda members: ranks.index(members[0]))
    leaders = [members[0] for members in groups]
    slots = []
    for rank in ranks:
        members = next(m for m in groups if rank in m)
        local = members.index(rank)
        slots.append((members, local, leaders.index(rank) if local == 0 else -1))
    return [list(m) for m in groups], leaders, slots


def check_plan(comm, ranks):
    plan = comm.hierarchical_plan(ranks)
    groups, leaders, slots = expected_plan(comm, ranks)
    assert [list(m) for m in plan.node_groups] == groups
    assert plan.leaders == leaders
    assert [(list(m), local, lead) for m, local, lead in plan.slots] == slots
    # Cached: the same group (even as a fresh list) gets the same plan.
    assert comm.hierarchical_plan(list(ranks)) is plan
    return plan


def allreduce_exact(env, comm, ranks, seed, n, explicit=True,
                    algorithm="hierarchical"):
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(-1000, 1000, n).astype(np.float64) for _ in ranks]
    done = comm.allreduce(payloads, algorithm=algorithm,
                          ranks=ranks if explicit else None)
    results = env.run(until=done)
    expected = np.sum(payloads, axis=0)
    assert len(results) == len(ranks)
    for result in results:
        np.testing.assert_array_equal(result, expected)


@settings(max_examples=40, deadline=None)
@given(layout=layouts(), data=st.data(), n=st.integers(0, 40),
       seed=st.integers(0, 2**16))
def test_two_subgroups_on_one_comm_are_exact_and_never_share_a_plan(
        layout, data, n, seed):
    env, comm = build_comm(*layout)
    first = data.draw(subgroup(comm.size), label="first")
    second = data.draw(subgroup(comm.size), label="second")

    allreduce_exact(env, comm, first, seed, n)
    allreduce_exact(env, comm, second, seed + 1, n)
    # The first group again, after the second built its own plan.
    allreduce_exact(env, comm, first, seed + 2, n)

    plan_first = check_plan(comm, first)
    plan_second = check_plan(comm, second)
    if first != second:
        assert plan_first is not plan_second


@settings(max_examples=25, deadline=None)
@given(layout=layouts(), n=st.integers(0, 40), seed=st.integers(0, 2**16))
def test_whole_world_hierarchical_is_exact(layout, n, seed):
    env, comm = build_comm(*layout)
    world = list(range(comm.size))
    allreduce_exact(env, comm, world, seed, n, explicit=False)
    # The default (ranks=None) group keys the same plan as the explicit
    # world list.
    assert list(comm._plans) in ([], [tuple(world)])
    allreduce_exact(env, comm, world, seed + 1, n)
    assert len(check_plan(comm, world).leaders) == len(
        {dev.node for dev in comm.devices})


def test_permutation_of_one_group_gets_its_own_plan():
    """Same ranks, different order: leaders follow group order."""
    env, comm = build_comm(1, 3, 0, 2)  # node 0: ranks 0-2, node 1: 3-4
    forward = check_plan(comm, [0, 1, 2, 3, 4])
    backward = check_plan(comm, [4, 3, 2, 1, 0])
    assert forward is not backward
    assert forward.leaders == [0, 3]
    assert backward.leaders == [4, 2]
    allreduce_exact(env, comm, [4, 3, 2, 1, 0], 7, 9)


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), data=st.data(), n=st.integers(0, 40),
       seed=st.integers(0, 2**16), algorithm=st.sampled_from(ALGORITHMS))
def test_every_algorithm_is_exact_on_any_placement(layout, data, n, seed,
                                                   algorithm):
    env, comm = build_comm(*layout)
    group = data.draw(subgroup(comm.size), label="group")
    allreduce_exact(env, comm, group, seed, n, algorithm=algorithm)
    # Then the whole world on the same communicator.
    allreduce_exact(env, comm, list(range(comm.size)), seed + 1, n,
                    explicit=False, algorithm=algorithm)


def allreduce_seconds(layout, ranks, algorithm, nbytes):
    """``(simulated seconds, whether any transfer waited for a link)``."""
    env, comm = build_comm(*layout)
    tracer = SpanRecorder(level="links")
    tracer.attach(env=env, comm=comm, fabric=comm.fabric)
    done = comm.allreduce([VirtualBuffer(nbytes) for _ in ranks],
                          algorithm=algorithm, ranks=ranks)
    env.run(until=done)
    waited = any(span.tags["wait_s"] > 0 for span in tracer.by_cat("TRANSFER"))
    return env.now, waited


#: Message sizes spread over every magnitude from bytes to 4 MiB.
message_sizes = st.integers(2, 22).flatmap(
    lambda e: st.integers(1 << (e - 2), 1 << e))


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), data=st.data(), algorithm=st.sampled_from(ALGORITHMS),
       sizes=st.lists(message_sizes, min_size=2, max_size=4))
def test_simulated_time_does_not_decrease_as_bytes_grow(layout, data,
                                                        algorithm, sizes):
    """Same placement, group and algorithm, each size on a fresh
    cluster: a larger message never finishes sooner than a smaller one
    whose run had no link contention.

    Without contention a run is its dependency graph's earliest
    schedule: every transfer starts when its inputs (and, for
    rendezvous, its receiver) are ready and lasts longer the larger the
    message, so that schedule only grows with the size, and contention
    only delays it.  With contention the model does not have the
    property at any size: a transfer holds every route link for its
    whole time, software latency included, and links grant FIFO, so a
    larger message can reorder grants on a shared link into a shorter
    schedule (a list-scheduling anomaly).  Two examples, as (layout,
    ranks): ring on ((2, 4, 0, 1), [7, 0, 1, 4, 3, 8, 5, 2]) takes
    319.3 us at 0 B and 309.0 us at 4 B; ring on ((3, 2, 1, 1),
    [3, 5, 0, 2, 6, 4]) takes 1158.8 us at 2439984 B and 1076.6 us at
    2738216 B.
    """
    full_nodes, per_node, _, last = layout
    group = data.draw(subgroup(full_nodes * per_node + last, min_size=2),
                      label="group")
    sizes = sorted(4 * (s // 4) for s in sizes)
    runs = [allreduce_seconds(layout, group, algorithm, nbytes)
            for nbytes in sizes]
    for i, (seconds, waited) in enumerate(runs):
        if not waited:
            for nbytes, (later, _) in zip(sizes[i + 1:], runs[i + 1:]):
                assert later >= seconds, (sizes[i], seconds, nbytes, later)
