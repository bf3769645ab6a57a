"""Tests for the fabric transfer model: timing, contention, accounting."""

import networkx as nx
import pytest

from repro.cluster import Device, Fabric, build_summit
from repro.sim import Environment
from repro.sim.units import MiB, gbyte_per_s, microseconds


def make_fabric(nodes=2):
    env = Environment()
    topo = build_summit(env, nodes=nodes)
    return env, Fabric(topo)


def test_transfer_seconds_matches_alpha_beta():
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    n = 10 * MiB
    expected = microseconds(1.9) + n / gbyte_per_s(47.0)
    assert fabric.transfer_seconds(src, dst, n) == pytest.approx(expected)


def test_transfer_process_advances_clock():
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    n = 10 * MiB
    t = fabric.transfer(src, dst, n)
    env.run(until=t)
    assert env.now == pytest.approx(fabric.transfer_seconds(src, dst, n))


def test_self_transfer_is_free():
    env, fabric = make_fabric()
    g = Device.gpu(0, 0)
    t = fabric.transfer(g, g, 100 * MiB)
    env.run(until=t)
    assert env.now == 0.0


def test_zero_byte_transfer_pays_latency_only():
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    t = fabric.transfer(src, dst, 0)
    env.run(until=t)
    assert env.now == pytest.approx(microseconds(1.9))


def test_negative_size_rejected():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), -1)


def test_transfer_to_a_device_off_the_topology_fails_its_event():
    """The route is looked up when the transfer starts; a device the
    topology lacks fails the returned event, which the waiter sees."""
    env, fabric = make_fabric(nodes=1)
    t = fabric.transfer(Device.gpu(0, 0), Device.gpu(3, 0), 1)
    assert not t.triggered
    with pytest.raises(nx.NodeNotFound):
        env.run(until=t)


def test_bad_derate_rejected():
    env, fabric = make_fabric()
    with pytest.raises(ValueError):
        fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), 1, bandwidth_derate=0.0)
    with pytest.raises(ValueError):
        fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), 1, bandwidth_derate=1.5)


def test_derate_slows_transfer():
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    n = 100 * MiB
    full = fabric.transfer_seconds(src, dst, n)
    derated = fabric.transfer_seconds(src, dst, n, bandwidth_derate=0.5)
    # Latency unchanged, bandwidth term doubled.
    assert derated - microseconds(1.9) == pytest.approx(2 * (full - microseconds(1.9)))


def test_extra_latency_added():
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    base = fabric.transfer_seconds(src, dst, 0)
    assert fabric.transfer_seconds(src, dst, 0, extra_latency=5e-6) == pytest.approx(
        base + 5e-6
    )


def test_shared_link_serializes_transfers():
    """Two messages over the same directed link take 2x one message."""
    env, fabric = make_fabric()
    src, dst = Device.gpu(0, 0), Device.gpu(0, 1)
    n = 50 * MiB
    one = fabric.transfer_seconds(src, dst, n)
    t1 = fabric.transfer(src, dst, n)
    t2 = fabric.transfer(src, dst, n)
    env.run()
    assert env.now == pytest.approx(2 * one)
    assert t1.value == pytest.approx(one)
    assert t2.value == pytest.approx(2 * one)  # includes queueing


def test_opposite_directions_do_not_contend():
    """Full duplex: A->B and B->A proceed concurrently."""
    env, fabric = make_fabric()
    a, b = Device.gpu(0, 0), Device.gpu(0, 1)
    n = 50 * MiB
    one = fabric.transfer_seconds(a, b, n)
    fabric.transfer(a, b, n)
    fabric.transfer(b, a, n)
    env.run()
    assert env.now == pytest.approx(one)


def test_disjoint_routes_do_not_contend():
    env, fabric = make_fabric()
    n = 50 * MiB
    one = fabric.transfer_seconds(Device.gpu(0, 0), Device.gpu(0, 1), n)
    fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), n)
    fabric.transfer(Device.gpu(0, 2), Device.gpu(0, 1), n)
    env.run()
    assert env.now == pytest.approx(one)


def test_nic_injection_is_shared_bottleneck():
    """Two inter-node messages from GPUs on the same socket share one rail."""
    env, fabric = make_fabric(nodes=2)
    n = 50 * MiB
    one = fabric.transfer_seconds(Device.gpu(0, 0), Device.gpu(1, 0), n)
    fabric.transfer(Device.gpu(0, 0), Device.gpu(1, 0), n)
    fabric.transfer(Device.gpu(0, 1), Device.gpu(1, 1), n)
    env.run()
    # Both share cpu:0:0 -> nic:0:0 -> leaf; finish strictly after one.
    assert env.now > 1.8 * one


def test_opposite_rails_do_not_contend():
    """GPUs on different sockets use different rails: no sharing."""
    env, fabric = make_fabric(nodes=2)
    n = 50 * MiB
    one = fabric.transfer_seconds(Device.gpu(0, 0), Device.gpu(1, 0), n)
    fabric.transfer(Device.gpu(0, 0), Device.gpu(1, 0), n)
    fabric.transfer(Device.gpu(0, 3), Device.gpu(1, 3), n)
    env.run()
    assert env.now == pytest.approx(one)


def test_many_concurrent_ring_neighbors_no_deadlock():
    """A full ring of simultaneous neighbor sends completes (deadlock-free)."""
    env, fabric = make_fabric(nodes=4)
    gpus = fabric.topology.gpus()
    p = len(gpus)
    events = [
        fabric.transfer(gpus[i], gpus[(i + 1) % p], 1 * MiB) for i in range(p)
    ]
    env.run()
    assert all(e.processed and e.ok for e in events)
    assert fabric.stats.transfers == p


def test_stats_accounting():
    env, fabric = make_fabric()
    n = 10 * MiB
    fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), n)
    env.run()
    assert fabric.stats.transfers == 1
    assert fabric.stats.bytes_moved == n
    assert fabric.stats.bytes_by_link_type == {"nvlink2-gg": n}
    link = fabric.topology.link(Device.gpu(0, 0), Device.gpu(0, 1))
    assert link.bytes_carried == n
    assert link.utilization(env.now) == pytest.approx(1.0)


def test_gpu_spec_roofline():
    from repro.cluster import V100

    # Compute-bound kernel: time = flops / sustained + launch.
    flops = 1e12
    t = V100.kernel_seconds(flops, bytes_moved=0)
    assert t == pytest.approx(V100.kernel_launch_s + flops / V100.sustained_fp32_flops)
    # Memory-bound kernel.
    nbytes = 1e9
    t = V100.kernel_seconds(0, bytes_moved=nbytes)
    assert t == pytest.approx(V100.kernel_launch_s + nbytes / V100.sustained_mem_Bps)


def test_gpu_spec_validation():
    from repro.cluster import GPUSpec

    with pytest.raises(ValueError):
        GPUSpec("bad", -1, 1, 1, 1, 1, 0.5, 0.5)
    with pytest.raises(ValueError):
        GPUSpec("bad", 1, 1, 1, 1, 1, 1.5, 0.5)
