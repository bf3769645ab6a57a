"""Two-level hierarchical allreduce (Horovod's HIERARCHICAL_ALLREDUCE path).

Three stages:

1. **Intra-node reduce** — within each node, a binomial reduce over NVLink
   to the node's leader rank (the lowest rank on the node).
2. **Inter-node allreduce** — the leaders run a full-size allreduce over
   InfiniBand.  The inner algorithm is selected by the library table for
   the leader-count communicator (or forced via ``inner``).
3. **Intra-node broadcast** — each leader broadcasts the result back over
   NVLink.

This trades extra intra-node traffic (cheap: 47 GB/s NVLink) for a 6×
smaller inter-node communicator (expensive: 12.3 GB/s shared rail), which
is exactly why the paper's tuned configuration enables it on Summit.
"""

from __future__ import annotations

from typing import Any

from repro.mpi.communicator import CollCtx
from repro.mpi.collectives.tree import binomial_bcast, binomial_reduce

__all__ = ["hierarchical_allreduce"]

# Tag-space layout inside the collective's tag block.  The inner
# allreduce gets a wide subspace: ring uses 2p tags, which can reach a few
# thousand on large communicators.
_REDUCE_OFF = 0
_BCAST_OFF = 1024
_INNER_OFF = 65536


def hierarchical_allreduce(ctx: CollCtx, grank: int, payload: Any, inner: str | None = None):
    """One rank's hierarchical-allreduce process; returns the reduced payload.

    The node grouping comes from the communicator's cached
    :class:`~repro.mpi.communicator.HierarchicalPlan` for this group: the
    first rank of a call looks it up, and a group's plan is built once
    per communicator.  ``inner`` forces the leader-level algorithm
    (default: the library's size-based selection for the leader
    communicator).
    """
    from repro.mpi.collectives import get_algorithm

    p = ctx.size
    ops = ctx.ops
    if p == 1:
        return payload
        yield  # pragma: no cover

    comm = ctx.comm
    tag = ctx.tag
    plan = ctx.hierarchical_plan()

    if len(plan.leaders) == 1:
        # Single node: hierarchical degenerates to the inner algorithm run
        # flat over NVLink.
        name = inner or comm.library.allreduce_algorithm(ops.nbytes(payload), p)
        flat_ctx = CollCtx(comm, ops, tag + _INNER_OFF, ctx.ranks)
        result = yield from get_algorithm(name)(flat_ctx, grank, payload)
        return result

    members, local_index, leader_index = plan.slots[grank]

    # Stage 1: intra-node binomial reduce to the node leader.
    local_ctx = CollCtx(comm, ops, tag + _REDUCE_OFF, members)
    reduced = yield from binomial_reduce(local_ctx, local_index, payload)

    # Stage 2: leaders allreduce across nodes.
    if leader_index >= 0:
        leaders = plan.leaders
        name = inner or comm.library.allreduce_algorithm(
            ops.nbytes(reduced), len(leaders)
        )
        leader_ctx = CollCtx(comm, ops, tag + _INNER_OFF, leaders)
        reduced = yield from get_algorithm(name)(leader_ctx, leader_index, reduced)

    # Stage 3: intra-node broadcast of the global result.
    bcast_ctx = CollCtx(comm, ops, tag + _BCAST_OFF, members)
    result = yield from binomial_bcast(bcast_ctx, local_index, reduced)
    return result
