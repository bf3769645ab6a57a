"""Outside wrappers for the traced run: simulated-work counters and
per-call host timings, taken without touching the program's source.

:class:`LayerProbe` patches public classes and functions while it is
installed and restores them on :meth:`LayerProbe.uninstall`:

* ``Environment.__init__`` / ``Comm.__init__`` — capture the kernel and
  communicator each simulation builds, so that after the point finishes
  the probe reads ``events_scheduled``, ``messages_sent`` and the
  fabric's transfer accounting;
* ``build_summit`` (every module-level binding of it) and
  ``Comm.__init__`` — timed as ``core.build_s``;
* ``TrainPoint.execute`` / ``OSUPoint.execute`` — op boundaries: counts
  are harvested here, together with the Horovod counters of the
  returned ``Measurement``;
* ``SimPoint.key`` — per-call time;
* a given ``ResultCache`` instance's ``get`` / ``put`` — per-call time
  and the stored entry size.

Pool workers forked while the probe is installed inherit the patches;
an ``os.register_at_fork`` hook zeroes their copy of the totals and
restarts the sampler there, and each op spools the child's cumulative
totals to ``<spool_dir>/child-<pid>-<nonce>.json`` for :meth:`merged` to add
back in.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from perfbench.sampler import StackSampler

__all__ = ["COUNTERS", "LayerProbe"]

#: Every additive total the probe keeps (float-valued).
COUNTERS = (
    "ops", "events", "transfers", "fast", "fallback", "bytes_moved",
    "messages_sent", "cycles", "negotiations", "fused_ops",
    "tensors_reduced", "build_s", "key_calls", "key_s",
    "cache_get_calls", "cache_get_s", "cache_put_calls", "cache_put_s",
    "result_bytes",
)


class LayerProbe:
    """Installable wrappers + a :class:`StackSampler`, one per run."""

    def __init__(self, spool_dir: str | Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.sampler = StackSampler()
        self.totals = dict.fromkeys(COUNTERS, 0.0)
        self.bytes_by_link: dict[str, float] = {}
        self.installed = False
        self._envs: list = []
        self._comms: list = []
        self._undo: list = []
        self._parent_pid = os.getpid()
        self._spool_name = ""
        self._fork_hook = False

    # -- install / uninstall ---------------------------------------------------
    def install(self) -> None:
        """Patch the program's public entry points and start sampling."""
        import repro.cluster.summit as summit_mod
        from repro.mpi.communicator import Comm
        from repro.runner.simpoint import OSUPoint, SimPoint, TrainPoint
        from repro.sim import Environment

        self.spool_dir.mkdir(parents=True, exist_ok=True)
        probe = self

        env_init = Environment.__init__

        def environment_init(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            probe._envs.append(env)

        comm_init = Comm.__init__

        def communicator_init(comm, *args, **kwargs):
            start = time.perf_counter()
            comm_init(comm, *args, **kwargs)
            probe.totals["build_s"] += time.perf_counter() - start
            probe._comms.append(comm)

        original_build = summit_mod.build_summit

        def build_summit(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original_build(*args, **kwargs)
            finally:
                probe.totals["build_s"] += time.perf_counter() - start

        key = SimPoint.key

        def timed_key(point):
            start = time.perf_counter()
            try:
                return key(point)
            finally:
                probe.totals["key_s"] += time.perf_counter() - start
                probe.totals["key_calls"] += 1

        self._patch(Environment, "__init__", environment_init)
        self._patch(Comm, "__init__", communicator_init)
        self._patch(SimPoint, "key", timed_key)
        for cls in (TrainPoint, OSUPoint):
            self._patch(cls, "execute", self._op_wrapper(cls.execute))
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "build_summit", None)
                    is original_build):
                self._patch(module, "build_summit", build_summit)
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._after_fork)
            self._fork_hook = True
        self.installed = True
        self.sampler.start()

    def uninstall(self) -> None:
        """Stop sampling and restore every patched attribute."""
        self.sampler.stop()
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []
        self.installed = False

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else
                           getattr(owner, name)))
        setattr(owner, name, replacement)

    def wrap_cache(self, cache) -> None:
        """Time one ``ResultCache`` instance's ``get`` and ``put``."""
        get, put = cache.get, cache.put
        totals = self.totals

        def timed_get(key):
            start = time.perf_counter()
            try:
                return get(key)
            finally:
                totals["cache_get_s"] += time.perf_counter() - start
                totals["cache_get_calls"] += 1

        def timed_put(key, value):
            start = time.perf_counter()
            try:
                path = put(key, value)
            finally:
                totals["cache_put_s"] += time.perf_counter() - start
                totals["cache_put_calls"] += 1
            try:
                totals["result_bytes"] += os.path.getsize(path)
            except (OSError, TypeError):
                pass
            return path

        cache.get, cache.put = timed_get, timed_put

    # -- op boundary -----------------------------------------------------------
    def _op_wrapper(self, execute):
        probe = self

        def execute_op(point):
            probe._envs, probe._comms = [], []
            value = execute(point)
            probe._harvest(value)
            if os.getpid() != probe._parent_pid:
                probe._spool()
            return value

        return execute_op

    def _harvest(self, value) -> None:
        totals = self.totals
        totals["ops"] += 1
        totals["events"] += sum(env.events_scheduled for env in self._envs)
        fabrics = {}
        for comm in self._comms:
            totals["messages_sent"] += comm.messages_sent
            fabrics[id(comm.fabric)] = comm.fabric
        for fabric in fabrics.values():
            totals["transfers"] += fabric.stats.transfers
            totals["bytes_moved"] += fabric.stats.bytes_moved
            totals["fast"] += fabric.fast_stats.fast
            totals["fallback"] += fabric.fast_stats.fallback
            for link, nbytes in fabric.stats.bytes_by_link_type.items():
                self.bytes_by_link[link] = (
                    self.bytes_by_link.get(link, 0.0) + nbytes)
        runtime = getattr(value, "runtime_stats", None)
        if runtime is not None:
            for name in ("cycles", "negotiations", "fused_ops",
                         "tensors_reduced"):
                totals[name] += getattr(runtime, name)
        self._envs, self._comms = [], []

    # -- fork children -----------------------------------------------------------
    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.totals = dict.fromkeys(COUNTERS, 0.0)
        self.bytes_by_link = {}
        self._envs, self._comms = [], []
        # Unique per child: pool workers of later batches may reuse pids.
        self._spool_name = f"child-{os.getpid()}-{os.urandom(4).hex()}.json"
        self.sampler.reset_after_fork()

    def _spool(self) -> None:
        path = self.spool_dir / self._spool_name
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._own()))
        os.replace(tmp, path)

    def _own(self) -> dict:
        return {"totals": dict(self.totals),
                "bytes_by_link": dict(self.bytes_by_link),
                "sampler": self.sampler.snapshot()}

    def merged(self) -> dict:
        """This process's totals plus every spooled child's."""
        out = self._own()
        for path in sorted(self.spool_dir.glob("child-*.json")):
            child = json.loads(path.read_text())
            for section in ("totals", "bytes_by_link"):
                for name, value in child[section].items():
                    out[section][name] = out[section].get(name, 0.0) + value
            for field, values in child["sampler"].items():
                mine = out["sampler"][field]
                for bucket, value in values.items():
                    mine[bucket] = mine.get(bucket, 0) + value
        return out
