"""Fast-path configuration for the simulation kernel and fabric.

The simulator has two execution strategies for the hot paths:

* the **reference path** — every link acquisition is a queued grant
  event (:meth:`~repro.sim.resources.Resource.acquire`) and every
  transfer steps through the full acquire/hold/release event sequence;
  and
* the **fast path** — when a provably-equivalent shortcut exists (an
  uncontended route, a quiet event queue), the same simulated outcome is
  computed closed-form with fewer kernel events.

The contract is **bit-identical simulated time**: every observable the
reproduction compares — training statistics, timelines, link counters,
telemetry attribution buckets, trace spans — must be byte-for-byte equal
between the two paths.  Only kernel event *counts* (``Environment.
events_scheduled``, ``sim_events_processed_total``) may differ, exactly
as the checkpoint/resume contract already allows (a resumed run pays a
few bootstrap events).  ``tests/sim/test_fastpath_differential.py`` is
the gate: every scenario class runs through both paths and the outputs
are compared field for field.

Activation is deliberately **observation-independent**: whether a probe
or tracer is attached never changes which path runs, so the
zero-perturbation gates (instrumented vs bare runs compare kernel
fingerprints) hold under either setting.

Selection:

* default **on**;
* environment: ``REPRO_FAST_PATH=0`` / ``1`` (read at import and by
  :func:`reset_from_env`);
* programmatic: :func:`set_fast_path`, or the :func:`fast_path` context
  manager (used by the differential tests and ``repro run --no-fast``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "SimConfig",
    "fast_path",
    "fast_path_enabled",
    "reset_from_env",
    "set_fast_path",
    "sim_config",
]

#: Environment variable controlling the default ("0"/"false"/"off" disable).
ENV_VAR = "REPRO_FAST_PATH"

_FALSEY = {"0", "false", "no", "off", ""}


def _env_default() -> bool:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSEY


@dataclass
class SimConfig:
    """Process-wide simulation strategy knobs.

    ``fast_path`` enables the event-eliding shortcuts in
    :class:`~repro.cluster.fabric.Fabric` and the inlined drain loop of
    :class:`~repro.sim.engine.Environment`.  It is *not* part of any
    cache key: both paths produce bit-identical measurements, so a cached
    result is valid regardless of which path produced it.
    """

    fast_path: bool = field(default_factory=_env_default)


#: The active process-wide configuration (workers inherit via fork/env).
_CONFIG = SimConfig()


def sim_config() -> SimConfig:
    """The live process-wide :class:`SimConfig` (mutate via setters)."""
    return _CONFIG


def fast_path_enabled() -> bool:
    """True when fast-path shortcuts should be taken (the hot check)."""
    return _CONFIG.fast_path


def set_fast_path(enabled: bool) -> None:
    """Enable or disable the fast path process-wide."""
    _CONFIG.fast_path = bool(enabled)


def reset_from_env() -> None:
    """Re-read :data:`ENV_VAR` (worker bootstrap after exec/spawn)."""
    _CONFIG.fast_path = _env_default()


@contextmanager
def fast_path(enabled: bool):
    """Scoped override, restoring the previous setting on exit."""
    prev = _CONFIG.fast_path
    _CONFIG.fast_path = bool(enabled)
    try:
        yield
    finally:
        _CONFIG.fast_path = prev
