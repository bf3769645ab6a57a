"""Correctness gate: digests of simulated outputs and the recorded table.

A digest is a SHA-256 over the canonical JSON of what a simulation
produced — for a training ``Measurement`` its images/s, ``TrainStats``,
Horovod ``RuntimeStats`` and per-link-type utilization; for anything
else its public fields.  Floats are rendered with ``repr`` (exact), so
any change of simulated outcome changes the digest, while host-side
details (timeline objects, fast-path split, span recorders) are left
out because the program itself excludes them from compared payloads.

``digests.json`` beside this file records the digests of the
``train-scale`` points at the parent commit, keyed by iteration count,
seed and point label.  ``python3 perfbench/run.py --record-digests``
adds the digests of the seed it runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

__all__ = ["DIGESTS_PATH", "check_digest", "digest", "load_recorded",
           "record"]

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(),
                                                     key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "__dict__"):
        return _plain(vars(value))
    return repr(value)


def outcome(value) -> dict:
    """The simulated outcome of one point, as plain data."""
    if hasattr(value, "runtime_stats") and hasattr(value, "stats"):
        return {"images_per_second": _plain(value.images_per_second),
                "stats": _plain(value.stats),
                "runtime_stats": _plain(value.runtime_stats),
                "link_utilization": _plain(value.link_utilization)}
    return {"value": _plain(value)}


def digest(value) -> str:
    """SHA-256 hex of :func:`outcome`."""
    blob = json.dumps(outcome(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_recorded(path: Path = DIGESTS_PATH) -> dict:
    """``{"<iterations>": {"<seed>": {"<label>": digest}}}`` (may be {})."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}


def check_digest(recorded: dict, iterations: int, seed: int, label: str,
                 got: str) -> bool | None:
    """True/False against the recorded digest; None when none recorded."""
    want = recorded.get(str(iterations), {}).get(str(seed), {}).get(label)
    if want is None:
        return None
    return want == got


def record(iterations: int, seed: int, digests: dict,
           path: Path = DIGESTS_PATH) -> None:
    """Merge ``{label: digest}`` for one seed into the recorded table."""
    table = load_recorded(path)
    table.setdefault(str(iterations), {})[str(seed)] = dict(sorted(
        digests.items()))
    ordered = {it: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
               for it, seeds in sorted(table.items())}
    Path(path).write_text(json.dumps(ordered, indent=1) + "\n")
