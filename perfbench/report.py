"""Metric tables: the end-to-end set, the per-layer set, and printing.

Per-layer figures come from the traced run.  Additive ones (host
seconds, simulated counts, runner and fabric counters) are divided by
the units of work the traced window completed — a ``train-scale``
cycle of four points, a ``sweep-cache`` cold pass with its warm passes,
one ``service-jobs`` job — so they do not depend on how many units fit
in the window.  Per-call figures (``*_us``, ``*_ms``,
``runner.result_bytes``), ratios and stage quantiles are reported as
they are.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench import stats
from perfbench.sampler import OTHER

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer",
           "print_table"]

PACKAGES = ("sim", "cluster", "mpi", "horovod", "models", "train", "core",
            "runner", "fabric", "service", "obs")


def _metric_tables() -> tuple[dict, dict]:
    """``BENCHMARK.json``'s metrics: name -> (unit, better), in its
    order, for the end-to-end and the per-layer set."""
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    return tuple({m["name"]: (m["unit"], m["better"]) for m in bench[key]}
                 for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = _metric_tables()

STAGES = ("submit_to_lease", "lease_to_start", "start_to_complete")


def end_to_end(out, speed, setup_samples: list, peak_rss_mb: float) -> dict:
    """The end-to-end metric values of one untraced window; times are
    in reference seconds, measured by ``speed`` (a running
    :class:`~perfbench.hostspeed.HostSpeed`)."""
    throughput, latencies = out.timed(speed.ref_seconds)
    return {
        "throughput_per_s": throughput,
        "latency_p50_s": stats.percentile(latencies, 0.5),
        "latency_p90_s": stats.percentile(latencies, 0.9),
        "setup_s": stats.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metric_sum(samples: dict, name: str, **match) -> float:
    total = 0.0
    for (metric, labels), value in samples.items():
        if metric != name:
            continue
        labels = dict(labels)
        if all(labels.get(k) == v for k, v in match.items()):
            total += value
    return total


def _delta(before: dict, after: dict, name: str, **match) -> float:
    return _metric_sum(after, name, **match) - _metric_sum(before, name,
                                                           **match)


def _stage_p50(before: dict, after: dict, stage: str) -> float:
    buckets = {}
    for (metric, labels), value in after.items():
        labels = dict(labels)
        if metric == "service_job_stage_seconds_bucket" and \
                labels.get("stage") == stage:
            le = float(labels["le"])
            buckets[le] = value - _metric_sum(
                before, metric, stage=stage, le=labels["le"])
    q = stats.hist_quantile(list(buckets.items()), 0.5)
    return q if q is not None else 0.0


def per_layer(out, probe_data: dict) -> dict:
    """Per-layer values (``trace_overhead`` is added by the caller)."""
    units = max(out.units, 1)
    totals = probe_data["totals"]
    sampled = probe_data["sampler"]["self_s"]
    values = {f"{pkg}.host_self_s": sampled.get(pkg, 0.0) / units
              for pkg in PACKAGES}
    values["other.host_self_s"] = sampled.get(OTHER, 0.0) / units
    values["client.host_self_s"] = sampled.get("client", 0.0) / units
    values["trace.samples"] = float(sum(
        probe_data["sampler"]["samples"].values()))
    sim_s = sampled.get("sim", 0.0)
    values.update({
        "sim.events": totals["events"] / units,
        "sim.host_us_per_event": _ratio(sim_s, totals["events"]) * 1e6,
        "cluster.transfers": totals["transfers"] / units,
        "cluster.fast_path_hit_ratio": _ratio(
            totals["fast"], totals["fast"] + totals["fallback"]),
        "cluster.bytes_moved": totals["bytes_moved"] / units,
        "mpi.messages_sent": totals["messages_sent"] / units,
        "horovod.cycles": totals["cycles"] / units,
        "horovod.negotiations": totals["negotiations"] / units,
        "horovod.fused_ops": totals["fused_ops"] / units,
        "horovod.tensors_reduced": totals["tensors_reduced"] / units,
        "core.build_s": totals["build_s"] / units,
        "runner.key_us": _ratio(totals["key_s"], totals["key_calls"]) * 1e6,
        "runner.cache_get_ms": _ratio(totals["cache_get_s"],
                                      totals["cache_get_calls"]) * 1e3,
        "runner.cache_put_ms": _ratio(totals["cache_put_s"],
                                      totals["cache_put_calls"]) * 1e3,
        "runner.result_bytes": _ratio(totals["result_bytes"],
                                      totals["cache_put_calls"]),
    })
    runner = out.raw.get("runner")
    if runner is None and "fabric_after" in out.raw:
        runner = {k: out.raw["fabric_after"][k] - out.raw["fabric_before"][k]
                  for k in out.raw["fabric_after"]
                  if isinstance(out.raw["fabric_after"][k], (int, float))}
    runner = runner or {}
    for name in ("executed", "cache_hits", "deduplicated", "retries",
                 "pool_respawns"):
        values[f"runner.{name}"] = runner.get(name, 0) / units
    for name in PER_LAYER:
        values.setdefault(name, 0.0)
    if "records" in out.raw:
        values.update(_service_layers(out, units))
    return values


def _service_layers(out, units: int) -> dict:
    before, after = out.raw["metrics_before"], out.raw["metrics_after"]
    records = out.raw["records"]
    requests = sum(
        value - _metric_sum(before, "service_requests_total", **dict(labels))
        for (metric, labels), value in after.items()
        if metric == "service_requests_total"
        and dict(labels).get("route") != "v1/metrics")
    busy = sum(_delta(before, after, "service_requests_total", code=code)
               for code in ("429", "503"))
    hits = _delta(before, after, "service_cache", field="hits")
    misses = _delta(before, after, "service_cache", field="misses")
    leases = _delta(before, after, "fabric_leases_total")
    completions = _delta(before, after, "fabric_completions_total")
    values = {
        "service.requests_per_job": requests / units,
        "service.cache_hit_ratio": _ratio(hits, hits + misses),
        "service.busy_rejections": busy / units,
        "service.follow_stale_final": sum(
            1 for r in records if r["stale_final"]) / units,
        "fabric.leases": leases / units,
        "fabric.completions": completions / units,
        "fabric.requeues": _delta(before, after,
                                  "fabric_requeues_total") / units,
        "fabric.useful_lease_ratio": _ratio(completions, leases),
    }
    for stage in STAGES:
        values[f"service.stage_p50_s.{stage}"] = _stage_p50(before, after,
                                                            stage)
    for name, key in (("submit", "submit_s"), ("follow", "follow_s"),
                      ("result", "result_s")):
        samples = [r[key] * 1e3 for r in records]
        values[f"client.{name}_ms"] = (stats.median(samples)
                                       if samples else 0.0)
    return values


def print_table(title: str, rows) -> None:
    """``rows``: (name, value, unit, note) tuples, one aligned line each."""
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {note}")
