"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import gate, stats  # noqa: E402
from perfbench.hostspeed import REF_RATE, HostSpeed  # noqa: E402
from perfbench.sampler import OTHER, StackSampler, classify  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Outcome,
    TrainScale,
    service_jobs,
    service_point_set,
    sweep_points,
    train_points,
)


# -- seeded inputs -------------------------------------------------------------
def test_train_points_depend_only_on_seed():
    assert train_points(7, 2) == train_points(7, 2)
    assert train_points(7, 2) != train_points(8, 2)
    assert {p.seed for _, p in train_points(7, 2)} == {7}


def test_sweep_points_depend_only_on_seed():
    first, dups = sweep_points(5)
    again, _ = sweep_points(5)
    other, _ = sweep_points(6)
    assert first == again
    assert first != other
    assert len(first) - len({p.key() for p in first}) == dups


def test_service_jobs_depend_only_on_seed():
    def take(seed, n=60):
        stream = service_jobs(seed)
        return [next(stream) for _ in range(n)]

    assert take(3) == take(3)
    assert take(3) != take(4)
    jobs = take(3, 1000)
    assert all(1 <= len(job) <= 4 for job in jobs)
    known = {repr(sorted(p.items())) for p in service_point_set()}
    unique = [p for job in jobs for p in job
              if repr(sorted(p.items())) not in known]
    assert all(p["kind"] == "osu_allreduce" and p["gpus"] == 6
               for p in unique)
    with_miss = sum(1 for job in jobs
                    if any(repr(sorted(p.items())) not in known for p in job))
    assert 0.02 < with_miss / len(jobs) < 0.09


# -- percentiles ---------------------------------------------------------------
def test_summary_carries_sample_count_and_tail():
    values = [float(v) for v in range(1, 101)]
    p90 = stats.summarize(values, 0.9)
    assert p90["samples"] == 100
    assert p90["value"] == pytest.approx(90.1)
    assert p90["beyond"] == 10
    assert stats.summarize([2.0], 0.5) == {"value": 2.0, "samples": 1,
                                           "beyond": 0}


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_hist_quantile_interpolates_within_bucket():
    buckets = [(0.01, 0), (0.05, 10), (0.25, 20), (float("inf"), 20)]
    assert stats.hist_quantile(buckets, 0.5) == pytest.approx(0.05)
    assert stats.hist_quantile(buckets, 0.75) == pytest.approx(0.15)
    assert stats.hist_quantile([(1.0, 0)], 0.5) is None


# -- host-speed scaling --------------------------------------------------------
def _speed(samples) -> HostSpeed:
    speed = HostSpeed()
    speed.samples = [(at, factor * REF_RATE) for at, factor in samples]
    return speed


def test_factor_averages_the_samples_in_a_widened_span():
    speed = _speed([(0.0, 1.0), (0.5, 1.0), (10.0, 0.5), (10.5, 0.5),
                    (20.0, 0.8)])
    assert speed.factor(0.0, 0.5) == pytest.approx(1.0)
    # A short span is widened to MIN_SPAN_S about its middle.
    assert speed.factor(10.2, 10.3) == pytest.approx(0.5)
    assert speed.factor(0.0, 10.5) == pytest.approx(0.75)
    # No sample within reach: the nearest one's.
    assert speed.factor(16.0, 16.1) == pytest.approx(0.8)


def test_slow_host_time_shrinks_to_reference_seconds():
    speed = _speed([(0.0, 0.5), (1.0, 0.5), (100.0, 1.0), (101.0, 1.0)])
    assert speed.ref_seconds([(0.0, 1.0), (100.0, 101.0)]) == \
        pytest.approx(1.5)


def test_outcome_rescales_throughput_and_latencies():
    out = Outcome(work=10, busy=[(0.0, 2.0), (100.0, 102.0)],
                  latency_spans=[[(0.0, 2.0)], [(0.0, 2.0), (100.0, 102.0)]])
    assert out.timed() == (2.5, [2.0, 4.0])
    speed = _speed([(0.0, 0.5), (2.0, 0.5), (100.0, 1.0), (102.0, 1.0)])
    assert out.timed(speed.ref_seconds) == (pytest.approx(10 / 3),
                                            [pytest.approx(1.0),
                                             pytest.approx(3.0)])


def test_burst_measures_a_positive_rate():
    speed = HostSpeed(ops=200)
    assert speed.burst() > 0
    assert len(speed.samples) == 1
    with HostSpeed(period=0.01, ops=200) as running:
        time.sleep(0.05)
    assert len(running.samples) >= 2


# -- sampler buckets -----------------------------------------------------------
def test_known_stack_falls_into_innermost_program_package():
    stack = ["json.encoder", "repro.runner.cache", "repro.service.api",
             "threading"]
    assert classify(stack) == ("runner", ["runner", "service"])
    assert classify(["heapq", "repro.sim.engine", "repro.mpi.communicator",
                     "repro.sim.engine"]) == ("sim", ["sim", "mpi"])
    assert classify(["threading", "perfbench.run"]) == (OTHER, [OTHER])


def _busy_frame_in(module: str):
    """Burn CPU inside a function whose module is ``module``."""
    namespace = {"__name__": module, "sys": sys, "time": time}
    exec("def spin(seconds):\n"
         "    end = time.thread_time() + seconds\n"
         "    while time.thread_time() < end:\n"
         "        pass\n"
         "    return sys._getframe()\n", namespace)
    return namespace["spin"](0.05)


def test_sampler_charges_cpu_to_the_sampled_stack():
    sampler = StackSampler()
    sampler._baseline()
    frame = _busy_frame_in("repro.cluster.fake")
    sampler.sample(main_frame=frame)
    assert sampler.samples.get("cluster") == 1
    assert sampler.self_s["cluster"] >= 0.04
    assert sampler.inclusive_s["cluster"] == sampler.self_s["cluster"]


def test_tagged_thread_is_charged_to_its_tag():
    sampler = StackSampler()
    sampler._baseline()
    sampler.tag_thread("client")
    _busy_frame_in("repro.service.client")
    sampler.sample()
    assert "client" in sampler.self_s and "service" not in sampler.self_s


# -- correctness gate ----------------------------------------------------------
class _Stats:
    def __init__(self, ips):
        self.images_per_second = ips


def test_digest_is_exact_in_every_float_digit():
    assert gate.digest(_Stats(1.0)) == gate.digest(_Stats(1.0))
    assert gate.digest(_Stats(1.0)) != gate.digest(_Stats(1.0 + 2 ** -40))


def _outcome(digests: dict) -> Outcome:
    out = Outcome(attempted=sum(len(v) for v in digests.values()))
    out.raw["digests"] = digests
    return out


def test_wrong_recorded_digest_fails_the_op():
    workload = TrainScale(seed=11, iterations=2)
    recorded = {"2": {"11": {"deeplab@96:tuned": "0" * 64}}}
    out = _outcome({"deeplab@96:tuned": ["f" * 64, "f" * 64]})
    workload.verify(out, recorded)
    assert out.failed == 2
    assert out.raw["recorded_checked"] == 1
    assert "recorded" in out.errors[0]


def test_matching_or_missing_record_passes():
    workload = TrainScale(seed=11, iterations=2)
    recorded = {"2": {"11": {"deeplab@96:tuned": "a" * 64}}}
    out = _outcome({"deeplab@96:tuned": ["a" * 64],
                    "deeplab@132:tuned": ["b" * 64]})
    workload.verify(out, recorded)
    assert out.failed == 0 and not out.errors
    assert out.raw["recorded_checked"] == 1


def test_unrepeatable_point_fails_even_without_a_record():
    workload = TrainScale(seed=11, iterations=2)
    out = _outcome({"deeplab@96:default": ["a" * 64, "b" * 64]})
    workload.verify(out, {})
    assert out.failed == 1


def test_record_round_trips(tmp_path):
    path = tmp_path / "digests.json"
    gate.record(2, 5, {"x": "1" * 64}, path=path)
    gate.record(2, 3, {"x": "2" * 64}, path=path)
    table = gate.load_recorded(path)
    assert list(table["2"]) == ["3", "5"]
    assert gate.check_digest(table, 2, 5, "x", "1" * 64) is True
    assert gate.check_digest(table, 2, 5, "x", "2" * 64) is False
    assert gate.check_digest(table, 2, 9, "x", "1" * 64) is None
