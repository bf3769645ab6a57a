"""The three workloads: seeded input generators and their drivers.

Each workload drives the program only through its public entry points
and keeps all state under the ``workdir`` it is given:

* ``train-scale`` — ``TrainPoint.execute`` in-process, serially, no
  cache: the paper's largest slices (96 and 132 GPUs, default and tuned
  configuration).
* ``sweep-cache`` — a seeded knob sweep through ``Runner(workers=nproc,
  cache=<fresh ResultCache>)``, run cold and then warm.
* ``service-jobs`` — a closed loop of ``nproc`` client threads
  submitting point jobs over HTTP to ``Service(backend="fabric")`` and
  following each one to its result bytes.

A driver's ``run(seconds, probe)`` measures one window of at least
``seconds`` — whole passes over the four points, whole cold-then-warm
sweeps, or whole jobs — and returns an :class:`Outcome`;
``verify(outcome)`` runs the correctness gate, which may cost host time
of its own and so is kept out of the measured window.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import gate

__all__ = ["WORKLOADS", "Outcome", "nproc", "service_jobs",
           "sweep_points", "train_points"]


def nproc() -> int:
    """Worker width: the CPUs this process may run on (at least 2)."""
    return max(2, len(os.sched_getaffinity(0)))


@dataclass
class Outcome:
    """What one measured window produced."""

    #: Units of work completed (cycles, sweeps, jobs).
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: Headline rate (see each workload's ``throughput_unit``):
    #: ``work`` over the total length of the ``busy`` spans.
    throughput: float = 0.0
    #: Per-result latencies in seconds; latency ``i`` is the total
    #: length of the spans in ``latency_spans[i]``.
    latencies: list = field(default_factory=list)
    #: What ``throughput`` counts: rank-iterations, points or jobs.
    work: float = 0
    #: ``(t0, t1)`` ``perf_counter`` spans that ``throughput`` divides by.
    busy: list = field(default_factory=list)
    latency_spans: list = field(default_factory=list)
    #: Named end-to-end figures for the report table:
    #: name -> (value, unit, samples).
    named: dict = field(default_factory=dict)
    #: Gate failures, one line each.
    errors: list = field(default_factory=list)
    #: Workload-specific raw material for the gate and the layer table.
    raw: dict = field(default_factory=dict)

    def timed(self, seconds=None) -> tuple[float, list]:
        """``(throughput, latencies)`` with every span list measured by
        ``seconds`` — wall seconds by default, or e.g.
        :meth:`HostSpeed.ref_seconds <perfbench.hostspeed.HostSpeed.ref_seconds>`."""
        seconds = seconds or wall_seconds
        busy = seconds(self.busy)
        return (self.work / busy if busy else 0.0,
                [seconds(spans) for spans in self.latency_spans])


def wall_seconds(spans) -> float:
    """Total length of ``(t0, t1)`` spans."""
    return sum(t1 - t0 for t0, t1 in spans)


# -- train-scale --------------------------------------------------------------
TRAIN_GPUS = (96, 132)


def train_points(seed: int, iterations: int) -> list:
    """``[(label, TrainPoint)]``: deeplab at 96/132 GPUs, tuned and
    default, all with ``iterations`` and jitter seed ``seed``.

    Tuned before default and the larger slice first puts the costliest
    points early in a pass, so the time-to-result percentiles rest on
    most of the pass's work rather than on one or two short points.
    """
    from repro.core import paper_default_config, paper_tuned_config
    from repro.runner import TrainPoint

    out = []
    for name, config in (("tuned", paper_tuned_config),
                         ("default", paper_default_config)):
        for gpus in sorted(TRAIN_GPUS, reverse=True):
            out.append((f"deeplab@{gpus}:{name}", TrainPoint(
                gpus=gpus, config=config(), model="deeplab",
                iterations=iterations, seed=seed)))
    return out


class TrainScale:
    """Serial in-process points; one unit is one pass over the four."""

    name = "train-scale"
    throughput_unit = "simulated rank-iterations per host second"

    def __init__(self, seed: int, iterations: int) -> None:
        self.seed = seed
        self.iterations = iterations
        self.points: list = []

    def setup(self, workdir: Path) -> None:
        from repro.core.sweep import model_profile

        self.points = train_points(self.seed, self.iterations)
        model_profile("deeplab")

    def run(self, seconds: float, probe=None) -> Outcome:
        out = Outcome()
        digests: dict = {}
        op_s: dict = {}
        start = time.perf_counter()
        while True:
            # Latency is time-to-result within the pass, as a caller
            # running the four points in order waits for each of them.
            done: list = []
            for label, point in self.points:
                out.attempted += 1
                began = time.perf_counter()
                try:
                    # The previous point's garbage is collected at the
                    # same place in every run, and its cost is counted,
                    # as a serial caller pays it.
                    gc.collect()
                    value = point.execute()
                except Exception as err:  # a failed op is counted, not fatal
                    out.failed += 1
                    out.errors.append(f"{label}: {type(err).__name__}: {err}")
                    continue
                ended = time.perf_counter()
                took = ended - began
                done.append((began, ended))
                out.busy.append((began, ended))
                out.latency_spans.append(list(done))
                out.work += point.gpus * point.iterations
                digests.setdefault(label, []).append(gate.digest(value))
                op_s.setdefault(label, []).append(took)
            out.units += 1
            if time.perf_counter() - start >= seconds:
                break
        out.throughput, out.latencies = out.timed()
        out.named["sim_rank_iters_per_s"] = (out.throughput, "1/s",
                                             len(out.latencies))
        for label, times in op_s.items():
            out.named[f"execute_s.{label}"] = (sum(times) / len(times), "s",
                                               len(times))
        out.raw["digests"] = digests
        return out

    def verify(self, out: Outcome, recorded: dict) -> None:
        """Every repetition of a point must give one digest, and that
        digest must match the recorded one where a record exists."""
        checked = 0
        for label, seen in out.raw["digests"].items():
            bad = sum(1 for d in seen if d != seen[0])
            verdict = gate.check_digest(recorded, self.iterations, self.seed,
                                        label, seen[0])
            if verdict is False:
                bad = len(seen)
            checked += verdict is not None
            if bad:
                out.failed += bad
                out.errors.append(f"{label}: digest mismatch "
                                  f"({'recorded' if verdict is False else 'repeat'})")
        out.raw["recorded_checked"] = checked

    def teardown(self) -> None:
        pass


# -- sweep-cache --------------------------------------------------------------
#: Distinct points per GPU count: the points at 6-24 GPUs in the quick
#: tiers of E4 and E6 (``repro.bench.registry``): E4 runs 12 points at
#: 24 GPUs, E6 2 at 6 and 2 at 24.  E6's two 1-GPU points are left out,
#: as a 1-GPU allreduce takes no time, and so are E5's 14 points at 24
#: GPUs, the same shape as E4's, to keep a cold pass near 20 s.
SWEEP_GPU_POINTS = {24: 14, 6: 2}
SWEEP_DUPLICATES = 4
SWEEP_MODELS = ("deeplab", "resnet50")
SWEEP_ITERATIONS = 2
#: Warm passes after each cold pass: enough for the warm == cold gate
#: and the ``warm_points_per_s`` table figure.
WARM_PASSES = 2


def sweep_design() -> list:
    """The sweep's knob combinations: ``(gpus, model, fusion, cycle,
    hierarchical)``, ``SWEEP_GPU_POINTS[gpus]`` distinct ones per GPU
    count, with the knobs drawn from the ``KNOBS`` grids.

    The design is the same for every seed, so every run does about the
    same simulation work and the pool sees the same mix; iid draws per
    seed moved the cold pass's cost by ±15%.  Largest slices first, so
    the pool's tail is short.
    """
    from repro.core import KNOBS

    rng = random.Random("sweep-cache:design")
    design = []
    for gpus, count in sorted(SWEEP_GPU_POINTS.items(), reverse=True):
        drawn: dict = {}
        while len(drawn) < count:
            drawn.setdefault((gpus, rng.choice(SWEEP_MODELS),
                              rng.choice(KNOBS["fusion_threshold"].grid),
                              rng.choice(KNOBS["cycle_time"].grid),
                              rng.choice(KNOBS["hierarchical_allreduce"].grid)),
                             None)
        design += drawn
    return design


def sweep_points(seed: int) -> tuple[list, int]:
    """(points, duplicates) for one seed.

    The seed is every point's jitter seed; ``duplicates`` is how many
    points the runner must deduplicate.  Which points are repeated, and
    where, is fixed like the design: a duplicate's result arrives with
    its original's, so when the seed chose them, the cold pass's
    time-to-result median moved by up to a tenth with the choice.  The
    library is the paper's MVAPICH2-GDR.
    """
    from repro.core import SystemConfig, paper_tuned_config
    from repro.mpi.libraries import MVAPICH2_GDR
    from repro.runner import TrainPoint

    rng = random.Random("sweep-cache:duplicates")
    base = paper_tuned_config().horovod
    points = []
    for gpus, model, fusion, cycle, hier in sweep_design():
        config = SystemConfig(library=MVAPICH2_GDR, horovod=base.with_(
            fusion_threshold_bytes=fusion, cycle_time_s=cycle,
            hierarchical_allreduce=hier))
        points.append(TrainPoint(gpus=gpus, config=config, model=model,
                                 iterations=SWEEP_ITERATIONS, seed=seed))
    for _ in range(SWEEP_DUPLICATES):
        points.insert(rng.randrange(len(points) + 1), rng.choice(points))
    return points, SWEEP_DUPLICATES


class SweepCache:
    """One unit: a cold pass over a fresh cache and a fresh pool, then
    ``WARM_PASSES`` warm passes over the same cache."""

    name = "sweep-cache"
    throughput_unit = "cold-pass points per second"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.points: list = []
        self.duplicates = 0
        self.workdir = Path(".")

    def setup(self, workdir: Path) -> None:
        from repro.core.sweep import model_profile

        self.workdir = Path(workdir)
        self.points, self.duplicates = sweep_points(self.seed)
        # Profiles are memoized per process; forked pool workers inherit
        # them, as they would in a long-lived sweep.
        for model in SWEEP_MODELS:
            model_profile(model)

    def run(self, seconds: float, probe=None) -> Outcome:
        """Whole units until ``seconds`` have passed (at least one)."""
        from repro.runner import ResultCache, Runner

        out = Outcome()
        n = len(self.points)
        warm_s = 0.0
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            cache = ResultCache(directory=self.workdir / f"cache-{out.units}")
            if probe is not None:
                probe.wrap_cache(cache)
            runner = Runner(workers=nproc(), cache=cache)
            marks: list = []
            cold = runner.run(self.points, progress=lambda *a: marks.append(
                time.perf_counter()))
            out.busy.append((began, time.perf_counter()))
            out.latency_spans += [[(began, m)] for m in marks]
            out.work += n
            out.attempted += n
            self._check_cold(out, cold, runner.stats.delta({}))
            cold_digests = [gate.digest(v) if v is not None else None
                            for v in cold]
            for _ in range(WARM_PASSES):
                before = runner.stats.as_dict()
                began = time.perf_counter()
                warm = runner.run(self.points)
                warm_s += time.perf_counter() - began
                out.attempted += n
                self._check_warm(out, cold_digests, warm,
                                 runner.stats.delta(before))
            totals = out.raw.setdefault("runner", {})
            for key, value in runner.stats.as_dict().items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
            out.units += 1
            if time.perf_counter() - start >= seconds:
                break
        cold_points = n * out.units
        out.throughput, out.latencies = out.timed()
        out.named["sweep_points_per_s"] = (out.throughput, "1/s", cold_points)
        warm_points = cold_points * WARM_PASSES
        out.named["warm_points_per_s"] = (warm_points / warm_s, "1/s",
                                          warm_points)
        return out

    def _check_cold(self, out: Outcome, cold: list, delta: dict) -> None:
        distinct = len(self.points) - self.duplicates
        if delta["deduplicated"] != self.duplicates:
            out.errors.append(f"cold pass deduplicated {delta['deduplicated']}"
                              f", generator made {self.duplicates}")
        if delta["executed"] != distinct:
            out.errors.append(f"cold pass executed {delta['executed']} of "
                              f"{distinct} distinct points")
        missing = sum(1 for v in cold if v is None)
        out.failed += missing

    def _check_warm(self, out: Outcome, cold_digests: list, warm: list,
                    delta: dict) -> None:
        if delta["executed"] != 0 or delta["cache_hits"] != len(warm):
            out.errors.append(f"warm pass executed {delta['executed']}, "
                              f"hit {delta['cache_hits']} of {len(warm)}")
        mismatched = sum(
            1 for c, w in zip(cold_digests, warm)
            if w is None or c is None or c != gate.digest(w))
        if mismatched:
            out.failed += mismatched
            out.errors.append(f"{mismatched} warm results differ from cold")

    def verify(self, out: Outcome, recorded: dict) -> None:
        pass  # checked inline: each pass is compared as it completes

    def teardown(self) -> None:
        pass


# -- service-jobs -------------------------------------------------------------
SERVICE_OSU_GPUS = (6, 12, 18, 24)
SERVICE_OSU_BYTES = (1 << 10, 1 << 20)
SERVICE_TRAIN_MODELS = ("resnet50", "deeplab")
#: Every this many jobs, one job carries a fresh 6-GPU OSU point with a
#: never-seen message size (about 5 ms of simulation): a cache miss that
#: takes the fabric path.  A fixed 5% of jobs, not a 5% chance per job,
#: so a window always holds its share of these slow jobs.
SERVICE_MISS_EVERY = 20
#: Each client waits a seeded uniform 0 to this many seconds between
#: jobs: one period of the scheduler's 50 ms idle poll.  With zero
#: think time the two clients lock into a phase against that poll,
#: and which phase a run fell into moved ``latency_p50_s`` between
#: about 37 and 53 ms from seed to seed.
SERVICE_THINK_S = 0.05


def service_point_set() -> list:
    """The 20 cheap points jobs draw from; set-up runs them once, so
    every draw from this set is a cache hit."""
    from repro.mpi.libraries import MPI_LIBRARIES

    points = [{"kind": "osu_allreduce", "gpus": gpus, "library": library,
               "nbytes": nbytes, "iterations": 3}
              for gpus in SERVICE_OSU_GPUS for library in sorted(MPI_LIBRARIES)
              for nbytes in SERVICE_OSU_BYTES]
    points += [{"kind": "train", "gpus": 6, "config": config, "model": model,
                "iterations": 2, "seed": 0}
               for config in ("default", "tuned")
               for model in SERVICE_TRAIN_MODELS]
    return points


def service_jobs(seed: int):
    """Endless seeded stream of point lists (1–4 points per job).

    Each point is drawn from :func:`service_point_set` (OSU allreduce
    at 6–24 GPUs, tiny 6-GPU train points); in one job of every
    ``SERVICE_MISS_EVERY`` one point is replaced by a unique 6-GPU OSU
    point.  Misses are kept a small, fixed share of jobs: a fabric-path
    job takes twice as long as a cache hit or more, so how many of them
    a window held moved ``latency_p90_s``; when misses were a burst at
    the start of the window or half of all points, or a 2% chance per
    point, that changed from run to run.
    """
    from repro.mpi.libraries import MPI_LIBRARIES

    libraries = sorted(MPI_LIBRARIES)
    known = service_point_set()
    rng = random.Random(f"service-jobs:{seed}")
    phase = rng.randrange(SERVICE_MISS_EVERY)
    for index in itertools.count():
        job = [dict(rng.choice(known)) for _ in range(rng.randint(1, 4))]
        if index % SERVICE_MISS_EVERY == phase:
            job[rng.randrange(len(job))] = {
                "kind": "osu_allreduce", "gpus": 6,
                "library": rng.choice(libraries),
                "nbytes": rng.randrange(1 << 10, 1 << 30), "iterations": 3}
        yield job


class ServiceJobs:
    """Closed loop, ``nproc`` clients, a short seeded think time
    (``SERVICE_THINK_S``); unit = one job."""

    name = "service-jobs"
    throughput_unit = "jobs per second"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service = None
        self.url = None
        self.thread = None

    def setup(self, workdir: Path) -> None:
        from repro.obs import configure as configure_obs
        from repro.service import Service, ServiceClient, ServiceConfig
        from repro.service import serve_in_thread
        from repro.service.jobs import TERMINAL_STATES

        config = ServiceConfig(host="127.0.0.1", port=0,
                               state_dir=Path(workdir) / "service",
                               backend="fabric", fabric_workers=nproc())
        # As `repro serve` does: events next to the queue journal, and
        # REPRO_OBS_DIR exported for the worker subprocesses.
        configure_obs(config.obs_dir)
        self.service = Service(config)
        self.service.start()
        self.thread, self.url = serve_in_thread(self.service)
        fabric = self.service.fabric
        fabric.start()
        deadline = time.monotonic() + 60.0
        while len(fabric.coordinator.queue.workers_seen) < fabric.workers:
            if time.monotonic() > deadline:
                raise RuntimeError("fabric workers did not come up in 60 s")
            time.sleep(0.02)
        # Warm-up: one job over the whole point set exercises every
        # path once and leaves the shared cache as a long-running
        # service's would be.
        warmup = self._one_job(ServiceClient(url=self.url),
                               service_point_set(), TERMINAL_STATES)
        if warmup["state"] != "DONE":
            raise RuntimeError(f"warm-up job ended {warmup['state']}")

    def run(self, seconds: float, probe=None) -> Outcome:
        from repro.service import ServiceClient
        from repro.service.jobs import TERMINAL_STATES
        from repro.telemetry.export import parse_prometheus

        out = Outcome()
        stream = service_jobs(self.seed)
        lock = threading.Lock()
        records: list = []
        errors: list = []
        if probe is not None:
            probe.wrap_cache(self.service.cache)
        metrics_before = parse_prometheus(
            ServiceClient(url=self.url).metrics())["samples"]
        fabric_before = self.service.fabric.stats.as_dict()
        start = time.perf_counter()
        deadline = start + seconds

        def client_loop(index: int) -> None:
            if probe is not None:
                probe.sampler.tag_thread("client")
            client = ServiceClient(url=self.url)
            think = random.Random(f"service-jobs:think:{self.seed}:{index}")
            while time.perf_counter() < deadline:
                with lock:
                    points = next(stream)
                try:
                    records.append(self._one_job(client, points,
                                                 TERMINAL_STATES))
                except Exception as err:  # counted as a failed job
                    errors.append(f"{type(err).__name__}: {err}")
                time.sleep(think.uniform(0.0, SERVICE_THINK_S))

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"client-{i}")
                   for i in range(nproc())]
        for thread in threads:
            thread.start()
        for thread in threads:
            # Short joins keep the main thread (where SIGPROF handlers
            # run) responsive while the clients work.
            while thread.is_alive():
                thread.join(0.02)
        end = max([r["done_at"] for r in records], default=time.perf_counter())
        out.units = len(records)
        out.attempted = len(records) + len(errors)
        out.failed = len(errors)
        out.errors.extend(errors[:5])
        out.work = len(records)
        out.busy = [(start, end)]
        out.latency_spans = [[(r["submitted_at"], r["done_at"])]
                             for r in records]
        out.throughput, out.latencies = out.timed()
        out.named["jobs_per_s"] = (out.throughput, "1/s", len(records))
        out.raw.update(
            records=records,
            metrics_before=metrics_before,
            metrics_after=parse_prometheus(
                ServiceClient(url=self.url).metrics())["samples"],
            fabric_before=fabric_before,
            fabric_after=self.service.fabric.stats.as_dict())
        return out

    @staticmethod
    def _one_job(client, points: list, terminal) -> dict:
        submitted = time.perf_counter()
        job = client.submit(points=points, busy_retries=20)
        t_submit = time.perf_counter()
        last = None
        for last in client.follow(job["id"], timeout_s=60.0):
            pass
        t_follow = time.perf_counter()
        # Completion is decided by the job resource, not by the stream:
        # a stream can end on a stale, non-terminal frame.
        doc = client.job(job["id"])
        deadline = time.monotonic() + 60.0
        while doc["state"] not in terminal:
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job['id']} still {doc['state']}")
            time.sleep(0.01)
            doc = client.job(job["id"])
        t_state = time.perf_counter()
        body = client.result_bytes(job["id"]) if doc["state"] == "DONE" else None
        done = time.perf_counter()
        return {"id": job["id"], "spec": doc["spec"], "state": doc["state"],
                "body": body, "submitted_at": submitted, "done_at": done,
                "submit_s": t_submit - submitted,
                "follow_s": t_follow - t_submit,
                "result_s": done - t_state,
                "stale_final": last is None or last.get("state") not in terminal}

    def verify(self, out: Outcome, recorded: dict) -> None:
        """Each job DONE, and its bytes equal the envelope an in-process
        ``Runner`` produces for the same points."""
        from repro.runner import Runner
        from repro.service.jobs import build_points
        from repro.service.scheduler import points_envelope

        records = out.raw["records"]
        unique: dict = {}
        per_job = []
        for record in records:
            points = build_points(record["spec"])
            keys = [p.key() for p in points]
            for key, point in zip(keys, points):
                unique.setdefault(key, point)
            per_job.append((points, keys))
        keys = list(unique)
        values = dict(zip(keys, Runner(workers=nproc()).run(
            [unique[k] for k in keys])))
        bad = 0
        for record, (points, pkeys) in zip(records, per_job):
            want = points_envelope(points, [values[k] for k in pkeys])
            if record["state"] != "DONE" or record["body"] is None or \
                    record["body"].decode("utf-8") != want:
                bad += 1
        if bad:
            out.failed += bad
            out.errors.append(f"{bad} job(s) not DONE or envelope differs "
                              f"from the in-process Runner's")

    def teardown(self) -> None:
        if self.service is None:
            return
        server = getattr(self.service, "http_server", None)
        if server is not None:
            server.shutdown()
        self.service.stop(drain=True)
        if self.thread is not None:
            self.thread.join(10.0)
        self.service = None


WORKLOADS = {
    "train-scale": lambda seed, iterations: TrainScale(seed, iterations),
    "sweep-cache": lambda seed, iterations: SweepCache(seed),
    "service-jobs": lambda seed, iterations: ServiceJobs(seed),
}
