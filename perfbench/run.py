#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-scale --seed 1 --seconds 15 \\
        --trace 0 [--train-iterations 2]

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
window untraced, then again with the stack sampler and outside
wrappers installed, and reports the per-layer metrics plus the tracing
overhead.  A table goes to stdout first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every run keeps its state (result caches, service queue and results,
fabric journal, obs logs) in a fresh directory under
``.perfbench_tmp/`` that is removed at exit.  ``--record-digests``
(``train-scale`` only) stores the run's point digests in
``perfbench/digests.json`` for later runs of the same seed to check.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is measured in this many fresh processes; the median is kept.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-scale", "sweep-cache", "service-jobs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--train-iterations", type=int, default=2,
                        help="iterations of every train-scale point "
                             "(including the warm-up one)")
    parser.add_argument("--record-digests", action="store_true",
                        help="train-scale: store this seed's point digests "
                             "in perfbench/digests.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> tuple[float, float]:
    """(this process, its largest waited child) peak resident set, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def setup_probe(args, workdir: Path) -> dict:
    """Time imports + workload set-up from process start, then tear down."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.train_iterations)
    try:
        workload.setup(workdir)
        took = time.perf_counter() - _STARTED
    finally:
        workload.teardown()
    return {"setup_s": took}


def measure_setup(args, speed) -> list:
    """``SETUP_REPEATS`` set-up times, each in a fresh interpreter, in
    reference seconds: each is scaled by the host speed that ``speed``
    saw in this process while the probe ran."""
    samples = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--train-iterations",
             str(args.train_iterations)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        took = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(took * speed.factor(began, time.perf_counter()))
    return samples


def window(args, workdir: Path, probe=None, keep=None):
    """Set up, measure one window, tear down; returns (workload, outcome).

    ``keep`` (``train-scale`` only) selects the point labels to run.
    """
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.train_iterations)
    try:
        workload.setup(workdir)
        if keep is not None:
            workload.points = [(label, point)
                               for label, point in workload.points
                               if keep(label)]
        if probe is not None:
            probe.install()
        try:
            out = workload.run(args.seconds, probe)
        finally:
            if probe is not None:
                probe.uninstall()
    finally:
        workload.teardown()
    return workload, out


def untraced(args, workdir: Path, recorded: dict) -> tuple:
    from perfbench import gate, report, stats
    from perfbench.hostspeed import HostSpeed

    with HostSpeed() as speed:
        workload, out = window(args, workdir / "window")
        # Read before the gate and the set-up probes start processes of
        # their own, so the largest waited child is one of the
        # workload's (a pool or fabric worker, reaped at teardown).
        own_mb, child_mb = peak_rss_mb()
        workload.verify(out, recorded)
        setups = measure_setup(args, speed)
    if args.record_digests and args.workload == "train-scale":
        gate.record(args.train_iterations, args.seed,
                    {label: seen[0]
                     for label, seen in out.raw["digests"].items()})
    metrics = report.end_to_end(out, speed, setups, own_mb + child_mb)
    factor = (speed.factor(out.busy[0][0], out.busy[-1][1])
              if out.busy else 0.0)
    p50 = stats_note(out.latencies, 0.5)
    p90 = stats_note(out.latencies, 0.9)
    rows = [(name, value, unit, f"n={n}, wall")
            for name, (value, unit, n) in out.named.items()]
    rows += [
        ("host_speed_factor", factor, "ratio",
         f"{len(speed.samples)} bursts; wall s x factor = reference s"),
        ("throughput_per_s", metrics["throughput_per_s"], "1/s",
         f"{workload.throughput_unit}, per reference s"),
        ("latency_p50_s", metrics["latency_p50_s"], "s",
         f"{p50}, reference s"),
        ("latency_p90_s", metrics["latency_p90_s"], "s",
         f"{p90}, reference s"),
        ("wall.throughput_per_s", out.throughput, "1/s", "table only"),
        ("wall.latency_p50_s", stats.percentile(out.latencies, 0.5), "s",
         "table only"),
        ("wall.latency_p90_s", stats.percentile(out.latencies, 0.9), "s",
         "table only"),
        ("setup_s", metrics["setup_s"], "s",
         f"median of {len(setups)} in reference s: "
         + " ".join(f"{s:.3f}" for s in setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
         f"self {own_mb:.1f} + largest child {child_mb:.1f}"),
        ("error_rate", out.failed / max(out.attempted, 1), "ratio",
         f"{out.failed}/{out.attempted} ops failed"),
    ]
    if args.workload == "train-scale":
        rows.append(("recorded_digests_checked",
                     out.raw.get("recorded_checked", 0), "count",
                     f"of {len(out.raw['digests'])} points"))
    report.print_table(f"{args.workload} seed={args.seed} "
                       f"window={args.seconds:g}s units={out.units}", rows)
    return out, {name: {"value": metrics[name], "unit": unit}
                 for name, (unit, _) in report.END_TO_END.items()}


def stats_note(values, q: float) -> str:
    from perfbench import stats

    s = stats.summarize(values, q)
    return f"n={s['samples']}, {s['beyond']} above"


def traced(args, workdir: Path, recorded: dict) -> tuple:
    from perfbench import report
    from perfbench.probe import LayerProbe

    # A train-scale pass takes about 45 s, and over 100 s in a slow spell
    # of the host, so the untraced half repeats only the two cheap
    # points; the run then stays well inside its time limit.
    cheap = ((lambda label: label.endswith(":default"))
             if args.workload == "train-scale" else None)
    plain_wl, plain = window(args, workdir / "plain", keep=cheap)
    plain_wl.verify(plain, recorded)
    probe = LayerProbe(workdir / "spool")
    workload, out = window(args, workdir / "traced", probe)
    workload.verify(out, recorded)
    merged = probe.merged()
    values = report.per_layer(out, merged)
    values["trace_overhead"] = trace_overhead(plain, out)
    out.attempted += plain.attempted
    out.failed += plain.failed
    out.errors = plain.errors + out.errors
    samples = merged["sampler"]["samples"]
    rows = [(name, values[name], unit,
             f"{samples.get(name.split('.')[0], 0)} samples"
             if name.endswith("host_self_s") else "")
            for name, (unit, _) in report.PER_LAYER.items()]
    units = max(out.units, 1)
    rows += [(f"{bucket}.host_self_s", seconds / units, "s",
              f"{samples.get(bucket, 0)} samples, table only")
             for bucket, seconds in sorted(merged["sampler"]["self_s"].items())
             if f"{bucket}.host_self_s" not in values]
    rows += [(f"{bucket}.host_inclusive_s", seconds / units, "s",
              "table only")
             for bucket, seconds in sorted(
                 merged["sampler"]["inclusive_s"].items())]
    rows += [(f"cluster.bytes.{link}", nbytes / units, "B", "table only")
             for link, nbytes in sorted(merged["bytes_by_link"].items())]
    report.print_table(
        f"{args.workload} seed={args.seed} traced window={args.seconds:g}s "
        f"units={out.units} (per-layer values per unit)", rows)
    return out, {name: {"value": values[name], "unit": unit}
                 for name, (unit, _) in report.PER_LAYER.items()}


def trace_overhead(plain, traced) -> float:
    """Traced over untraced time for the same work: per point label where
    the workload times its points (``train-scale``, whose untraced half
    ran only some of them), else the ratio of throughputs."""
    labels = [name for name in plain.named if name.startswith("execute_s.")]
    if labels:
        return (sum(traced.named[name][0] for name in labels)
                / sum(plain.named[name][0] for name in labels))
    return plain.throughput / traced.throughput if traced.throughput else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    # Worker subprocesses (fabric workers, set-up probes) import the
    # program from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    previous = os.getcwd()
    # Relative default paths in the program (bench_results/...) resolve
    # inside the run's own directory, never to a shared warm cache.
    os.chdir(workdir)
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args, workdir)))
            return 0
        from perfbench import gate

        recorded = gate.load_recorded()
        run = traced if args.trace else untraced
        out, metrics = run(args, workdir, recorded)
    finally:
        os.chdir(previous)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for line in out.errors:
        print(f"  gate: {line}")
    print(json.dumps({"correct": out.failed == 0 and not out.errors,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
