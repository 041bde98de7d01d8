"""End-to-end benchmark of the what-if query path.

Run from the root of a checkout::

    python3 whatifbench/run.py --workload whatif-warm --seed 1 \\
        --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen): whatif-warm,
cold-start, service-mix and sweep-grid.  With ``--trace 0`` the run
measures the end-to-end metrics with nothing installed but a GC callback.
With ``--trace 1`` it alternates untraced and traced stretches of the
same closed loop, and reports the per-layer metrics of the traced ops
(see ``layers.py``) plus the tracing overhead.

Times are reported on a reference host.  The speed of a shared host
drifts by tens of percent between runs, so the timed loop runs in
one-second slices with a host-speed reading (``probes.HostSpeed``, a
pointer chase in this thread) after each, and every time the run reports
is multiplied by ``HostSpeed.scale``.  ``peak_rss_mb`` is read after a
fixed number of ops (``Workload.rss_ops``), so memory that grows with
every op does not read higher on a faster host.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries details (the tail percentile and its sample count, the set-up
times, the unscaled median latency and the host-speed reading).  A
human-readable summary goes to standard error.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from time import perf_counter

import probes

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5

#: timed seconds between two host-speed readings
SLICE_SECONDS = 1.0

#: alternating untraced/traced stretches of a ``--trace 1`` run
TRACE_PLAN = (False, True, False, True)

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
    "prediction_error_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_stretch(workload, host, seconds, gc_probe, tracer, progress):
    """Ops for ``seconds``, in slices with a host-speed reading after each.

    Returns the slices as segments.  ``progress`` holds the ops done so
    far and the peak RSS after ``workload.rss_ops`` of them; a slice stops
    at that count so the RSS reading lands exactly on it.
    """
    segments = []
    remaining = seconds
    while remaining > 0:
        max_ops = None
        if progress["rss_kb"] is None:
            max_ops = workload.rss_ops - progress["ops"]
        gc_before = gc_probe.snapshot()
        segment = workload.run_segment(min(SLICE_SECONDS, remaining),
                                       gc_probe, tracer, max_ops)
        gc_after = gc_probe.snapshot()
        segment.gc_ns = gc_after[0] - gc_before[0]
        segment.gc_collections = gc_after[1] - gc_before[1]
        progress["ops"] += len(segment.records)
        if progress["rss_kb"] is None \
                and progress["ops"] >= workload.rss_ops:
            progress["rss_kb"] = probes.peak_rss_kb()
        host.read()
        segments.append(segment)
        remaining -= segment.wall_ns / 1e9
    return segments


def measure(workload_cls, seed, seconds, trace, workdir):
    """Set up, run the closed loop, check outputs; returns (result, detail)."""
    import layers
    from spans import Tracer
    from workloads import prediction_error_pct

    host = probes.HostSpeed()
    workload = workload_cls(seed, workdir)
    setup_raw_s = []
    try:
        for index in range(SETUPS):
            if index:
                workload.teardown()
            gc.collect()  # the previous set-up's garbage is not this one's
            host.read()
            t0 = perf_counter()
            workload.setup()
            setup_raw_s.append(perf_counter() - t0)

        spool = os.path.join(workdir, "spool")
        os.makedirs(spool, exist_ok=True)
        tracer = Tracer(spool) if trace else None
        plan = TRACE_PLAN if trace else (False,)
        segments = []
        progress = {"ops": 0, "rss_kb": None}
        with probes.GCProbe() as gc_probe:
            rss_before = probes.peak_rss_kb()
            for traced in plan:
                if traced:
                    tracer.install()
                try:
                    segments += run_stretch(
                        workload, host, seconds / len(plan), gc_probe,
                        tracer if traced else None, progress)
                finally:
                    if traced:
                        tracer.uninstall()
            rss_after = probes.peak_rss_kb()

        records = [r for segment in segments for r in segment.records]
        failures = workload.verify(records)
        error_pct = prediction_error_pct(workload.anchors())
    finally:
        workload.teardown()

    attempted = len(records)
    failed = len({op for op, _reason in failures})
    scale = host.scale
    latencies_ms = [r.latency_ns * scale / 1e6 for r in records]
    setup_s = [t * scale for t in setup_raw_s]
    tail_ms, tail_pct, samples = probes.tail(latencies_ms)
    # the probe's tables are resident throughout: they add exactly their size
    rss_kb = (progress["rss_kb"] or rss_after) - host.table_kb
    gc_ns = sum(s.gc_ns for s in segments)

    def rate(group):
        """Ops per second of reference-host time."""
        return (sum(len(s.records) for s in group)
                / (sum(s.wall_ns for s in group) * scale / 1e9))

    detail = {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "op_p50_raw_ms": statistics.median(
            r.latency_ns / 1e6 for r in records),
        "host_scale": scale,
        "host_walk_ms": statistics.median(host.walks_ms),
        "op_tail": {"percentile": tail_pct, "samples": samples},
        "peak_rss_after_ops": min(attempted, workload.rss_ops),
        "gc_ms_per_op": gc_ns / attempted / 1e6,
        "rss_growth_kb_per_op": (rss_after - rss_before) / attempted,
        "failures": failures[:5],
    }
    if trace:
        untraced = [s for s in segments if not s.traced]
        traced = [s for s in segments if s.traced]
        values = layers.per_layer(
            {r.op: r.latency_ns for s in traced for r in s.records},
            tracer.spans, getattr(workload, "worker_spans", []),
            untraced_rate=rate(untraced), traced_rate=rate(traced),
            gc_ns=sum(s.gc_ns for s in traced),
            gc_collections=sum(s.gc_collections for s in traced),
            rss_growth_kb=rss_after - rss_before, all_ops=attempted,
            service_stats=getattr(workload, "traced_stats", None))
        metrics = {name: {"value": values[name] * (scale if unit == "ms"
                                                    else 1.0),
                          "unit": unit}
                   for name, unit in layers.UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_tail_ms": tail_ms,
            "ops_per_s": rate(segments),
            "peak_rss_mb": rss_kb / 1024.0,
            "success_ratio": (attempted - failed) / attempted,
            "prediction_error_pct": error_pct,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro); run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".whatifbench-work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, detail = measure(WORKLOADS[args.workload], args.seed,
                                 args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
