"""Per-layer metrics of a traced run, derived from the recorded spans.

Every value is per op (the workload's unit of work) unless its name says
otherwise.  For each op, the self times of its parent-process spans plus
``op.unattributed_ms`` add up to the op's latency: self time is a span's
duration minus its children's, so the self times of a span tree sum to
the durations of its roots, and ``unattributed`` is the op latency minus
those roots.  Spans that pool workers hand back run beside the parent's
wait and are reported apart, under ``batch.worker_*``.
"""

from collections import defaultdict

import spans as span_lib

#: (layer, whether it has wrapped children, so an inclusive ``ms`` too)
LAYERS = (
    ("models.build_model", False),
    ("framework.run_iteration", False),
    ("core.build_graph", True),
    ("core.validate", False),
    ("core.map_tasks_to_layers", False),
    ("core.overlay", False),
    ("pipeline.apply", True),
    ("core.simulate", True),
    ("core.lowering", False),
    ("core.compiled_run", False),
    ("core.simulate_many", True),
    ("session.predict", True),
    ("runner.run", True),
    ("runner.detached_outcome", True),
    ("store.get", False),
    ("store.put", False),
    ("batch.run_batch", True),
    ("service.predict", True),
)

#: optimization stacks the workloads ask about, as pipeline span suffixes
PIPELINE_STACKS = ("amp", "fused_adam", "distributed_training", "p3",
                   "amp-distributed_training")

#: worker self time grouped by what the worker was doing
WORKER_GROUPS = {
    "profile": ("models.build_model", "framework.run_iteration"),
    "graph": ("core.build_graph", "core.validate",
              "core.map_tasks_to_layers"),
}

#: name -> unit of every metric :func:`per_layer` returns, in print order
UNITS = {}
for _layer, _has_children in LAYERS:
    if _layer == "core.lowering":
        UNITS["core.lowerings_per_op"] = "count"
    else:
        UNITS[f"{_layer}.calls"] = "count"
    UNITS[f"{_layer}.self_ms"] = "ms"
    if _has_children:
        UNITS[f"{_layer}.ms"] = "ms"
for _stack in PIPELINE_STACKS:
    UNITS[f"pipeline.{_stack}.calls"] = "count"
    UNITS[f"pipeline.{_stack}.self_ms"] = "ms"
UNITS.update({
    "core.compiled_share": "ratio",
    "store.hit_ratio": "ratio",
    "batch.cells_computed": "count",
    "batch.cells_cached": "count",
    "batch.retried": "count",
    "batch.failed": "count",
    "batch.pool_wait_ms": "ms",
    "batch.worker_ms": "ms",
    "batch.worker_profile_ms": "ms",
    "batch.worker_graph_ms": "ms",
    "batch.worker_predict_ms": "ms",
    "service.http_overhead_ms": "ms",
    "service.memo_hits": "count",
    "service.memo_misses": "count",
    "service.memo_writes": "count",
    "service.sessions_live": "count",
    "service.sessions_built": "count",
    "runtime.gc_ms": "ms",
    "runtime.gc_collections": "count",
    "runtime.rss_growth_kb_per_op": "KiB",
    "op.count": "count",
    "op.ms": "ms",
    "op.unattributed_ms": "ms",
    "op.trace_overhead_pct": "%",
})
del _layer, _has_children, _stack


def _layer_of(name):
    return "pipeline.apply" if name.startswith("pipeline.") else name


def _inclusive(spans, layer_of):
    """Per layer, the summed durations of its outermost spans."""
    parent_of = {span[0]: span[1] for span in spans}
    name_of = {span[0]: layer_of(span[2]) for span in spans}
    total = defaultdict(int)
    for sid, parent, name, start, end, _op, _note in spans:
        layer = name_of[sid]
        nested = False
        while parent:
            if name_of.get(parent) == layer:
                nested = True
                break
            parent = parent_of.get(parent, 0)
        if not nested:
            total[layer] += end - start
    return total


def attribution(op_latency_ns, op_spans):
    """(self_ns by span id, unattributed_ns) of one op's parent spans."""
    selfs = span_lib.self_times(op_spans)
    top = sum(end - start for _s, _p, _n, start, end, _o, _note
              in span_lib.roots(op_spans))
    return selfs, op_latency_ns - top


def _complement(lo, hi, intervals):
    """Sub-intervals of ``[lo, hi)`` not covered by ``intervals``."""
    out = []
    cursor = lo
    for start, end in sorted(intervals):
        if start > cursor:
            out.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        out.append((cursor, hi))
    return out


def per_layer(ops, spans, worker_spans, *, untraced_rate, traced_rate,
              gc_ns, gc_collections, rss_growth_kb, all_ops,
              service_stats=None):
    """Every per-layer metric of a traced run, as ``{name: value}``.

    ``ops`` maps op id -> latency_ns for the traced ops; ``spans`` are the
    parent-process spans and ``worker_spans`` those pool workers handed
    back.  ``service_stats`` holds the ``/stats`` counter deltas over the
    traced segments (service workload only).
    """
    n = len(ops)
    out = {name: 0.0 for name in UNITS}
    out["op.count"] = float(n)
    if not n:
        return out
    spans = [s for s in spans if s[5] in ops]
    grouped = span_lib.by_op(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    unattributed = 0
    for op_id, latency in ops.items():
        op_spans = grouped.get(op_id, [])
        selfs, gap = attribution(latency, op_spans)
        unattributed += gap
        for span in op_spans:
            calls[span[2]] += 1
            self_ns[span[2]] += selfs[span[0]][0]
    inclusive = _inclusive(spans, _layer_of)
    layer_calls = defaultdict(int)
    layer_self = defaultdict(int)
    for name in calls:
        layer_calls[_layer_of(name)] += calls[name]
        layer_self[_layer_of(name)] += self_ns[name]
    for layer, has_children in LAYERS:
        key = ("core.lowerings_per_op" if layer == "core.lowering"
               else f"{layer}.calls")
        out[key] = layer_calls[layer] / n
        out[f"{layer}.self_ms"] = layer_self[layer] / n / 1e6
        if has_children:
            out[f"{layer}.ms"] = inclusive[layer] / n / 1e6
    for stack in PIPELINE_STACKS:
        out[f"pipeline.{stack}.calls"] = calls[f"pipeline.{stack}"] / n
        out[f"pipeline.{stack}.self_ms"] = self_ns[f"pipeline.{stack}"] / n / 1e6

    # engine runs: every simulate, plus array-engine runs outside simulate
    name_of = {s[0]: s[2] for s in spans}
    array_runs = layer_calls["core.compiled_run"]
    direct_array = sum(1 for s in spans if s[2] == "core.compiled_run"
                       and name_of.get(s[1]) != "core.simulate")
    engine_runs = layer_calls["core.simulate"] + direct_array
    out["core.compiled_share"] = array_runs / engine_runs if engine_runs else 0.0

    gets = [s for s in spans if s[2] == "store.get"]
    if gets:
        out["store.hit_ratio"] = sum(1 for s in gets if s[6]) / len(gets)

    batches = [s for s in spans if s[2] == "batch.run_batch"]
    for span in batches:
        note = span[6] or {}
        out["batch.cells_computed"] += note.get("computed", 0) / n
        out["batch.cells_cached"] += note.get("cached", 0) / n
        out["batch.retried"] += note.get("retried", 0) / n
        out["batch.failed"] += note.get("failed", 0) / n
    _worker_metrics(out, n, spans, batches, worker_spans)

    if service_stats is not None:
        served = [s for s in spans if s[2] == "service.predict"]
        server_ns = sum(s[4] - s[3] for s in served)
        out["service.http_overhead_ms"] = (
            (sum(ops.values()) - server_ns) / n / 1e6)
        for key in ("memo_hits", "memo_misses", "memo_writes"):
            out[f"service.{key}"] = service_stats[key] / n
        out["service.sessions_live"] = float(service_stats["sessions_live"])
        out["service.sessions_built"] = float(service_stats["sessions_built"])

    out["runtime.gc_ms"] = gc_ns / n / 1e6
    out["runtime.gc_collections"] = gc_collections / n
    out["runtime.rss_growth_kb_per_op"] = rss_growth_kb / all_ops
    out["op.ms"] = sum(ops.values()) / n / 1e6
    out["op.unattributed_ms"] = unattributed / n / 1e6
    out["op.trace_overhead_pct"] = (
        (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0)
    return out


def _worker_metrics(out, n, spans, batches, worker_spans):
    """Pool-worker time, and the parent's wait that no worker span covers.

    ``batch.pool_wait_ms`` is the part of ``run_batch``'s self time (the
    parent waiting on the pool: start-up, pickling, result hand-off) during
    which no worker was inside a recorded chunk.
    """
    chunks = [s for s in worker_spans if s[2] == "batch.worker_chunk"]
    intervals = [(s[3], s[4]) for s in chunks]
    children = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[3], span[4]))
    wait = 0
    for span in batches:
        for lo, hi in _complement(span[3], span[4], children[span[0]]):
            wait += (hi - lo) - span_lib.covered_ns(intervals, lo, hi)
    out["batch.pool_wait_ms"] = wait / n / 1e6
    out["batch.worker_ms"] = sum(s[4] - s[3] for s in chunks) / n / 1e6
    selfs = span_lib.self_times(worker_spans)
    grouped = defaultdict(int)
    for span in worker_spans:
        group = "predict"
        for name, layers in WORKER_GROUPS.items():
            if span[2] in layers:
                group = name
        if span[2] != "batch.worker_chunk":
            grouped[group] += selfs[span[0]][0]
    for group in ("profile", "graph", "predict"):
        out[f"batch.worker_{group}_ms"] = grouped[group] / n / 1e6
