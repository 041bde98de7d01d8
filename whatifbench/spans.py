"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the ``repro`` modules at every name
their callers look up (``from x import f`` copies the binding, so a
function can live under several module attributes) and records one span
per call: id, parent span id, layer name, start and end in
``perf_counter_ns``, the op it belongs to and an optional note.  Nothing
inside the program changes; :meth:`Tracer.uninstall` puts every original
object back.

Self time is computed afterwards from the span tree: a span's duration
minus the durations of its direct children.  ``perf_counter`` is the
system-wide monotonic clock on Linux, so spans that forked pool workers
hand back (see :meth:`Tracer.collect_worker_spans`) share the parent's
timeline.
"""

import functools
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

def _pipeline_name(args, kwargs):
    """Span name of one ``OptimizationPipeline.apply``: split per stack."""
    return "pipeline." + "-".join(args[0].describe())


def _store_hit(result):
    """Note of one ``SweepStore.get``: whether it served an entry."""
    return result is not None


def _batch_report(result):
    """Note of one ``run_batch``: the report's cell accounting."""
    return {"computed": result.computed, "cached": result.hits,
            "retried": result.retried, "failed": result.failed}


#: (module, attribute path, layer name, name function, note function).
#: A module-level function is wrapped at every ``repro`` module attribute
#: bound to it; a method is wrapped on its class.
TARGETS = (
    ("repro.models.registry", "build_model", "models.build_model",
     None, None),
    ("repro.framework.engine", "Engine.run_iteration",
     "framework.run_iteration", None, None),
    ("repro.core.construction", "build_graph", "core.build_graph",
     None, None),
    ("repro.core.graph", "DependencyGraph.validate", "core.validate",
     None, None),
    ("repro.core.mapping", "map_tasks_to_layers", "core.map_tasks_to_layers",
     None, None),
    ("repro.core.graph", "DependencyGraph.overlay", "core.overlay",
     None, None),
    ("repro.scenarios.pipeline", "OptimizationPipeline.apply",
     "pipeline.apply", _pipeline_name, None),
    ("repro.core.simulate", "simulate", "core.simulate", None, None),
    ("repro.core.compiled", "CompiledGraph.build", "core.lowering",
     None, None),
    ("repro.core.compiled", "CompiledGraph.run", "core.compiled_run",
     None, None),
    ("repro.core.compiled", "simulate_many", "core.simulate_many",
     None, None),
    ("repro.analysis.session", "WhatIfSession.predict", "session.predict",
     None, None),
    ("repro.scenarios.runner", "ScenarioRunner.run", "runner.run",
     None, None),
    ("repro.scenarios.runner", "ScenarioRunner.detached_outcome",
     "runner.detached_outcome", None, None),
    ("repro.scenarios.store", "SweepStore.get", "store.get",
     None, _store_hit),
    ("repro.scenarios.store", "SweepStore.put", "store.put", None, None),
    ("repro.scenarios.batch", "run_batch", "batch.run_batch",
     None, _batch_report),
    ("repro.scenarios.service", "PredictService.predict", "service.predict",
     None, None),
)

#: the pool workers' entry point: wrapped to hand worker spans back
WORKER_ENTRY = ("repro.scenarios.batch", "_worker_run_chunk",
                "batch.worker_chunk")

#: the HTTP handler whose requests carry the client's op id
HTTP_ENTRY = ("repro.scenarios.service", "_PredictHTTPHandler.do_POST")

#: request header carrying the op id from the client to the server thread
OP_HEADER = "X-Bench-Op"


class Tracer:
    """Records spans around wrapped ``repro`` functions.

    A span is the tuple ``(id, parent id or 0, layer, start_ns, end_ns,
    op id, note)``; ``spans`` holds them in the order they ended.
    """

    def __init__(self, spool_dir=None):
        self.spool_dir = spool_dir
        self.spans = []
        self.pid = self._owner_pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original object)

    # ------------------------------------------------------------ context

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id):
        """Attribute spans opened by this thread to one op."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    def _record(self, name, name_fn, note_fn, fn):
        """Wrap ``fn`` to record one span per call under layer ``name``.

        ``name_fn(args, kwargs)``, when given, names the span instead;
        ``note_fn(result)`` attaches a note to it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            label = name if name_fn is None else name_fn(args, kwargs)
            stack.append(sid)
            note = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if note_fn is not None:
                    note = note_fn(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, label, start, end,
                                     getattr(tracer._local, "op", None),
                                     note))
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module_name, attribute, make):
        """Wrap a module function at every ``repro`` binding of it."""
        original = getattr(sys.modules[module_name], attribute)
        wrapper = make(original)
        for name, module in sorted(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def _patch_method(self, module_name, path, make):
        """Wrap a method on its class, keeping classmethods classmethods."""
        class_name, attribute = path.split(".")
        owner = getattr(sys.modules[module_name], class_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patch(owner, attribute, replacement)

    def install(self):
        """Wrap every target; call :meth:`uninstall` to restore them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name, name_fn, note_fn in TARGETS:
            make = functools.partial(self._record, name, name_fn, note_fn)
            if "." in path:
                self._patch_method(module_name, path, make)
            else:
                self._patch_function(module_name, path, make)
        module_name, attribute, name = WORKER_ENTRY
        self._patch_function(module_name, attribute,
                             functools.partial(self._make_worker_entry, name))
        module_name, path = HTTP_ENTRY
        self._patch_method(module_name, path, self._make_http_entry)
        return self

    def uninstall(self):
        """Put back every patched object, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    # ------------------------------------------------------- pool workers

    def _make_worker_entry(self, name, fn):
        """Record a chunk's spans in the worker and spool them to a file.

        A forked worker inherits the wrappers and the parent's span list;
        the first chunk in a new process starts an empty one.  After each
        chunk the worker appends its spans to ``worker-<pid>.jsonl`` in
        the spool directory, which :meth:`collect_worker_spans` reads.
        """
        tracer = self
        recorded = self._record(name, None, None, fn)

        @functools.wraps(fn)
        def wrapper(chunk):
            if os.getpid() != tracer.pid:
                tracer.pid = os.getpid()
                tracer.spans = []
                tracer._local = threading.local()
            try:
                return recorded(chunk)
            finally:
                if (tracer.spool_dir is not None
                        and tracer.pid != tracer._owner_pid):
                    path = os.path.join(tracer.spool_dir,
                                        f"worker-{tracer.pid}.jsonl")
                    with open(path, "a") as f:
                        for span in tracer.spans:
                            f.write(json.dumps(span) + "\n")
                    tracer.spans = []
        return wrapper

    def collect_worker_spans(self, op_id):
        """Read and delete spooled worker spans, attributing them to an op.

        Returns the spans as tuples with the op id filled in.  Span ids of
        different workers may collide, so each is offset by its pid.
        """
        if self.spool_dir is None:
            return []
        out = []
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            pid = int(entry[len("worker-"):-len(".jsonl")])
            with open(path) as f:
                for line in f:
                    sid, parent, name, start, end, _op, note = json.loads(line)
                    out.append(((pid, sid), (pid, parent) if parent else 0,
                                name, start, end, op_id, note))
            os.remove(path)
        return out

    # ------------------------------------------------------------- HTTP

    def _make_http_entry(self, fn):
        """Adopt the client's op id for spans of one HTTP request."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(handler):
            op_id = handler.headers.get(OP_HEADER)
            with tracer.op(int(op_id) if op_id is not None else None):
                return fn(handler)
        return wrapper


# -------------------------------------------------------------- analysis

def self_times(spans):
    """Map span id -> (self_ns, duration_ns) from one span list."""
    child_ns = defaultdict(int)
    for sid, parent, _name, start, end, _op, _note in spans:
        if parent:
            child_ns[parent] += end - start
    return {sid: (end - start - child_ns[sid], end - start)
            for sid, _parent, _name, start, end, _op, _note in spans}


def roots(spans):
    """Spans whose parent is not among ``spans`` (top-level layer calls)."""
    ids = {span[0] for span in spans}
    return [span for span in spans if not span[1] or span[1] not in ids]


def by_op(spans):
    """Group spans by their op id (``None`` for spans outside any op)."""
    groups = defaultdict(list)
    for span in spans:
        groups[span[5]].append(span)
    return groups


def covered_ns(intervals, lo, hi):
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
