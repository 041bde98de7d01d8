"""The four workloads: set-up, the timed closed loop, and output checks.

Each workload drives the public query path the way a user does and keeps
every answer.  Checks run after the timed phase: answers are compared
with the serial reference (``ScenarioRunner().run`` on a fresh runner)
wherever another path produced them, and the anchor scenarios'
predictions are compared with ground truth from
``repro.framework.groundtruth``.
"""

import collections
import gc
import http.client
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from time import perf_counter_ns

import repro.scenarios.batch  # noqa: F401  (imported so the tracer sees it)
from repro.framework.groundtruth import (
    run_amp,
    run_distributed,
    run_fused_adam,
)
from repro.kernels import costmodel
from repro.scenarios import (
    PredictServer,
    PredictService,
    ScenarioRunner,
    SweepStore,
)

import gen
import spans as span_lib

#: pool workers, client connections and service workers: the host has 2 cores
PARALLEL = 2

#: spot checks of the warm path against a fresh runner (besides anchors)
WARM_CHECKS = 12


@dataclass
class OpRecord:
    """One timed op: what was asked, how long it took, what came back."""

    op: int
    item: object
    start_ns: int
    latency_ns: int
    output: object = None
    error: str = None


@dataclass
class Segment:
    """One closed-loop stretch of ops, traced or not."""

    records: list
    wall_ns: int
    traced: bool
    gc_ns: int = 0
    gc_collections: int = 0


def clear_kernel_memo():
    """Empty the process-wide kernel-duration memo, as in a new process."""
    cache = getattr(costmodel, "_DURATION_CACHE", None)
    if cache is not None:
        cache.clear()


def scenario_key(scenario):
    return scenario.to_json(indent=None)


def ground_truth_us(scenario):
    """Measured iteration time with the scenario's optimization applied."""
    stack = [entry if isinstance(entry, str) else entry["name"]
             for entry in scenario.optimizations]
    model = scenario.build_model()
    config = scenario.build_config()
    if stack == ["amp"]:
        return run_amp(model, config).iteration_us
    if stack == ["fused_adam"]:
        return run_fused_adam(model, config).iteration_us
    if stack == ["distributed_training"]:
        return run_distributed(model, scenario.build_cluster(),
                               config).iteration_us
    raise ValueError(f"no ground truth for stack {stack}")


def prediction_error_pct(anchors):
    """Mean |predicted - ground truth| / ground truth over the anchors, in %.

    ``anchors`` holds (scenario, predicted_ms) pairs; scenarios without a
    ground-truth counterpart are skipped.
    """
    errors = []
    for scenario, predicted_ms in anchors:
        try:
            truth_us = ground_truth_us(scenario)
        except ValueError:
            continue
        errors.append(abs(predicted_ms * 1000.0 - truth_us) / truth_us)
    return 100.0 * sum(errors) / len(errors)


class Workload:
    """A seeded stream of ops run in a closed loop by one thread."""

    name = ""

    #: ops after which ``peak_rss_mb`` is read: a fixed count, so that
    #: memory growing with every op reads the same however fast the host
    #: ran (every run at the benchmark's length gets this far)
    rss_ops = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._op_ids = itertools.count()

    def setup(self):
        """Everything before the first timed op (timed as ``setup_s``)."""

    def teardown(self):
        """Release what :meth:`setup` built."""

    def next_item(self):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def before_op(self, gc_probe):
        """Hook before each op, outside its latency."""

    def after_op(self, tracer, op_id):
        """Hook after each traced op, outside its latency."""

    def run_segment(self, seconds, gc_probe, tracer=None, max_ops=None):
        """Closed loop: the next op starts when the previous one returns.

        Stops after ``seconds``, or earlier after ``max_ops`` ops.
        """
        records = []
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while max_ops is None or len(records) < max_ops:
            item = self.next_item()
            op_id = next(self._op_ids)
            self.before_op(gc_probe)
            t0 = perf_counter_ns()
            output = error = None
            try:
                if tracer is None:
                    output = self.op(item)
                else:
                    with tracer.op(op_id):
                        output = self.op(item)
            except Exception as exc:  # counted as a failed op
                error = repr(exc)
            t1 = perf_counter_ns()
            records.append(OpRecord(op_id, item, t0, t1 - t0, output, error))
            if tracer is not None:
                self.after_op(tracer, op_id)
            if t1 >= deadline:
                break
        return Segment(records, perf_counter_ns() - start, tracer is not None)

    def verify(self, records):
        """Failed or wrong ops, as a list of (op id, reason)."""
        return [(r.op, r.error) for r in records if r.error is not None]

    def anchors(self):
        """(scenario, predicted_ms) pairs that have a ground truth."""
        raise NotImplementedError


def _compare_rows(records, reference_rows):
    """Failures of single-row ops whose row differs from the reference."""
    failures = []
    for record in records:
        if record.error is not None:
            failures.append((record.op, record.error))
            continue
        expected = reference_rows.get(scenario_key(record.item))
        if expected is not None and record.output != expected:
            failures.append((record.op, f"row {record.output} != {expected}"))
    return failures


# ---------------------------------------------------------------- whatif-warm

class WhatIfWarm(Workload):
    """Distinct queries against one warm bert_large session."""

    name = "whatif-warm"
    rss_ops = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.stream = gen.warm_stream(seed)
        self.runner = None
        self._reference = None

    def setup(self):
        clear_kernel_memo()
        self.runner = ScenarioRunner()
        session = self.runner.session(gen.warm_anchors()[0])
        session.baseline_result  # noqa: B018  (graph + baseline simulate)

    def teardown(self):
        self.runner = None

    def next_item(self):
        return next(self.stream)

    def op(self, scenario):
        return self.runner.run(scenario).as_row()

    def _reference_rows(self, scenarios):
        if self._reference is None:
            self._reference = ScenarioRunner()
        return {scenario_key(s): self._reference.run(s).as_row()
                for s in scenarios}

    def verify(self, records):
        """Spot-check the warm runner against a fresh one.

        The anchors and WARM_CHECKS ops spread over the run (the last op
        included, when the session has served the most queries) are
        re-run on a fresh runner.
        """
        step = max(1, len(records) // WARM_CHECKS)
        picked = {r.op: r for r in records[:len(gen.warm_anchors())]
                  + records[::step] + records[-1:]}
        reference = self._reference_rows([r.item for r in picked.values()])
        return _compare_rows(list(picked.values()), reference) + [
            (r.op, r.error) for r in records
            if r.error is not None and r.op not in picked]

    def anchors(self):
        scenarios = gen.warm_anchors()
        rows = self._reference_rows(scenarios)
        return [(s, rows[scenario_key(s)][5]) for s in scenarios]


# ----------------------------------------------------------------- cold-start

class ColdStart(Workload):
    """Each query on a fresh runner and a (model, batch, GPU) not seen yet."""

    name = "cold-start"
    rss_ops = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.stream = gen.cold_stream(seed)
        self._anchor_rows = {}

    def setup(self):
        """A new process importing the package: what each query pays first."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import repro.scenarios"],
                       env=env, check=True)

    def teardown(self):
        gc.unfreeze()

    def next_item(self):
        return next(self.stream)

    def before_op(self, gc_probe):
        """Start each query from the collector state of a new process.

        Queries in one process would otherwise share a heap that grows
        with every earlier query (kernel memo entries, cached specs), and
        when a full collection lands, and how much it scans, would depend
        on the whole history.  Freezing what exists moves it out of the
        collector's reach, as a fresh ``repro run`` process has nothing
        of it; the query's own garbage is still collected inside it.
        """
        with gc_probe.ignored():
            gc.collect()
        gc.freeze()

    def op(self, scenario):
        return ScenarioRunner().run(scenario).as_row()

    def verify(self, records):
        """Re-run the anchors, now with a warm kernel memo: rows must match."""
        runner = ScenarioRunner()
        reference = {}
        for scenario in gen.cold_anchors():
            reference[scenario_key(scenario)] = runner.run(scenario).as_row()
        self._anchor_rows = reference
        return _compare_rows(records, reference)

    def anchors(self):
        return [(s, self._anchor_rows[scenario_key(s)][5])
                for s in gen.cold_anchors()]


# ---------------------------------------------------------------- service-mix

class ServiceMix(Workload):
    """Two HTTP clients against the prediction daemon over a filled store."""

    name = "service-mix"
    rss_ops = 300

    #: bodies encoded ahead of a segment, per second of it
    BODIES_PER_SECOND = 600

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool, self.requests = gen.service_mix(seed)
        self._bodies = collections.deque()
        self.server = self.store_dir = None
        self.prefill = {}
        #: ``/stats`` memo counts summed over traced segments, sessions at
        #: the end of the last one
        self.traced_stats = None

    def setup(self):
        clear_kernel_memo()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        service = PredictService(store=SweepStore(self.store_dir),
                                 workers=PARALLEL)
        self.server = PredictServer(service).start()
        self.prefill = {}
        for scenario in self.pool:
            status, data = self._post(self._encode(scenario), -1)
            if status != 200:
                raise RuntimeError(f"pre-fill failed: {status} {data[:200]}")
            self.prefill[scenario_key(scenario)] = json.loads(data)["row"]

    def teardown(self):
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    @staticmethod
    def _encode(scenario):
        return json.dumps(scenario.to_dict()).encode("utf-8")

    def _request(self, method, path, body, op_id):
        conn = http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=60)
        try:
            headers = {span_lib.OP_HEADER: str(op_id)}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _post(self, body, op_id):
        return self._request("POST", "/predict", body, op_id)

    def stats(self):
        status, data = self._request("GET", "/stats", None, -1)
        payload = json.loads(data)
        memo = payload["memo"]
        return {"memo_hits": memo["hits"], "memo_misses": memo["misses"],
                "memo_writes": memo["writes"],
                "sessions_live": payload["sessions"]["live"],
                "sessions_built": payload["sessions"]["built"]}

    def run_segment(self, seconds, gc_probe, tracer=None, max_ops=None):
        """Two closed-loop clients share one request sequence."""
        while len(self._bodies) < seconds * self.BODIES_PER_SECOND:
            scenario = next(self.requests)
            self._bodies.append((scenario, self._encode(scenario)))
        before = self.stats() if tracer is not None else None
        records = []
        started = itertools.count()
        lock = threading.Lock()
        start = perf_counter_ns()
        deadline = start + int(seconds * 1e9)

        def client():
            while True:
                with lock:
                    if not self._bodies or (max_ops is not None
                                            and next(started) >= max_ops):
                        return
                    op_id = next(self._op_ids)
                    scenario, body = self._bodies.popleft()
                t0 = perf_counter_ns()
                output = error = None
                try:
                    output = self._post(body, op_id)
                except Exception as exc:  # counted as a failed op
                    error = repr(exc)
                t1 = perf_counter_ns()
                with lock:
                    records.append(OpRecord(op_id, scenario, t0, t1 - t0,
                                            output, error))
                if t1 >= deadline:
                    return

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(PARALLEL)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = max(r.start_ns + r.latency_ns for r in records) - start
        if tracer is not None:
            after = self.stats()
            totals = self.traced_stats or dict.fromkeys(after, 0)
            self.traced_stats = {
                key: (totals[key] + after[key] - before[key]
                      if key.startswith("memo") else after[key])
                for key in after}
        return Segment(sorted(records, key=lambda r: r.op), wall,
                       tracer is not None)

    def verify(self, records):
        """Every answer must be a 200 whose row equals the serial reference."""
        runner = ScenarioRunner()
        reference = {}
        failures = []
        for record in records:
            if record.error is not None:
                failures.append((record.op, record.error))
                continue
            status, data = record.output
            if status != 200:
                failures.append((record.op, f"HTTP {status}: {data[:200]}"))
                continue
            key = scenario_key(record.item)
            if key not in reference:
                reference[key] = json.loads(json.dumps(
                    runner.run(record.item).as_row()))
            row = json.loads(data)["row"]
            if row != reference[key]:
                failures.append((record.op, f"row {row} != {reference[key]}"))
        for scenario in gen.service_anchors():
            key = scenario_key(scenario)
            expected = json.loads(json.dumps(runner.run(scenario).as_row()))
            if self.prefill[key] != expected:
                failures.append((-1, f"pre-fill row {self.prefill[key]} "
                                     f"!= {expected}"))
        return failures

    def anchors(self):
        return [(s, self.prefill[scenario_key(s)][5])
                for s in gen.service_anchors()]


# ----------------------------------------------------------------- sweep-grid

class SweepGrid(Workload):
    """24-cell grids through the process pool, half of them stored."""

    name = "sweep-grid"
    rss_ops = 20

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.grids = gen.sweep_grids(seed)
        self.runner = self.store = self.store_dir = None
        self.prefill = []
        self.worker_spans = []

    def setup(self):
        clear_kernel_memo()
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.store = SweepStore(self.store_dir)
        self.runner = ScenarioRunner()
        self.prefill = self.op(gen.sweep_prefill())

    def teardown(self):
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def next_item(self):
        return next(self.grids)

    def op(self, grid):
        outcomes = self.runner.run_grid(grid, parallel=PARALLEL,
                                        store=self.store)
        return [outcome.as_row() for outcome in outcomes]

    def after_op(self, tracer, op_id):
        self.worker_spans.extend(tracer.collect_worker_spans(op_id))

    def verify(self, records):
        """Every cell of every grid must equal the serial reference row."""
        runner = ScenarioRunner()
        reference = {}
        failures = []

        def check(op_id, grid, rows):
            for scenario, row in zip(grid, rows):
                key = scenario_key(scenario)
                if key not in reference:
                    reference[key] = runner.run(scenario).as_row()
                if row != reference[key]:
                    failures.append((op_id, f"row {row} != {reference[key]}"))

        check(-1, gen.sweep_prefill(), self.prefill)
        for record in records:
            if record.error is not None:
                failures.append((record.op, record.error))
            elif len(record.output) != len(record.item):
                failures.append((record.op, "missing cells"))
            else:
                check(record.op, record.item, record.output)
        return failures

    def anchors(self):
        rows = {scenario_key(s): row
                for s, row in zip(gen.sweep_prefill(), self.prefill)}
        return [(s, rows[scenario_key(s)][5]) for s in gen.sweep_anchors()]


WORKLOADS = {cls.name: cls
             for cls in (WhatIfWarm, ColdStart, ServiceMix, SweepGrid)}
