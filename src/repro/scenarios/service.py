"""The interactive what-if prediction service: warm sessions as a daemon.

The scenario layer answers "what if I applied this optimization?" in
milliseconds once a session is warm — but until now only via one-shot CLI
invocations that pay the profiling cost every time.  This module is the
deployment shape the ROADMAP names: a persistent daemon (``repro
serve-predict``) that keeps sessions warm between queries and shares
answers fleet-wide through the sweep store.

* :class:`SessionPool` — an LRU pool of warm
  :class:`~repro.scenarios.runner.ScenarioRunner` sessions keyed by
  workload ``(model, batch size, training config)``, bounded by
  ``max_sessions``, beside an LRU of model specs keyed ``(model, batch
  size)`` under the same bound.  Entries are *generation-checked*: a pool
  built under one store salt flushes wholesale when the registry
  fingerprint rotates, and a session or spec whose runtime model builder
  was re-registered is rebuilt rather than trusted — a stale session must
  never answer for a workload that no longer means the same thing;
* :class:`PredictService` — the transport-independent core: parse a
  scenario payload and validate it once on the pool's cached spec,
  consult the :class:`~repro.scenarios.store.SweepStore` memo (the
  *same* canonical keys and salt as ``repro sweep`` — there is no second
  keying scheme; a hit builds nothing), compute misses on a pooled warm
  session, write the result back, and answer with the row bit-identical
  to the serial CLI path.  Errors
  degrade per request: a bad scenario is a 400 with the validation
  message, an engine failure is a 500 for that request only — the
  failing session is evicted and the pool keeps serving;
* :class:`PredictServer` — the stdlib-HTTP front end, built on the same
  :class:`~repro.scenarios.backends.HTTPServerBase` /
  :class:`~repro.scenarios.backends.HTTPHandlerBase` as
  :class:`~repro.scenarios.backends.StoreServer`: ``POST /predict`` for
  one scenario, ``POST /predict/batch`` for scenario lists, grids, and
  :class:`~repro.core.compiled.CellDelta`-style task-override grids
  routed through :meth:`~repro.analysis.session.WhatIfSession.
  simulate_many` on one shared lowering, plus ``GET /healthz`` and ``GET
  /stats`` (session / memo-hit / latency counters).  Response framing,
  body framing and the ``Bearer`` auth check come from the shared
  handler base; ``--auth-token`` gates the POST endpoints while the GET
  probes stay open.

The wire protocol, session-pool lifecycle, memoization contract and
failure modes are written down in ``docs/service.md`` and drift-checked
by tests; ``benchmarks/bench_service.py`` records p50/p99 latency and
sustained QPS under concurrent clients in ``BENCH_service.json``.
"""

import collections
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, DaydreamError
from repro.core.compiled import CellDelta
from repro.framework.config import TrainingConfig
from repro.hw.topology import ClusterSpec
from repro.models.base import ModelSpec
from repro.scenarios.backends import HTTPHandlerBase, HTTPServerBase
from repro.scenarios.pipeline import PipelineError
from repro.scenarios.registry import DEFAULT_REGISTRY, OptimizationRegistry
from repro.scenarios.runner import (
    SCENARIO_RESULT_HEADERS,
    ScenarioOutcome,
    ScenarioRunner,
    validate_stack,
)
from repro.scenarios.scenario import Scenario, ScenarioGrid
from repro.scenarios.store import (
    SweepStore,
    scenario_key,
    store_salt,
    timings_ok,
)

#: a scenario is a few hundred bytes of JSON; a request body anywhere
#: near this cap (1 MiB) is a broken or hostile client, not a question
MAX_REQUEST_BYTES = 1 << 20

#: how many warm per-workload sessions the pool keeps by default
DEFAULT_MAX_SESSIONS = 8

#: how many predictions may simulate concurrently by default
DEFAULT_WORKERS = 4

#: the rolling window of per-request latencies behind ``GET /stats``
LATENCY_WINDOW = 2048

#: what validating a scenario builds: its model, config and cluster specs
_Specs = Tuple[ModelSpec, TrainingConfig, Optional[ClusterSpec]]


class ServiceError(DaydreamError):
    """A per-request service failure, carrying its HTTP status.

    400s are the client's problem (malformed scenario, unknown
    optimization, missing cluster); 500s are the engine's — and by
    contract cost only the request that hit them: the failing session is
    evicted and the pool keeps serving.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def parse_scenario_payload(payload: object) -> Scenario:
    """Parse one wire-format scenario dict, mapping failures to 400s.

    The wire format *is* :meth:`~repro.scenarios.scenario.Scenario.
    to_dict` — the same canonical dict the store hashes — so a scenario
    that round-trips through the service is byte-identical to one read
    from a scenario file.  Unknown fields, missing ``model``, bad types
    and unknown schedule policies all surface as
    :class:`ServiceError` 400s carrying the validation message.
    """
    if not isinstance(payload, dict):
        raise ServiceError("scenario must be a JSON object, got "
                           f"{type(payload).__name__}")
    try:
        return Scenario.from_dict(payload)
    except ConfigError as exc:
        raise ServiceError(str(exc)) from None


def _percentile(samples: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of a sample list (``None`` when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(q * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class _SessionEntry:
    """One pooled workload: its runner, lock and generation stamps."""

    workload: object
    runner: ScenarioRunner
    model_token: object
    lock: threading.Lock = field(default_factory=threading.Lock)


class SessionPool:
    """An LRU pool of warm per-workload scenario-runner sessions.

    Keyed exactly like :meth:`ScenarioRunner._session_key` — ``(model,
    batch size, training config)`` — so every scenario of one workload
    shares one profiled session and one compiled baseline lowering, no
    matter what optimization stack it asks about.  The pool holds at most
    ``max_sessions`` entries, evicting least-recently-used beyond that.

    Beside the sessions it keeps the model specs requests are validated
    on (:meth:`model`): an LRU keyed ``(model, batch size)``, bounded by
    the same ``max_sessions`` because a client picks the batch size, and
    a new entry's runner starts from the cached spec, so a new workload
    builds its spec once.

    Two invalidation rules keep warm state honest:

    * the whole pool records the :func:`~repro.scenarios.store.
      store_salt` it was built under and **flushes** its sessions when
      the registry fingerprint rotates (a new generation of content keys
      deserves a fresh generation of sessions);
    * each entry and each spec records the identity of its model's
      *runtime builder* and is **rebuilt** when the builder was
      re-registered — the cached session profiled the old model and
      serving it would be a stale, silently-wrong answer.
    """

    def __init__(self, registry: Optional[OptimizationRegistry] = None,
                 max_sessions: int = DEFAULT_MAX_SESSIONS) -> None:
        if max_sessions < 1:
            raise ConfigError("max_sessions must be at least 1")
        self.registry = registry or DEFAULT_REGISTRY
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._entries: "collections.OrderedDict[object, _SessionEntry]" = \
            collections.OrderedDict()
        #: (model, batch size) -> (spec, builder token), in LRU order
        self._models: "collections.OrderedDict[object, tuple]" = \
            collections.OrderedDict()
        self._salt = store_salt(self.registry)
        self.built = 0
        self.evicted_lru = 0
        self.evicted_error = 0
        self.evicted_stale_model = 0
        self.flushed_salt = 0

    @property
    def salt(self) -> str:
        """The store salt this pool's current generation was built under."""
        with self._lock:
            return self._salt

    def model(self, scenario: Scenario) -> ModelSpec:
        """The model spec of a scenario's workload, from the bounded cache.

        Built outside the pool lock (a big model takes milliseconds) on a
        miss or a re-registered builder; a build that raises caches
        nothing.
        """
        key = (scenario.model, scenario.batch_size)
        token = ScenarioRunner._builder_token(scenario)
        with self._lock:
            cached = self._models.get(key)
            if cached is not None and cached[1] is token:
                self._models.move_to_end(key)
                return cached[0]
        spec = scenario.build_model()
        with self._lock:
            self._models[key] = (spec, token)
            self._models.move_to_end(key)
            while len(self._models) > self.max_sessions:
                self._models.popitem(last=False)
        return spec

    def checkout(self, scenario: Scenario) -> _SessionEntry:
        """The (possibly fresh) pool entry serving one scenario's workload.

        Moves the entry to the MRU end, builds it if missing (evicting
        LRU entries beyond capacity), and applies both invalidation
        rules first — a salt rotation flushes the pool, a re-registered
        model builder evicts the stale entry.  The caller serializes
        actual simulation on ``entry.lock``.
        """
        config = scenario.build_config()
        workload = (scenario.model, scenario.batch_size, config)
        token = ScenarioRunner._builder_token(scenario)
        with self._lock:
            salt = store_salt(self.registry)
            if salt != self._salt:
                self._entries.clear()
                self._salt = salt
                self.flushed_salt += 1
            entry = self._entries.get(workload)
            if entry is not None and entry.model_token is not token:
                del self._entries[workload]
                self.evicted_stale_model += 1
                entry = None
            if entry is None:
                runner = ScenarioRunner(self.registry)
                spec_key = (scenario.model, scenario.batch_size)
                cached = self._models.get(spec_key)
                if cached is not None and cached[1] is token:
                    runner._models[spec_key] = cached  # same (spec, token)
                entry = _SessionEntry(workload=workload, runner=runner,
                                      model_token=token)
                self._entries[workload] = entry
                self.built += 1
                while len(self._entries) > self.max_sessions:
                    self._entries.popitem(last=False)
                    self.evicted_lru += 1
            else:
                self._entries.move_to_end(workload)
            return entry

    def evict(self, entry: _SessionEntry) -> None:
        """Drop one entry after an engine failure (idempotent).

        Only the exact entry is dropped: a fresh entry that already
        replaced it under the same workload key is left alone.
        """
        with self._lock:
            if self._entries.get(entry.workload) is entry:
                del self._entries[entry.workload]
                self.evicted_error += 1

    def __len__(self) -> int:
        """How many warm sessions are currently pooled."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for ``GET /stats``."""
        with self._lock:
            return {
                "live": len(self._entries),
                "capacity": self.max_sessions,
                "specs": len(self._models),
                "built": self.built,
                "evicted_lru": self.evicted_lru,
                "evicted_error": self.evicted_error,
                "evicted_stale_model": self.evicted_stale_model,
                "flushed_salt": self.flushed_salt,
            }


class PredictService:
    """The transport-independent prediction core behind the daemon.

    Owns the :class:`SessionPool`, the optional
    :class:`~repro.scenarios.store.SweepStore` memo tier, the concurrency
    gate (``workers`` simulations at a time) and the request/latency
    counters.  :class:`PredictServer` is a thin HTTP shell over the four
    public entry points (:meth:`predict`, :meth:`predict_batch`,
    :meth:`healthz`, :meth:`stats`); tests and benchmarks may also call
    them directly.

    The memoization contract: responses are keyed by
    :func:`~repro.scenarios.store.scenario_key` under the service's own
    registry — the *same* key a ``repro sweep`` over the same store would
    use — and memoized values are the same ``{"baseline_us",
    "predicted_us"}`` float pair the batch executor writes, so a cell
    computed by a sweep is a warm hit here and vice versa.  A store built
    against a different registry object is refused outright: one keying
    scheme, enforced.

    Every request is validated once, on the pool's cached model spec
    (:meth:`SessionPool.model`), before any memo read or pool checkout; a
    memo hit answers from what that validation built and the store's
    values, so it builds no spec and profiles nothing.
    """

    def __init__(self, registry: Optional[OptimizationRegistry] = None,
                 store: Optional[SweepStore] = None,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 workers: int = DEFAULT_WORKERS) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        if store is not None and store.registry is not self.registry:
            raise ConfigError(
                "the service and its store must share one registry "
                "object — two registries would mean two keying schemes "
                "for the same entries")
        if workers < 1:
            raise ConfigError("workers must be at least 1")
        self.store = store
        self.pool = SessionPool(self.registry, max_sessions=max_sessions)
        self.workers = workers
        self._gate = threading.BoundedSemaphore(workers)
        self._lock = threading.Lock()
        self._requests: "collections.Counter[str]" = collections.Counter()
        self._errors: "collections.Counter[int]" = collections.Counter()
        self._latencies: "collections.deque[float]" = \
            collections.deque(maxlen=LATENCY_WINDOW)
        self.started_at = time.time()

    # ------------------------------------------------------------- keying

    def key_for(self, scenario: Scenario) -> str:
        """The content key a scenario's answer is memoized under.

        Exactly :func:`~repro.scenarios.store.scenario_key` under this
        service's registry — the property tests pin that responses never
        grow a second keying scheme.
        """
        return scenario_key(scenario, self.registry)

    # ---------------------------------------------------------- accounting

    def note_request(self, endpoint: str) -> None:
        """Count one request against an endpoint bucket."""
        with self._lock:
            self._requests[endpoint] += 1

    def note_error(self, status: int) -> None:
        """Count one error response by HTTP status."""
        with self._lock:
            self._errors[int(status)] += 1

    def observe_latency(self, seconds: float) -> None:
        """Record one request's wall-clock latency (rolling window)."""
        with self._lock:
            self._latencies.append(seconds)

    # ---------------------------------------------------------- validation

    def _validate(self, scenario: Scenario) -> _Specs:
        """Reject everything a 400 should catch before any warm state.

        Unknown models, unknown optimizations, malformed stacks, bad
        device declarations and cluster-requiring stacks without a
        cluster (:func:`~repro.scenarios.runner.validate_stack`) all fail
        here — on the pool's cached model spec, no profiling, no pool
        slot consumed.  Returns the specs a memo hit's outcome carries.
        """
        try:
            model = self.pool.model(scenario)
            config = scenario.build_config()
            cluster, _pipeline = validate_stack(scenario, self.registry)
        except (ConfigError, PipelineError) as exc:
            raise ServiceError(str(exc)) from None
        return model, config, cluster

    # ----------------------------------------------------------- responses

    def _response(self, scenario: Scenario, key: str,
                  outcome: ScenarioOutcome) -> Dict[str, object]:
        """The wire answer for one scenario (single and batch share it)."""
        return {
            "key": key,
            "kind": "predict",
            "cached": outcome.cached,
            "scenario": scenario.to_dict(),
            "values": {"baseline_us": outcome.baseline_us,
                       "predicted_us": outcome.predicted_us},
            "improvement_percent": outcome.improvement_percent,
            "headers": list(SCENARIO_RESULT_HEADERS),
            "row": outcome.as_row(),
        }

    # ------------------------------------------------------------ predict

    def _memo_hit(self, scenario: Scenario, key: str,
                  specs: _Specs) -> Optional[Dict[str, object]]:
        """The answer memoized on the store for one scenario, if any.

        The same trust check the batch executor applies to a store hit
        (:func:`~repro.scenarios.store.timings_ok`): the service and the
        sweep executor share one memoization contract, not two.  The
        outcome carries the ``specs`` validation built; nothing is built
        or validated again.
        """
        if self.store is None:
            return None
        values = self.store.get(scenario)
        if not timings_ok(values):
            return None
        model, config, cluster = specs
        outcome = ScenarioOutcome(
            scenario=scenario, model=model, config=config, cluster=cluster,
            baseline_us=values["baseline_us"],
            predicted_us=values["predicted_us"], cached=True)
        return self._response(scenario, key, outcome)

    def _predict_one(self, scenario: Scenario) -> Dict[str, object]:
        """Answer one scenario: memo read → warm simulate → memo write."""
        specs = self._validate(scenario)
        key = self.key_for(scenario)
        hit = self._memo_hit(scenario, key, specs)
        if hit is not None:
            return hit
        entry = self.pool.checkout(scenario)
        with entry.lock:
            # double-checked memoization: a concurrent twin may have
            # landed this entry while we waited on the session lock
            hit = self._memo_hit(scenario, key, specs)
            if hit is not None:
                return hit
            with self._gate:
                try:
                    outcome = entry.runner.run(scenario)
                except (ConfigError, PipelineError) as exc:
                    raise ServiceError(str(exc)) from None
                except Exception as exc:
                    self.pool.evict(entry)
                    raise ServiceError(
                        f"engine failure answering "
                        f"{scenario.label()!r}: {exc}",
                        status=500) from None
            if self.store is not None:
                self.store.put(scenario,
                               {"baseline_us": outcome.baseline_us,
                                "predicted_us": outcome.predicted_us})
        return self._response(scenario, key, outcome)

    def predict(self, payload: object) -> Dict[str, object]:
        """``POST /predict``: answer one scenario-JSON question.

        Raises :class:`ServiceError` 400 on anything invalid about the
        request and 500 on an engine failure (evicting the failing
        session; the pool keeps serving).  Counted and timed.
        """
        self.note_request("predict")
        t0 = time.perf_counter()
        try:
            result = self._predict_one(parse_scenario_payload(payload))
        except ServiceError as exc:
            self.note_error(exc.status)
            raise
        finally:
            self.observe_latency(time.perf_counter() - t0)
        return result

    # -------------------------------------------------------------- batch

    def _batch_scenarios(self, payload: Dict[str, object]) -> List[Scenario]:
        """The scenario list a batch body describes (list or grid form)."""
        if "scenarios" in payload:
            unknown = sorted(set(payload) - {"scenarios"})
            if unknown:
                raise ServiceError(f"unknown batch field(s) {unknown}")
            raw = payload["scenarios"]
            if not isinstance(raw, list) or not raw:
                raise ServiceError(
                    "'scenarios' must be a non-empty JSON array")
            return [parse_scenario_payload(item) for item in raw]
        unknown = sorted(set(payload) - {"base", "axes"})
        if unknown:
            raise ServiceError(f"unknown batch field(s) {unknown}")
        try:
            return ScenarioGrid.from_dict(payload).expand()
        except ConfigError as exc:
            raise ServiceError(str(exc)) from None

    def predict_batch(self, payload: object) -> Dict[str, object]:
        """``POST /predict/batch``: answer many questions in one request.

        Three body forms:

        * ``{"scenarios": [...]}`` — an explicit scenario list;
        * ``{"base": {...}, "axes": {...}}`` — a scenario grid, expanded
          server-side exactly like ``repro run``/``repro sweep`` expand
          grid files;
        * ``{"scenario": {...}, "cells": [...]}`` — sparse task-override
          cells (see :meth:`_predict_cells`), routed through
          ``simulate_many`` on one shared lowering.

        Scenario batches run each member through *exactly* the single
        :meth:`predict` path against the shared session pool — scenarios
        of one workload share one warm session and one compiled baseline
        lowering — so a batch answer is bit-identical to N single
        requests, memo hits included.
        """
        self.note_request("batch")
        t0 = time.perf_counter()
        try:
            if not isinstance(payload, dict):
                raise ServiceError("batch body must be a JSON object, got "
                                   f"{type(payload).__name__}")
            if "cells" in payload:
                return self._predict_cells(payload)
            scenarios = self._batch_scenarios(payload)
            results = [self._predict_one(s) for s in scenarios]
            return {
                "count": len(results),
                "headers": list(SCENARIO_RESULT_HEADERS),
                "results": results,
            }
        except ServiceError as exc:
            self.note_error(exc.status)
            raise
        finally:
            self.observe_latency(time.perf_counter() - t0)

    # -------------------------------------------------------------- cells

    @staticmethod
    def _override_map(cell: Dict[str, object], which: str,
                      by_name: Dict[str, object],
                      ambiguous: "set[str]") -> Dict[object, float]:
        """Resolve one cell's named task overrides onto baseline tasks."""
        raw = cell.get(which, {})
        if not isinstance(raw, dict):
            raise ServiceError(f"cell {which!r} must be an object mapping "
                               "task names to microseconds")
        resolved: Dict[object, float] = {}
        for name, value in raw.items():
            if name in ambiguous:
                raise ServiceError(
                    f"task name {name!r} is ambiguous in this workload's "
                    "baseline graph")
            task = by_name.get(name)
            if task is None:
                raise ServiceError(
                    f"unknown task {name!r} in this workload's baseline "
                    "graph")
            if (isinstance(value, bool) or
                    not isinstance(value, (int, float))
                    or not math.isfinite(value) or value < 0):
                raise ServiceError(
                    f"override for task {name!r} must be a finite "
                    f"non-negative number of microseconds, got {value!r}")
            resolved[task] = float(value)
        return resolved

    def _predict_cells(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Answer a ``cells`` grid on one shared baseline lowering.

        Each cell names sparse ``durations``/``gaps`` overrides (task
        name → microseconds) onto the scenario workload's *baseline*
        graph; the whole grid runs through
        :meth:`~repro.analysis.session.WhatIfSession.simulate_many`, so
        the baseline is lowered once and every cell re-runs only the
        array engine.  Cells are engine answers, not memoized store
        entries — they have no scenario-shaped identity to key by.
        """
        unknown = sorted(set(payload) - {"scenario", "cells"})
        if unknown:
            raise ServiceError(f"unknown batch field(s) {unknown}")
        scenario = parse_scenario_payload(payload.get("scenario"))
        self._validate(scenario)
        raw_cells = payload.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise ServiceError("'cells' must be a non-empty JSON array")
        entry = self.pool.checkout(scenario)
        with entry.lock:
            try:
                session = entry.runner.session(scenario)
                tasks = session.graph.tasks()
            except ConfigError as exc:
                raise ServiceError(str(exc)) from None
            except Exception as exc:
                self.pool.evict(entry)
                raise ServiceError(
                    f"engine failure profiling {scenario.label()!r}: {exc}",
                    status=500) from None
            by_name: Dict[str, object] = {}
            ambiguous: "set[str]" = set()
            for task in tasks:
                if task.name in by_name:
                    ambiguous.add(task.name)
                else:
                    by_name[task.name] = task
            deltas = []
            for index, cell in enumerate(raw_cells):
                if not isinstance(cell, dict):
                    raise ServiceError(f"cell {index} must be a JSON object")
                extra = sorted(set(cell) - {"label", "durations", "gaps"})
                if extra:
                    raise ServiceError(
                        f"cell {index} has unknown field(s) {extra}")
                label = cell.get("label", f"cell-{index}")
                if not isinstance(label, str):
                    raise ServiceError(f"cell {index} label must be a string")
                deltas.append(CellDelta(
                    label=label,
                    durations=self._override_map(cell, "durations",
                                                 by_name, ambiguous),
                    gaps=self._override_map(cell, "gaps",
                                            by_name, ambiguous)))
            with self._gate:
                try:
                    predictions = entry.runner.run_cells(
                        scenario, deltas,
                        scheduler=scenario.build_schedule_policy())
                except (ConfigError, PipelineError) as exc:
                    raise ServiceError(str(exc)) from None
                except Exception as exc:
                    self.pool.evict(entry)
                    raise ServiceError(
                        f"engine failure answering cell grid on "
                        f"{scenario.label()!r}: {exc}",
                        status=500) from None
        return {
            "count": len(predictions),
            "scenario": scenario.to_dict(),
            "baseline_us": session.baseline_us,
            "results": [{"label": p.optimization,
                         "baseline_us": p.baseline_us,
                         "predicted_us": p.predicted_us,
                         "improvement_percent": p.improvement_percent}
                        for p in predictions],
        }

    # -------------------------------------------------------------- probes

    def healthz(self) -> Dict[str, object]:
        """``GET /healthz``: a cheap liveness probe."""
        return {"ok": True,
                "uptime_s": max(0.0, time.time() - self.started_at),
                "sessions_live": len(self.pool)}

    def stats(self) -> Dict[str, object]:
        """``GET /stats``: session, memo-hit and latency counters."""
        with self._lock:
            requests = dict(self._requests)
            errors = {str(status): count
                      for status, count in sorted(self._errors.items())}
            samples = list(self._latencies)
        p50 = _percentile(samples, 0.50)
        p99 = _percentile(samples, 0.99)
        return {
            "uptime_s": max(0.0, time.time() - self.started_at),
            "salt": self.pool.salt,
            "workers": self.workers,
            "requests": requests,
            "errors": errors,
            "sessions": self.pool.stats(),
            "memo": (self.store.stats.as_dict()
                     if self.store is not None else None),
            "latency": {
                "window": len(samples),
                "p50_ms": None if p50 is None else p50 * 1000.0,
                "p99_ms": None if p99 is None else p99 * 1000.0,
            },
        }


class _PredictHTTPHandler(HTTPHandlerBase):
    """Request handler bridging the HTTP surface onto a PredictService."""

    # set by PredictServer on the subclass it builds per server instance
    service: PredictService
    server_version = "repro-predict/1"

    #: POST routes, by exact path
    _ROUTES = ("/predict", "/predict/batch")

    def do_GET(self) -> None:
        """Serve the open probes: ``/healthz`` and ``/stats``."""
        if self.path == "/healthz":
            self._send_json(200, self.service.healthz())
            return
        if self.path == "/stats":
            payload = self.service.stats()
            payload["auth_required"] = bool(self.auth_token)
            self._send_json(200, payload)
            return
        self.service.note_error(404)
        self._send(404, b'{"error": "no such endpoint"}')

    def do_POST(self) -> None:
        """Serve one prediction request (auth-gated when a token is set)."""
        if self.path not in self._ROUTES:
            self.service.note_error(404)
            self._send(404, b'{"error": "no such endpoint"}')
            return
        if not self._authorized():
            self.service.note_error(401)
            self._send(401, b'{"error": "missing or wrong auth token"}')
            return
        data, framing_error = self._read_body(cap=MAX_REQUEST_BYTES)
        if data is None:
            self.service.note_error(framing_error or 400)
            return
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self.service.note_error(400)
            self._send_json(400, {"error": f"request body is not valid "
                                           f"JSON: {exc}"})
            return
        try:
            if self.path == "/predict":
                result = self.service.predict(payload)
            else:
                result = self.service.predict_batch(payload)
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)})
            return
        self._send_json(200, result)


class PredictServer(HTTPServerBase):
    """Serve a :class:`PredictService` over HTTP (``repro serve-predict``).

    An :class:`~repro.scenarios.backends.HTTPServerBase` over the
    prediction handler, the same shell as
    :class:`~repro.scenarios.backends.StoreServer`.  ``auth_token`` gates
    the POST endpoints (predictions cost engine time); the GET probes
    stay open, like the store server's reads, so a load balancer can
    health-check an authenticated daemon.
    """

    label = "prediction server"

    def __init__(self, service: PredictService, host: str = "127.0.0.1",
                 port: int = 0, auth_token: Optional[str] = None) -> None:
        self.service = service
        handler = type("_BoundPredictHTTPHandler", (_PredictHTTPHandler,),
                       {"service": service, "auth_token": auth_token})
        super().__init__(handler, host, port)
