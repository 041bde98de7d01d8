"""Declarative scenario layer: workloads and what-if stacks as data.

This package is the single front door for running what-if analyses:

* :mod:`repro.scenarios.registry` — string-keyed registry of every shipped
  optimization model with declared parameter schemas;
* :mod:`repro.scenarios.pipeline` — validated, ordered optimization stacks
  that run as one graph transformation;
* :mod:`repro.scenarios.scenario` — the :class:`Scenario` /
  :class:`ScenarioGrid` dataclasses with dict/JSON round-tripping;
* :mod:`repro.scenarios.runner` — the :class:`ScenarioRunner` executing
  single scenarios in-process and grids on the batch executor;
* :mod:`repro.scenarios.store` — the content-addressed on-disk
  :class:`SweepStore` of sweep results (atomic writes, corruption-safe
  reads, version-salted keys, LRU garbage collection and generation
  pruning behind the ``repro store`` CLI);
* :mod:`repro.scenarios.batch` — the multiprocess batch executor fanning
  grids across a process pool (fork or spawn start methods; spawn workers
  rebuild runtime registrations from a :class:`WorkerManifest`) with
  store-backed resume, one :class:`ComputeLease` claim per missing cell
  for dedupe across concurrent sweeps, and the env-gated
  :func:`maybe_kill_worker` chaos hook (:data:`KILL_PLAN_ENV`; the
  fault-injection harness that drives it lives in ``tests/faults.py``,
  and ``docs/robustness.md`` is the failure-mode contract);
* :mod:`repro.scenarios.backends` — the pluggable storage tiers behind
  the store: the :class:`StoreBackend` protocol, the on-disk
  :class:`LocalBackend`, the read-through :class:`HTTPBackend` remote
  tier with its :class:`StoreServer` (``repro store serve``), the
  :class:`FileLease` coordination primitive, and the HTTP server and
  handler base both repro HTTP surfaces share;
* :mod:`repro.scenarios.retry` — the unified :class:`RetryPolicy`
  (exponential backoff, deterministic seeded jitter, attempt/deadline
  caps) every transient-fault path shares;
* :mod:`repro.scenarios.service` — the interactive prediction daemon
  (``repro serve-predict``): a :class:`PredictService` holding an LRU
  :class:`SessionPool` of warm sessions, memoized on the sweep store,
  behind the stdlib-HTTP :class:`PredictServer`
  (``docs/service.md`` is the protocol contract).

Quickstart::

    from repro.scenarios import Scenario, ScenarioRunner

    runner = ScenarioRunner()
    outcome = runner.run(Scenario(model="resnet50", optimizations=["amp"]))
    print(outcome.prediction)
"""

from repro.scenarios.backends import (
    LEASE_STEAL_SECONDS,
    NOT_MODIFIED,
    BackendError,
    ComputeLease,
    EntryStat,
    FileLease,
    HTTPBackend,
    LocalBackend,
    RemoteLease,
    StoreBackend,
    StoreServer,
    entry_etag,
)
from repro.scenarios.batch import (
    DEFAULT_MAX_CELL_RETRIES,
    KILL_PLAN_ENV,
    START_METHODS,
    BatchReport,
    CellFailure,
    SweepCell,
    WorkerManifest,
    maybe_kill_worker,
    run_batch,
)
from repro.scenarios.pipeline import OptimizationPipeline, PipelineError
from repro.scenarios.registry import (
    DEFAULT_REGISTRY,
    OptimizationRegistry,
    OptimizationSpec,
    ParamSpec,
    default_registry,
    stack_label,
)
from repro.scenarios.retry import (
    DEFAULT_MAX_ATTEMPTS,
    BackoffState,
    RetryPolicy,
    no_retry,
    sync_retry_policy,
)
from repro.scenarios.runner import (
    SCENARIO_RESULT_HEADERS,
    ScenarioOutcome,
    ScenarioRunner,
)
from repro.scenarios.scenario import (
    NAMED_SCHEDULE_POLICIES,
    ClusterShape,
    Scenario,
    ScenarioGrid,
    load_scenario_file,
    register_schedule_policy,
    runtime_schedule_policies,
)
from repro.scenarios.service import (
    DEFAULT_MAX_SESSIONS,
    DEFAULT_WORKERS,
    MAX_REQUEST_BYTES,
    PredictServer,
    PredictService,
    ServiceError,
    SessionPool,
    parse_scenario_payload,
)
from repro.scenarios.store import (
    RESULT_SCHEMA_VERSION,
    GCReport,
    StoreStats,
    SweepStore,
    SyncReport,
    VerifyReport,
    canonical_scenario_json,
    scenario_key,
    store_salt,
)

__all__ = [
    "BackendError",
    "ComputeLease",
    "EntryStat",
    "FileLease",
    "HTTPBackend",
    "LocalBackend",
    "NOT_MODIFIED",
    "RemoteLease",
    "StoreBackend",
    "StoreServer",
    "entry_etag",
    "LEASE_STEAL_SECONDS",
    "BatchReport",
    "CellFailure",
    "SweepCell",
    "WorkerManifest",
    "START_METHODS",
    "DEFAULT_MAX_CELL_RETRIES",
    "run_batch",
    "RetryPolicy",
    "BackoffState",
    "DEFAULT_MAX_ATTEMPTS",
    "no_retry",
    "sync_retry_policy",
    "KILL_PLAN_ENV",
    "maybe_kill_worker",
    "GCReport",
    "StoreStats",
    "SyncReport",
    "VerifyReport",
    "store_salt",
    "RESULT_SCHEMA_VERSION",
    "SweepStore",
    "canonical_scenario_json",
    "scenario_key",
    "NAMED_SCHEDULE_POLICIES",
    "register_schedule_policy",
    "runtime_schedule_policies",
    "OptimizationPipeline",
    "PipelineError",
    "DEFAULT_REGISTRY",
    "OptimizationRegistry",
    "OptimizationSpec",
    "ParamSpec",
    "default_registry",
    "stack_label",
    "SCENARIO_RESULT_HEADERS",
    "ScenarioOutcome",
    "ScenarioRunner",
    "PredictServer",
    "PredictService",
    "ServiceError",
    "SessionPool",
    "parse_scenario_payload",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_WORKERS",
    "MAX_REQUEST_BYTES",
    "ClusterShape",
    "Scenario",
    "ScenarioGrid",
    "load_scenario_file",
]
