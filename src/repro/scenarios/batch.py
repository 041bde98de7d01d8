"""Multiprocess batch execution of scenario grids over a result store.

:func:`run_batch` is the one fan-out substrate: every
:meth:`~repro.scenarios.runner.ScenarioRunner.run_grid` call (and so every
``repro run``/``repro sweep`` grid and every experiment grid) goes through
it, and so does every experiment's engine ground truth — a cell is a
``(scenario, kind)`` pair, where ``"predict"`` asks for Daydream's
prediction and a ``groundtruth:*`` kind of
:data:`repro.framework.groundtruth.MEASUREMENTS` for an engine
measurement of the scenario's workload.  It fans out the *profiling* as
well as the predictions, and remembers finished cells:

* cells already in the :class:`~repro.scenarios.store.SweepStore` are
  skipped up front (resume is the default behaviour of handing in a store);
* the remaining cells are partitioned **by workload** — predictions sharing a
  (model, batch size, training config) land in the same chunks (engine
  measurements share no session and go one per chunk), and each
  worker process keeps one :class:`~repro.scenarios.runner.ScenarioRunner`
  alive across chunks, so a workload is profiled at most once per worker
  (and, once its graph runs hot, its compiled simulation baseline —
  `repro.core.compiled` — is lowered at most once per worker too);
* chunks run on a ``ProcessPoolExecutor`` under either start method:
  **fork** (runners, custom registries and runtime-registered models are
  inherited, never pickled) or **spawn** (each worker rebuilds its runner
  from a pickled :class:`WorkerManifest` — Windows workers, where fork
  does not exist, and macOS workers, where forking a threaded parent is
  unsafe, run the same sweeps);
* results stream back in completion order — the parent persists each cell
  to the store the moment its chunk finishes (a killed sweep resumes from
  the last completed chunk) and reports progress — while the returned rows
  keep input order.  **All store I/O stays in the parent**: workers only
  ever return plain numbers, so store stats, byte caps and leases see
  every write;
* each missing cell is *claimed* through a per-key
  :class:`~repro.scenarios.backends.FileLease` before it is computed, so
  two concurrent sweeps over one store dedupe identical cells: the sweep
  that loses the claim defers the cell, serves the winner's entry the
  moment it lands, and inherits the computation only if the winner's
  lease goes stale (a crash) without producing one.  With a
  lease-capable ``remote`` hub the claim escalates across hosts
  (:meth:`~repro.scenarios.store.SweepStore.compute_lease`): the hub
  grants each cell's claim to exactly one host, the winner publishes
  the entry to the hub at record time *before* releasing the claim, and
  deferring hosts read it through — N hosts partition one grid with no
  coordinator, each identical cell computed once anywhere.  The remote
  layer fails open: an unreachable or lease-less hub degrades to
  single-host coordination, never a stuck sweep;
* the pool **survives its own workers dying**: a worker the kernel
  OOM-kills (or the chaos hook SIGKILLs) breaks the
  ``ProcessPoolExecutor`` — instead of aborting the sweep, the parent
  keeps every recorded result, keeps holding the unfinished cells'
  compute leases (the work is still ours), rebuilds the pool, and
  requeues the unfinished cells as single-cell chunks so a
  worker-killing cell isolates itself.  Each requeue charges a bounded
  per-cell retry budget (``max_cell_retries``, ``repro sweep
  --max-cell-retries``); a cell that exhausts it is **quarantined** and
  re-run serially in the parent — where the chaos kill hook never fires
  — or, if it still fails, reported in ``BatchReport.failures`` with
  its lease released promptly so a concurrent sweep is never stalled
  for the full steal window.  Deterministic chunk exceptions travel the
  same requeue → quarantine → report path, so one poisoned cell cannot
  abort a thousand-cell sweep.

Because the simulator and the keyed PRNG are deterministic, pool results
are bit-identical to a serial run under *either* start method — and under
injected worker crashes and backend faults;
``tests/test_sweep_determinism.py`` pins serial / process-pool /
spawn-pool / cached / remote-warm / cross-host / chaos rows against each
other.
``docs/robustness.md`` is the written failure-mode contract.

"""

import json
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from repro.common.errors import ConfigError
from repro.framework.groundtruth import MEASUREMENTS
from repro.models.base import ModelSpec
from repro.models.registry import register_model, runtime_registered_models
from repro.scenarios.backends import ComputeLease
from repro.scenarios.registry import (
    DEFAULT_REGISTRY,
    OptimizationRegistry,
    OptimizationSpec,
)
from repro.scenarios.scenario import (
    Scenario,
    register_schedule_policy,
    runtime_schedule_policies,
)
from repro.scenarios.store import SweepStore, scenario_key, timings_ok

#: how often a deferred cell re-checks the store while another sweep's
#: lease holder is computing it
DEDUPE_POLL_SECONDS = 0.05

#: a deferred cell with a remote hub configured does one full
#: read-through (and cross-host claim attempt) every this many local
#: polls — the winner may be on another host, but the hub should not be
#: hammered at the local poll cadence
REMOTE_PROBE_POLLS = 5

#: one unit of worker work: (cell index, scenario dict, result kind)
_Cell = Tuple[int, Dict[str, object], str]

#: start methods run_batch accepts (``None`` = pick automatically)
START_METHODS = ("fork", "spawn", "serial")

#: how many times one cell may be requeued after its chunk crashed or
#: failed before it is quarantined to the parent (``--max-cell-retries``)
DEFAULT_MAX_CELL_RETRIES = 2

#: environment variable carrying a JSON worker-kill plan (see
#: :func:`maybe_kill_worker`); unset means the hook is inert
KILL_PLAN_ENV = "REPRO_CHAOS_KILL_PLAN"

#: fork-inherited state (set in the parent immediately before the pool
#: forks, cleared after; never pickled): the parent's runner, with the
#: sessions it has already profiled, that each forked worker starts from
_FORK_RUNNER = None

#: spawn-delivered state (pickled into each worker by the pool initializer)
_WORKER_MANIFEST: Optional["WorkerManifest"] = None

#: per-worker-process runner, built lazily and kept across chunks so every
#: workload is profiled at most once per worker
_WORKER_RUNNER = None


@dataclass(frozen=True)
class WorkerManifest:
    """Everything a fresh interpreter needs to run this parent's scenarios.

    A ``fork`` worker inherits runtime state — models added through
    :func:`~repro.models.registry.register_model`, optimization specs
    registered after import, whole custom registries — for free.  A
    ``spawn`` worker starts from a clean interpreter, so that state must
    be captured here, pickled across, and replayed by :meth:`restore`.

    Attributes:
        fingerprint: the parent registry's
            :meth:`~repro.scenarios.registry.OptimizationRegistry.fingerprint`;
            :meth:`restore` verifies the rebuilt registry matches, so a
            parent/worker version skew fails loudly instead of silently
            keying results differently.
        default_registry: whether the parent used the shared
            :data:`~repro.scenarios.registry.DEFAULT_REGISTRY` (the worker
            then starts from its own import-time copy) or a custom
            registry (the worker rebuilds one from ``specs`` alone).
        specs: optimization specs the worker must register — the runtime
            additions for the default registry, every spec for a custom one.
        models: runtime-registered (name, builder) model entries.
        schedule_policies: runtime-registered (name, factory) entries of
            :data:`~repro.scenarios.scenario.NAMED_SCHEDULE_POLICIES` —
            scenarios declaring a runtime-registered ``schedule_policy``
            would otherwise fail validation in a fresh spawn interpreter.

    Builders and spec factories must be *importable* module-level
    callables: pickling carries only their qualified names, and the worker
    re-imports them.  Closures and lambdas cannot cross a spawn boundary —
    :func:`run_batch` detects that up front and says so.
    """

    fingerprint: str
    default_registry: bool = True
    specs: Tuple[OptimizationSpec, ...] = ()
    models: Tuple[Tuple[str, Callable[..., ModelSpec]], ...] = ()
    schedule_policies: Tuple[Tuple[str, Callable[[], object]], ...] = ()

    @classmethod
    def capture(cls, registry: Optional[OptimizationRegistry] = None,
                model_names: Optional[Sequence[str]] = None,
                policy_names: Optional[Sequence[str]] = None
                ) -> "WorkerManifest":
        """Snapshot the current process's runtime registrations.

        ``model_names`` limits the carried model builders to the ones a
        grid actually references (case-insensitive), and ``policy_names``
        does the same for runtime-registered schedule policies, so an
        unrelated — possibly unpicklable — registration elsewhere in the
        process never blocks a spawn sweep that does not use it.
        """
        registry = registry or DEFAULT_REGISTRY
        models = runtime_registered_models()
        if model_names is not None:
            wanted = {str(name).lower() for name in model_names}
            models = {name: builder for name, builder in models.items()
                      if name in wanted}
        policies = runtime_schedule_policies()
        if policy_names is not None:
            wanted_policies = {str(name) for name in policy_names}
            policies = {name: factory for name, factory in policies.items()
                        if name in wanted_policies}
        return cls(
            fingerprint=registry.fingerprint(),
            default_registry=registry is DEFAULT_REGISTRY,
            specs=tuple(registry.runtime_specs()),
            models=tuple(sorted(models.items())),
            schedule_policies=tuple(sorted(policies.items())),
        )

    def restore(self) -> OptimizationRegistry:
        """Replay the captured state in this interpreter.

        Registers the carried model builders and schedule policies,
        rebuilds the optimization registry (on top of the local default
        registry, or from scratch for a custom one), and verifies its
        fingerprint against the parent's before anything runs under
        mismatched keys.
        """
        for name, builder in self.models:
            register_model(name, builder, overwrite=True)
        for name, factory in self.schedule_policies:
            register_schedule_policy(name, factory, overwrite=True)
        if self.default_registry:
            registry = DEFAULT_REGISTRY
        else:
            registry = OptimizationRegistry()
        for spec in self.specs:
            if spec.key not in registry:
                registry.register(spec)
        if registry.fingerprint() != self.fingerprint:
            raise ConfigError(
                "worker registry fingerprint does not match the parent's; "
                "the worker interpreter resolves optimizations differently "
                "(version skew between parent and worker environments?)"
            )
        return registry

    def dumps(self) -> bytes:
        """Pickle this manifest, diagnosing unpicklable registrations."""
        try:
            return pickle.dumps(self)
        except Exception as exc:
            raise ConfigError(
                "cannot pickle the worker manifest for spawn workers: "
                f"{exc}.  Model builders and optimization factories must "
                "be importable module-level callables (not closures or "
                "lambdas) to cross a spawn boundary; use the fork start "
                "method for unpicklable registrations."
            ) from None


@dataclass(frozen=True)
class SweepCell:
    """One computed (or cache-served) cell: its ``values`` are what the
    store holds for ``kind`` (see :func:`_run_cell`)."""

    scenario: Scenario
    key: str
    values: Dict[str, float]
    cached: bool
    kind: str = "predict"


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that produced no row, and why.

    Only cells that failed *in the parent too* land here: a cell reaches
    this report after its retry budget was spent requeuing it through
    rebuilt pools and its quarantined serial re-run still raised.
    """

    index: int
    label: str
    error: str


@dataclass
class BatchReport:
    """What one :func:`run_batch` call did.

    Every input cell is accounted for exactly once across
    ``cells`` (done: served from the store or computed) and ``failures``
    (no row could be produced); ``retried``/``quarantined``/
    ``pool_rebuilds`` narrate the recovery work it took to get there.
    """

    cells: List[SweepCell] = field(default_factory=list)  # input order
    hits: int = 0
    computed: int = 0
    workers: int = 1
    start_method: str = "serial"
    retried: int = 0        # cell requeues after a crashed/failed chunk
    quarantined: int = 0    # cells whose budget ran out, re-run in-parent
    failed: int = 0         # cells with no row (== len(failures))
    pool_rebuilds: int = 0  # worker pools rebuilt after a crash
    failures: List[CellFailure] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)

    def raise_for_failures(self) -> None:
        """Raise one :class:`ConfigError` naming every failed cell.

        Serial semantics for callers that need every row: a poisoned cell
        raises there too.  Callers wanting partial results read
        ``failures`` instead.
        """
        if self.failures:
            detail = "; ".join(f"cell {f.index} ({f.label}): {f.error}"
                               for f in self.failures)
            raise ConfigError(f"{self.failed} grid cell(s) failed after "
                              f"retries and quarantine: {detail}")


def _kill_plan() -> Optional[Tuple[int, int, str]]:
    """The ``(cell, times, claim_dir)`` plan in :data:`KILL_PLAN_ENV`.

    ``None`` when the variable is unset.  A malformed plan raises
    :class:`~repro.common.errors.ConfigError` — chaos tooling must not
    silently do nothing.
    """
    text = os.environ.get(KILL_PLAN_ENV)
    if not text:
        return None
    try:
        data = json.loads(text)
        return int(data["cell"]), int(data["times"]), str(data["claim_dir"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed {KILL_PLAN_ENV} plan: {exc}") from None


def maybe_kill_worker(cell_index: int) -> None:
    """Hard-kill this process if the env kill plan targets this cell.

    The chaos hook: pool workers call it immediately before running each
    cell.  When :data:`KILL_PLAN_ENV` (a JSON object with ``cell``,
    ``times`` and ``claim_dir``) names this cell and the kill budget is
    not yet spent, the worker claims one kill slot (an ``O_EXCL``
    ``kill-N`` file in the claim directory — exact across racing
    processes and pool rebuilds) and sends itself ``SIGKILL``: no
    cleanup, no Python teardown, exactly the way the OOM killer takes a
    real worker.  Once the budget is spent the cell runs normally.  The
    parent's serial/quarantine paths never call this hook, so a
    quarantined cell always completes.
    """
    plan = _kill_plan()
    if plan is None or plan[0] != cell_index:
        return
    _cell, times, claim_dir = plan
    os.makedirs(claim_dir, exist_ok=True)
    for slot in range(times):
        path = os.path.join(claim_dir, f"kill-{slot}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue  # this slot already spent; try the next
        except OSError:
            return  # unwritable claim dir: the hook degrades to inert
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


def _run_cell(runner, data: Dict[str, object],
              kind: str) -> Dict[str, float]:
    """Run one cell from its dict form; returns the store ``values``.

    A ``predict`` cell is a what-if prediction: ``{"baseline_us",
    "predicted_us"}``.  Any other kind is an engine measurement from
    :data:`repro.framework.groundtruth.MEASUREMENTS`: ``{"iteration_us"}``
    of the scenario's workload, replaying the runner's profiled trace
    where the measurement needs one.
    """
    scenario = Scenario.from_dict(data)
    if kind == "predict":
        outcome = runner.run(scenario)
        return {"baseline_us": outcome.baseline_us,
                "predicted_us": outcome.predicted_us}
    return {"iteration_us": float(MEASUREMENTS[kind](
        runner.model(scenario), scenario.build_cluster(),
        scenario.build_config(), lambda: runner.session(scenario).trace))}


def _worker_init(manifest_bytes: bytes) -> None:
    """Spawn-pool initializer: deliver the manifest to this worker."""
    global _WORKER_MANIFEST
    _WORKER_MANIFEST = pickle.loads(manifest_bytes)


def _worker_run_chunk(
        chunk: Sequence[_Cell]) -> List[Tuple[int, Dict[str, float]]]:
    """Pool entry point: runs a chunk on this worker's persistent runner.

    The first chunk takes the runner — the parent's, fork-inherited, under
    fork, or one built from the delivered :class:`WorkerManifest` under
    spawn — and later chunks reuse it (and its profiled sessions).
    Before each cell the worker consults the env-gated chaos kill hook
    (:func:`maybe_kill_worker`): only *workers* do, so a quarantined
    cell re-run in the parent always completes.
    """
    global _WORKER_RUNNER
    if _WORKER_RUNNER is None:
        if _FORK_RUNNER is not None:
            _WORKER_RUNNER = _FORK_RUNNER
        elif _WORKER_MANIFEST is not None:
            from repro.scenarios.runner import ScenarioRunner
            _WORKER_RUNNER = ScenarioRunner(
                registry=_WORKER_MANIFEST.restore())
        else:  # pragma: no cover - defensive
            raise ConfigError("batch worker started without a registry")
    out = []
    for index, data, kind in chunk:
        maybe_kill_worker(index)
        out.append((index, _run_cell(_WORKER_RUNNER, data, kind)))
    return out


def _partition(scenarios: Sequence[Scenario], kinds: Sequence[str],
               pending: Sequence[int], jobs: int) -> List[List[_Cell]]:
    """Chunk pending cells, grouping predictions of one workload together.

    Predictions sharing a (model, batch size, training config) profile the
    same session, so they stay adjacent; each workload group is split into
    at most ``jobs // n_groups`` chunks (always ≥ 1) so a single-workload
    grid still occupies every worker.  An engine measurement needs no
    shared session (a worker's runner keeps the few it profiles across
    chunks anyway), so each is its own chunk and the pool balances them.
    """
    groups: Dict[object, List[int]] = {}
    for index in pending:
        scenario = scenarios[index]
        key = ((scenario.model, scenario.batch_size,
                scenario.build_config())
               if kinds[index] == "predict" else index)
        groups.setdefault(key, []).append(index)
    chunks: List[List[_Cell]] = []
    splits = max(1, jobs // max(1, len(groups)))
    for indices in groups.values():
        size = math.ceil(len(indices) / splits)
        for start in range(0, len(indices), size):
            chunks.append([(i, scenarios[i].to_dict(), kinds[i])
                           for i in indices[start:start + size]])
    return chunks


def _resolve_start_method(start_method: Optional[str], workers: int,
                          manifest: WorkerManifest) -> str:
    """Pick how pending chunks execute: ``fork``, ``spawn`` or ``serial``.

    ``None`` prefers fork where it is both available *and safe* (not
    macOS: Darwin lists fork but forking a threaded parent there is
    crash-prone, which is why CPython's own default is spawn), then spawn
    if the runtime state is picklable, then fork as a last resort before
    degrading to an in-process serial run with identical rows.  An
    explicit method is honored or rejected loudly.
    """
    if start_method is not None and start_method not in START_METHODS:
        raise ConfigError(
            f"unknown start method {start_method!r}; "
            f"choose from {list(START_METHODS)}"
        )
    if workers <= 1 or start_method == "serial":
        return "serial"
    if _WORKER_RUNNER is not None:  # nested call inside a worker
        return "serial"
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        fork_is_safe = "fork" in available and sys.platform != "darwin"
        if fork_is_safe:
            return "fork"
        if "spawn" in available:
            try:
                manifest.dumps()
                return "spawn"
            except ConfigError:
                pass  # unpicklable runtime state: fall through
        if "fork" in available:
            return "fork"
        return "serial"
    if start_method not in available:
        raise ConfigError(
            f"start method {start_method!r} is not available on this "
            f"platform; available: {available}"
        )
    return start_method


def run_batch(
    scenarios: Sequence[Union[Scenario, Tuple[Scenario, str]]],
    registry: Optional[OptimizationRegistry] = None,
    store: Optional[SweepStore] = None,
    jobs: Optional[int] = None,
    force: bool = False,
    progress: Optional[Callable[[int, int, SweepCell], None]] = None,
    start_method: Optional[str] = None,
    max_cell_retries: int = DEFAULT_MAX_CELL_RETRIES,
    runner=None,
) -> BatchReport:
    """Evaluate scenarios through the store + process-pool substrate.

    Args:
        scenarios: the cells, already expanded: a :class:`Scenario` is a
            ``"predict"`` cell, and a ``(scenario, kind)`` pair names its
            result kind — a ``groundtruth:*`` kind of
            :data:`repro.framework.groundtruth.MEASUREMENTS` measures the
            scenario's workload on the engine instead.  Each cell is keyed
            on its scenario and kind.
        registry: optimization registry (also salts store keys).
        store: persistent result store; cells found there are served
            without simulation (including read-through from the store's
            remote tier, if it has one) and newly computed cells are
            written back locally.  Missing cells are claimed under
            per-key leases, so concurrent sweeps sharing the store
            compute each identical cell once.
        jobs: worker processes, at least 1; ``None`` uses one per CPU,
            ``1`` runs serially in-process (same rows either way).
        force: recompute every cell even on a store hit (entries are
            overwritten with the fresh rows).
        progress: called as ``progress(done, total, cell)`` after every
            cell — store hits immediately, computed cells as their chunk
            completes (completion order, not input order).
        start_method: ``"fork"`` (inherit runtime state), ``"spawn"``
            (rebuild it in each worker from a :class:`WorkerManifest`),
            ``"serial"`` (no pool), or ``None`` to pick automatically
            (fork where available and safe — not macOS — then spawn,
            then serial).  Rows are bit-identical regardless.
        max_cell_retries: how many times one cell may be requeued after
            its chunk crashed the pool (or raised) before the cell is
            quarantined and re-run serially in the parent; a cell that
            fails even there is reported in ``BatchReport.failures``
            instead of aborting the sweep.
        runner: the :class:`~repro.scenarios.runner.ScenarioRunner` that
            cells computed in this process (serial, quarantined and
            inherited-deferred ones) run on, and that fork workers
            inherit, so sessions it already holds are not profiled again;
            ``None`` uses a fresh one.  It must share ``registry``.

    Returns:
        A :class:`BatchReport` whose ``cells`` are in input order and
        bit-identical to serial :meth:`ScenarioRunner.run` calls (or
        engine measurements), and whose done/retried/quarantined/failed
        counters account for every input cell.
    """
    registry = registry or DEFAULT_REGISTRY
    if store is not None and store.registry is not registry:
        # one fingerprint must govern both resolution and addressing
        raise ConfigError("sweep store and batch executor must share one "
                          "optimization registry")
    if runner is None:
        from repro.scenarios.runner import ScenarioRunner
        runner = ScenarioRunner(registry=registry)
    elif runner.registry is not registry:
        raise ConfigError("batch runner and batch executor must share one "
                          "optimization registry")
    if max_cell_retries < 0:
        raise ConfigError("max_cell_retries cannot be negative")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    pairs = [(c, "predict") if isinstance(c, Scenario) else c
             for c in scenarios]
    scenarios = [scenario for scenario, _kind in pairs]
    kinds = [kind for _scenario, kind in pairs]
    total = len(scenarios)
    cells: List[Optional[SweepCell]] = [None] * total
    report = BatchReport(cells=[], workers=1)
    done = 0

    def finish(index: int, cell: SweepCell) -> None:
        nonlocal done
        cells[index] = cell
        done += 1
        if progress is not None:
            progress(done, total, cell)

    keys = [scenario_key(scenario, registry, kind=kind)
            for scenario, kind in pairs]

    def serve(index: int, values: Dict[str, object]) -> None:
        """Finish one cell from a trusted store entry."""
        report.hits += 1
        finish(index, SweepCell(scenario=scenarios[index], key=keys[index],
                                values=values, cached=True,
                                kind=kinds[index]))

    pending: List[int] = []
    for index, (scenario, kind) in enumerate(pairs):
        values = store.get(scenario, kind) \
            if store is not None and not force else None
        if timings_ok(values, kind):
            serve(index, values)
        else:
            pending.append(index)

    # claim each missing cell's compute lease so two concurrent sweeps
    # over one store dedupe identical cells: unclaimable cells are being
    # computed by another sweep right now (possibly on another host, via
    # the hub's lease plane) and are *deferred* — we pick their results
    # up (or inherit the work) after our own cells finish
    deferred: List[int] = []
    owned: Dict[str, ComputeLease] = {}
    owned_lock = threading.Lock()
    if store is not None and not force and pending:
        claimed: List[int] = []
        for index in pending:
            key = keys[index]
            if key in owned:
                claimed.append(index)  # duplicate cell of a key we own
                continue
            lease = store.compute_lease(key)
            if lease.try_acquire():
                if lease.remote_owned:
                    # claim-then-recheck: a peer host may have published
                    # this cell between our miss above and this claim
                    # being granted (publish precedes claim release, so
                    # a granted claim with an entry present means the
                    # previous winner already finished)
                    values = store.get(scenarios[index], kinds[index])
                    if timings_ok(values, kinds[index]):
                        lease.release()
                        serve(index, values)
                        continue
                owned[key] = lease
                claimed.append(index)
            else:
                deferred.append(index)
        pending = claimed

    # keep every claim fresh on a *time* cadence while cells compute — a
    # single chunk (or an inherited deferred cell) can legitimately run
    # longer than the steal threshold, and a stolen claim means a
    # concurrent sweep re-simulates the cell
    stop_refresh = threading.Event()
    refresher: Optional[threading.Thread] = None
    if owned or deferred:
        def _keep_claims_fresh() -> None:
            from repro.scenarios.backends import LEASE_STEAL_SECONDS
            while not stop_refresh.wait(LEASE_STEAL_SECONDS / 4):
                with owned_lock:
                    leases = list(owned.values())
                for lease in leases:
                    lease.refresh()

        refresher = threading.Thread(target=_keep_claims_fresh,
                                     name="repro-claim-refresher",
                                     daemon=True)
        refresher.start()

    def pop_claim(index: int) -> Optional[ComputeLease]:
        """Pop the compute lease of one cell (if this sweep holds it)."""
        with owned_lock:
            return owned.pop(keys[index], None)

    def record(index: int, values: Dict[str, float]) -> None:
        scenario = scenarios[index]
        lease = pop_claim(index)
        try:
            if store is not None:
                # the write rides the compute lease we already hold for
                # this key (if any) instead of waiting on its own lock
                store.put(scenario, values, kinds[index], lease=lease)
                if lease is not None and lease.remote_owned:
                    # the cross-host handshake: publish to the hub
                    # *before* releasing the claim, so peers deferring
                    # on it find the bytes the moment it frees
                    store.publish(keys[index])
        finally:
            if lease is not None:
                lease.release()  # persisted: waiting sweeps read it now
        report.computed += 1
        finish(index, SweepCell(scenario=scenario, key=keys[index],
                                values=values, cached=False,
                                kind=kinds[index]))

    def fail(index: int, error: BaseException) -> None:
        """Record one unproducible cell, releasing its lease promptly.

        The release matters as much as the bookkeeping: a failed cell's
        claim must not sit until the steal window expires, or a
        concurrent sweep sharing the store stalls on a cell this one
        already knows it cannot produce.
        """
        lease = pop_claim(index)
        if lease is not None:
            lease.release()
        report.failed += 1
        label = scenarios[index].label()
        if kinds[index] != "predict":
            label += f" [{kinds[index]}]"
        report.failures.append(CellFailure(index=index, label=label,
                                           error=str(error)))

    def run_in_parent(index: int) -> Dict[str, float]:
        """Compute one cell here, on the parent's one shared runner.

        The serial, quarantine and inherited-deferred paths all land
        here, so a workload is profiled at most once in the parent.
        """
        return _run_cell(runner, scenarios[index].to_dict(), kinds[index])

    def compute_or_fail(index: int) -> None:
        """Run one cell in the parent; a raising cell is reported failed."""
        try:
            values = run_in_parent(index)
        except Exception as exc:
            fail(index, exc)
        else:
            record(index, values)

    def run_pool_with_recovery(method: str, workers: int,
                               manifest: WorkerManifest) -> None:
        """Drive the worker pool, surviving crashed workers and chunks.

        Each round submits the remaining cells — workload-grouped chunks
        on the first round, single-cell chunks after any crash so a
        worker-killing cell isolates itself instead of charging its
        chunk-mates' budgets forever.  A broken pool (a worker died:
        OOM killer, SIGKILL, hardware) keeps all recorded results and
        all held leases, charges one retry to every unfinished cell,
        and rebuilds.  A cell over budget is quarantined: re-run
        serially in the parent, where the chaos kill hook never fires,
        so a cell that kept killing workers completes there, and a cell
        that raises even there is deterministic poison, reported failed.
        """
        pool_kwargs: Dict[str, object] = {}
        if method == "spawn":
            pool_kwargs["initializer"] = _worker_init
            pool_kwargs["initargs"] = (manifest.dumps(),)
        remaining: List[int] = list(pending)
        attempts: Dict[int, int] = {}
        first_round = True
        ctx = multiprocessing.get_context(method)
        while remaining:
            over_budget = [i for i in remaining
                           if attempts.get(i, 0) > max_cell_retries]
            remaining = [i for i in remaining
                         if attempts.get(i, 0) <= max_cell_retries]
            for index in over_budget:
                report.quarantined += 1
                compute_or_fail(index)
            if not remaining:
                break
            if first_round:
                chunks = _partition(scenarios, kinds, remaining, jobs)
            else:
                chunks = [[(i, scenarios[i].to_dict(), kinds[i])]
                          for i in remaining]
            done_round: Set[int] = set()
            try:
                with ProcessPoolExecutor(max_workers=workers,
                                         mp_context=ctx,
                                         **pool_kwargs) as pool:
                    future_chunks = {
                        pool.submit(_worker_run_chunk, chunk): chunk
                        for chunk in chunks}
                    for future in as_completed(future_chunks):
                        try:
                            results = future.result()
                        except BrokenProcessPool:
                            raise  # a worker died: rebuild below
                        except Exception:
                            # a deterministic chunk failure: charge only
                            # this chunk's cells and requeue them (they
                            # reproduce — or get quarantined and their
                            # true error reported from the parent re-run)
                            chunk = future_chunks[future]
                            for index, _data, _kind in chunk:
                                attempts[index] = attempts.get(index, 0) + 1
                            report.retried += len(chunk)
                            continue
                        for index, values in results:
                            record(index, values)
                            done_round.add(index)
            except BrokenProcessPool:
                unfinished = [i for i in remaining if i not in done_round]
                for index in unfinished:
                    attempts[index] = attempts.get(index, 0) + 1
                report.retried += len(unfinished)
                report.pool_rebuilds += 1
            remaining = [i for i in remaining if i not in done_round]
            first_round = False

    def resolve_deferred(index: int) -> None:
        """Wait out another sweep's compute lease on one deferred cell.

        Polls the *local* tier (a pure :meth:`SweepStore.contains` probe:
        no counters, no remote traffic) while the lease stays fresh, and
        serves the entry the moment its owner persists it — that is the
        cross-sweep dedupe.  When the store has a remote hub, the claim's
        holder may be a *different host* whose entry only ever lands on
        the hub: every :data:`REMOTE_PROBE_POLLS`-th poll does one full
        read-through (and only then re-attempts the cross-host claim,
        throttling hub traffic).  If the lease is released (or stale
        enough to steal) without a usable entry, the owner crashed or was
        killed: this sweep inherits the cell — after one full
        :meth:`~SweepStore.get` (remote included), in case the result
        exists beyond the local tier — and computes it in-process.  The
        inherited claim joins ``owned``, so the one claim refresher keeps
        it fresh while it computes, and :func:`record` publishes and
        releases it like any other.
        """
        scenario, kind, key = scenarios[index], kinds[index], keys[index]
        polls = 0
        while True:
            if store.contains(scenario, kind):
                values = store.get(scenario, kind)
                if timings_ok(values, kind):
                    serve(index, values)
                    return
            polls += 1
            if store.remote is not None:
                if polls % REMOTE_PROBE_POLLS:
                    time.sleep(DEDUPE_POLL_SECONDS)
                    continue  # local probes stay cheap between hub trips
                values = store.get(scenario, kind)  # winner may be elsewhere
                if timings_ok(values, kind):
                    serve(index, values)
                    return
            lease = store.compute_lease(key)
            if lease.try_acquire():
                with owned_lock:
                    owned[key] = lease
                # one full read-through; the write-back rides our lease
                values = store.get(scenario, kind, lease=lease)
                if timings_ok(values, kind):
                    pop_claim(index).release()
                    serve(index, values)
                else:
                    record(index, run_in_parent(index))
                return
            time.sleep(DEDUPE_POLL_SECONDS)

    try:
        if pending:
            jobs = jobs if jobs is not None else (os.cpu_count() or 1)
            chunks = _partition(scenarios, kinds, pending, jobs)
            workers = min(jobs, len(chunks))
            report.workers = workers

            manifest = WorkerManifest.capture(
                registry,
                model_names=[scenarios[i].model for i in pending],
                policy_names=[scenarios[i].schedule_policy for i in pending
                              if scenarios[i].schedule_policy is not None])
            method = _resolve_start_method(start_method, workers, manifest)
            report.start_method = method
            if method != "serial":
                global _FORK_RUNNER
                _FORK_RUNNER = runner if method == "fork" else None
                try:
                    run_pool_with_recovery(method, workers, manifest)
                finally:
                    _FORK_RUNNER = None
            else:
                report.workers = 1
                # per-cell fault tolerance matches the pool path: a
                # poisoned cell is reported, the rest still get rows
                for chunk in chunks:
                    for index, _data, _kind in chunk:
                        compute_or_fail(index)

        for index in deferred:
            resolve_deferred(index)
    finally:
        # the crash path runs through here too: whatever broke above, the
        # claim refresher stops and every still-held compute lease is
        # released, so a dying sweep never stalls a concurrent one for
        # the full steal window
        stop_refresh.set()
        if refresher is not None:
            refresher.join(timeout=5.0)
        with owned_lock:
            leftovers = list(owned.values())
            owned.clear()
        for lease in leftovers:
            lease.release()

    report.cells = [cell for cell in cells if cell is not None]
    if len(report.cells) + report.failed != total:  # pragma: no cover
        raise ConfigError("batch executor lost cells; this is a bug")
    return report
