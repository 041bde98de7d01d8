"""Every path through the grid substrate must produce bit-identical rows.

A pinned grid runs through every execution path of ``run_grid`` (the
``run_batch`` executor) and each is compared against an oracle that does
not use the substrate at all — serial ``ScenarioRunner.run`` calls:

* the process-pool batch executor with **fork** workers (``parallel=2``),
  with and without a fresh store, and in-process (``start_method="serial"``),
* the **spawn**-context batch executor (``start_method="spawn"``: fresh
  interpreters rebuilding the runtime-registered model — and any
  runtime-registered schedule policy — from a pickled
  ``WorkerManifest``),
* a warm re-run served entirely from the store,
* a warm re-run served entirely **read-through from a remote store
  server** (entries pushed, the local cache empty),
* a **cross-host** run: host A sweeps against a hub through the remote
  coordination plane (compute leases claimed, cells published at record
  time), then a cold host B on a different store root is served every
  cell from the hub,
* a **chaos** run under injected faults: a worker hard-killed by the
  batch kill hook (planned with ``tests/faults.py``) while the remote tier
  corrupts, truncates and errors planned reads — the sweep must
  complete without intervention, account for every cell, and still
  match serial —

and the resulting ``ExperimentResult`` rows are compared with ``==``,
float for float.  This is the contract that makes the persistent store
trustworthy, the executor portable, the remote tier shareable, and the
recovery paths safe: a cached number *is* the number a cold run would
produce, on any platform's start method, served from any tier, even
when the infrastructure underneath is actively failing.
"""

import multiprocessing
import pickle

import pytest

from helpers import make_tiny_model
from repro.common.errors import ConfigError
from repro.core.simulate import make_priority_scheduler
from repro.models.registry import register_model
from repro.optimizations import AutomaticMixedPrecision
from repro.scenarios import (
    OptimizationRegistry,
    OptimizationSpec,
    Scenario,
    ScenarioGrid,
    ScenarioRunner,
    StoreServer,
    SweepStore,
    WorkerManifest,
    register_schedule_policy,
)

MODEL = "tinysweep"


def build_tinysweep(batch_size=None):
    """Module-level builder: spawn workers re-import it by name."""
    return make_tiny_model(batch=batch_size or 4)


@pytest.fixture(scope="module", autouse=True)
def register_tiny_model():
    try:
        register_model(MODEL, build_tinysweep)
    except ConfigError:
        pass  # already registered by an earlier module in this process


@pytest.fixture(scope="module")
def pinned_scenarios():
    grid = ScenarioGrid(
        base=Scenario(model=MODEL,
                      optimizations=["distributed_training"]).with_cluster(
                          2, 1, bandwidth_gbps=10.0),
        axes={
            "cluster.bandwidth_gbps": [10.0, 25.0],
            "cluster.machines": [2, 4],
        },
    )
    # one baseline-only cell exercises the no-prediction path everywhere
    return grid.expand() + [Scenario(model=MODEL)]


def rows_of(outcomes):
    return [o.as_row() for o in outcomes]


def run_serially(scenarios):
    """The oracle: one in-process ``run`` per cell, no grid substrate."""
    runner = ScenarioRunner()
    return [runner.run(s) for s in scenarios]


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def test_serial_fork_pool_and_cache_rows_identical(pinned_scenarios,
                                                   tmp_path):
    serial = run_serially(pinned_scenarios)
    forked = ScenarioRunner().run_grid(
        pinned_scenarios, parallel=2,
        start_method="fork" if HAS_FORK else None)

    store = SweepStore(str(tmp_path / "store"))
    pooled = ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                                       store=store)
    cached = ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                                       store=store)

    reference = rows_of(serial)
    assert rows_of(forked) == reference
    assert rows_of(pooled) == reference
    assert rows_of(cached) == reference

    assert all(not o.cached for o in pooled)
    assert all(o.cached for o in cached)
    # detached outcomes still resolve model/config/cluster for consumers
    assert all(o.model.name for o in pooled)
    assert cached[0].cluster is not None and cached[-1].cluster is None

    # the full ExperimentResult (headers + rows) is identical too
    serial_result = ScenarioRunner.to_result(serial)
    cached_result = ScenarioRunner.to_result(cached)
    assert serial_result.headers == cached_result.headers
    assert serial_result.rows == cached_result.rows


def test_pool_without_store_matches_serial(pinned_scenarios):
    serial = run_serially(pinned_scenarios)
    pooled = ScenarioRunner().run_grid(pinned_scenarios, parallel=2)
    assert rows_of(pooled) == rows_of(serial)


def test_force_recomputes_but_keeps_rows(pinned_scenarios, tmp_path):
    store = SweepStore(str(tmp_path / "store"))
    runner = ScenarioRunner()
    first = runner.run_grid(pinned_scenarios, parallel=2, store=store)
    forced = runner.run_grid(pinned_scenarios, parallel=2, store=store,
                             force=True)
    assert all(not o.cached for o in forced)
    assert rows_of(forced) == rows_of(first)
    # and the overwritten entries still serve the same rows
    warm = runner.run_grid(pinned_scenarios, store=store)
    assert all(o.cached for o in warm)
    assert rows_of(warm) == rows_of(first)


# ------------------------------------------------------------ spawn context

@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method")
def test_spawn_rows_identical_with_runtime_registered_model(
        pinned_scenarios, tmp_path):
    """Spawn workers rebuild ``tinysweep`` from the WorkerManifest.

    The grid's workload only exists via a runtime ``register_model`` call
    in *this* process; fresh spawn interpreters know nothing about it.
    The rows must still be bit-identical to every other path, and a store
    populated under spawn must serve a warm fork/serial run.
    """
    serial = run_serially(pinned_scenarios)
    store = SweepStore(str(tmp_path / "store"))
    spawned = ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                                        store=store, start_method="spawn")
    assert rows_of(spawned) == rows_of(serial)
    assert all(not o.cached for o in spawned)
    # entries written under spawn are served verbatim to any later path
    warm = ScenarioRunner().run_grid(pinned_scenarios, store=store)
    assert all(o.cached for o in warm)
    assert rows_of(warm) == rows_of(serial)


def test_remote_warm_rows_identical(pinned_scenarios, tmp_path):
    """Every cell served read-through from a remote server into an
    empty local cache must be bit-identical to serial."""
    serial = run_serially(pinned_scenarios)
    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                              store=publisher)
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        publisher.push(server.url)
        consumer = SweepStore(str(tmp_path / "consumer"),
                              remote=server.url)
        remote_warm = ScenarioRunner().run_grid(pinned_scenarios,
                                                store=consumer)
    assert rows_of(remote_warm) == rows_of(serial)
    assert all(o.cached for o in remote_warm)
    assert consumer.stats.remote_hits == len(pinned_scenarios)


def test_cross_host_warm_rows_identical(pinned_scenarios, tmp_path):
    """Rows that crossed hosts through the coordination plane.  Host A
    sweeps against the hub (remote compute leases claimed, every
    computed cell published at record time); host B, cold and on a
    different store root, must then be served every cell from the hub —
    bit-identical to serial, with zero re-simulations anywhere."""
    serial = run_serially(pinned_scenarios)
    with StoreServer(str(tmp_path / "hub"), port=0) as server:
        host_a = SweepStore(str(tmp_path / "host-a"), remote=server.url)
        computed = ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                                             store=host_a)
        assert rows_of(computed) == rows_of(serial)
        assert all(not o.cached for o in computed)
        # record-time publishing: the hub is warm without a push
        assert host_a.stats.published == len(pinned_scenarios)

        host_b = SweepStore(str(tmp_path / "host-b"), remote=server.url)
        warm = ScenarioRunner().run_grid(pinned_scenarios, store=host_b)
    assert rows_of(warm) == rows_of(serial)
    assert all(o.cached for o in warm)
    assert host_b.stats.remote_hits == len(pinned_scenarios)
    assert host_b.stats.remote_rejected == 0


def test_chaos_rows_identical_under_injected_faults(pinned_scenarios,
                                                    tmp_path, monkeypatch):
    """Crashes and backend faults must not cost a bit.

    The remote tier corrupts the first read, truncates the second and
    errors the third (so three cells re-simulate while two serve
    read-through), and the kill plan SIGKILLs a worker at the first
    computed cell.  The sweep must complete without intervention, the
    report must account for every cell, and the rows must be
    bit-identical to serial.
    """
    import os

    from faults import FaultInjectingBackend, FaultPlan, FaultRule, KillPlan
    from repro.scenarios import KILL_PLAN_ENV, LocalBackend, run_batch

    serial = run_serially(pinned_scenarios)
    publisher = SweepStore(str(tmp_path / "publisher"))
    ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                              store=publisher)

    plan = FaultPlan(rules=(
        FaultRule(op="get", nth=1, action="corrupt"),
        FaultRule(op="get", nth=2, action="truncate"),
        FaultRule(op="get", nth=3, action="error"),
    ), seed=7)
    faulty_remote = FaultInjectingBackend(LocalBackend(publisher.root),
                                          plan)
    kills = KillPlan(cell=0, times=1, claim_dir=str(tmp_path / "claims"))
    monkeypatch.setenv(KILL_PLAN_ENV, kills.to_json())

    consumer = SweepStore(str(tmp_path / "consumer"), remote=faulty_remote)
    report = run_batch(pinned_scenarios, store=consumer, jobs=2)

    runner = ScenarioRunner()
    chaos_rows = [runner.detached_outcome(c.scenario, c.values["baseline_us"],
                                          c.values["predicted_us"],
                                          cached=c.cached).as_row()
                  for c in report.cells]
    assert chaos_rows == rows_of(serial)

    # every planned fault actually fired, in order
    assert faulty_remote.injected == ["get#1:corrupt", "get#2:truncate",
                                      "get#3:error"]
    # ...and the worker kill actually landed (and was spent exactly once)
    assert report.pool_rebuilds >= 1 and report.retried >= 1
    assert len(os.listdir(kills.claim_dir)) == 1

    # the report accounts for every cell: two served read-through, three
    # re-simulated (their remote reads were corrupt/truncated/errored)
    assert len(report.cells) == len(pinned_scenarios)
    assert report.failed == 0 and report.failures == []
    assert report.hits == 2 and report.computed == 3
    assert consumer.stats.remote_rejected == 2  # corrupt + truncate
    assert consumer.stats.remote_faults == 1    # the injected error
    assert consumer.stats.remote_hits == 2


def test_explicit_serial_start_method_matches(pinned_scenarios):
    serial = run_serially(pinned_scenarios)
    inproc = ScenarioRunner().run_grid(pinned_scenarios, parallel=4,
                                       start_method="serial")
    assert rows_of(inproc) == rows_of(serial)


@pytest.mark.parametrize("jobs", [0, -2])
def test_nonpositive_jobs_is_rejected(pinned_scenarios, jobs):
    with pytest.raises(ConfigError, match="at least 1"):
        ScenarioRunner().run_grid(pinned_scenarios, parallel=jobs)


def test_unknown_start_method_is_rejected(pinned_scenarios):
    with pytest.raises(ConfigError):
        ScenarioRunner().run_grid(pinned_scenarios, parallel=2,
                                  start_method="threads")


# ----------------------------------------- runtime-registered schedule policy

POLICY = "tinysweep_comm_first"


def build_comm_first_policy():
    """Module-level factory: spawn workers re-import it by name."""
    return make_priority_scheduler(lambda t: t.is_comm)


@pytest.fixture
def comm_first_policy():
    register_schedule_policy(POLICY, build_comm_first_policy,
                             overwrite=True)
    return POLICY


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method")
def test_spawn_rows_identical_with_runtime_schedule_policy(
        comm_first_policy, tmp_path):
    """Spawn workers rebuild the policy from the WorkerManifest.

    The scenarios declare a schedule policy that only exists via a
    runtime ``register_schedule_policy`` call in *this* process; a fresh
    spawn interpreter would reject them at validation.  The manifest
    must carry the factory across, and the rows must stay bit-identical
    to the serial path.
    """
    scenarios = [
        Scenario(model=MODEL, optimizations=["distributed_training"],
                 schedule_policy=POLICY).with_cluster(
                     2, 1, bandwidth_gbps=10.0),
        Scenario(model=MODEL, schedule_policy=POLICY),
    ]
    serial = run_serially(scenarios)
    store = SweepStore(str(tmp_path / "store"))
    spawned = ScenarioRunner().run_grid(scenarios, parallel=2, store=store,
                                        start_method="spawn")
    assert rows_of(spawned) == rows_of(serial)
    assert all(not o.cached for o in spawned)


# ----------------------------------------------------------- WorkerManifest

def test_manifest_round_trips_runtime_model(register_tiny_model):
    manifest = WorkerManifest.capture(model_names=[MODEL])
    assert dict(manifest.models)[MODEL] is build_tinysweep
    clone = pickle.loads(manifest.dumps())
    registry = clone.restore()
    assert registry.fingerprint() == manifest.fingerprint
    # the restored builder is the same importable callable
    from repro.models.registry import build_model
    assert build_model(MODEL).name == build_tinysweep().name


def test_manifest_scopes_models_to_the_grid():
    # an unrelated (possibly unpicklable) registration must not ride along
    try:
        register_model("tinysweep-unrelated", lambda batch_size=None:
                       make_tiny_model(batch=batch_size or 2))
    except ConfigError:
        pass
    manifest = WorkerManifest.capture(model_names=[MODEL])
    assert [name for name, _ in manifest.models] == [MODEL]
    manifest.dumps()  # picklable because the lambda was scoped out


def test_manifest_carries_custom_registry_specs():
    custom = OptimizationRegistry()
    custom.register(OptimizationSpec(
        key="amp", factory=AutomaticMixedPrecision,
        summary="module-level factory: crosses a spawn boundary"))
    manifest = WorkerManifest.capture(custom, model_names=[])
    assert not manifest.default_registry
    assert [spec.key for spec in manifest.specs] == ["amp"]
    clone = pickle.loads(manifest.dumps())
    rebuilt = clone.restore()
    assert rebuilt.fingerprint() == custom.fingerprint()
    assert "amp" in rebuilt and len(rebuilt.keys()) == 1


def test_manifest_rejects_unpicklable_registrations():
    custom = OptimizationRegistry()
    custom.register(OptimizationSpec(
        key="closure", factory=lambda: AutomaticMixedPrecision(),
        summary="lambdas cannot cross a spawn boundary"))
    manifest = WorkerManifest.capture(custom, model_names=[])
    with pytest.raises(ConfigError, match="module-level"):
        manifest.dumps()


def test_manifest_carries_runtime_schedule_policies(comm_first_policy):
    from repro.scenarios import NAMED_SCHEDULE_POLICIES
    manifest = WorkerManifest.capture(model_names=[],
                                      policy_names=[POLICY])
    assert dict(manifest.schedule_policies)[POLICY] \
        is build_comm_first_policy
    clone = pickle.loads(manifest.dumps())
    del NAMED_SCHEDULE_POLICIES[POLICY]  # simulate a fresh interpreter
    clone.restore()
    assert NAMED_SCHEDULE_POLICIES[POLICY] is build_comm_first_policy


def test_manifest_scopes_policies_to_the_grid(comm_first_policy):
    from repro.scenarios import NAMED_SCHEDULE_POLICIES

    # an unrelated (unpicklable) policy registration must not ride along
    register_schedule_policy(
        "tinysweep_unrelated",
        lambda: make_priority_scheduler(lambda t: t.is_comm),
        overwrite=True)
    try:
        manifest = WorkerManifest.capture(model_names=[],
                                          policy_names=[POLICY])
        assert [name for name, _ in manifest.schedule_policies] == [POLICY]
        manifest.dumps()  # picklable because the lambda was scoped out
    finally:
        del NAMED_SCHEDULE_POLICIES["tinysweep_unrelated"]


def test_builtin_policies_never_ride_the_manifest():
    # comm_priority ships with the package (and is a lambda: unpicklable);
    # spawn workers already have it, so capture must not carry it
    manifest = WorkerManifest.capture(model_names=[], policy_names=None)
    names = [name for name, _ in manifest.schedule_policies]
    assert "comm_priority" not in names


def test_overwritten_builtin_policy_counts_as_runtime_state():
    # identity, not name: a builtin replaced with a custom factory must
    # ride the manifest, or spawn workers silently run the shipped one
    # under the same name (and cache different rows under one key)
    from repro.scenarios import NAMED_SCHEDULE_POLICIES
    original = NAMED_SCHEDULE_POLICIES["comm_priority"]
    register_schedule_policy("comm_priority", build_comm_first_policy,
                             overwrite=True)
    try:
        manifest = WorkerManifest.capture(
            model_names=[], policy_names=["comm_priority"])
        assert dict(manifest.schedule_policies)["comm_priority"] \
            is build_comm_first_policy
        manifest.dumps()  # a module-level override crosses spawn fine
    finally:
        NAMED_SCHEDULE_POLICIES["comm_priority"] = original


def test_duplicate_policy_registration_is_rejected(comm_first_policy):
    with pytest.raises(ConfigError, match="already registered"):
        register_schedule_policy(POLICY, build_comm_first_policy)


def test_manifest_fingerprint_skew_fails_loudly():
    manifest = WorkerManifest.capture(model_names=[])
    skewed = WorkerManifest(fingerprint="not-the-real-fingerprint",
                            default_registry=manifest.default_registry,
                            specs=manifest.specs, models=manifest.models)
    with pytest.raises(ConfigError, match="fingerprint"):
        skewed.restore()
