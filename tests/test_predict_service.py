"""The prediction daemon must serve warm, memoized, bit-identical answers.

End-to-end coverage for :mod:`repro.scenarios.service`: a warm ``POST
/predict`` answer is bit-identical to the serial ``repro run`` path (the
service-warm determinism path, and the sweep store is the bridge — a row
computed by ``repro sweep`` is a warm service hit and vice versa), batch
answers equal N single answers exactly, the LRU session pool evicts at
``--max-sessions`` and survives engine failures by evicting only the
failing session, malformed/oversized/unauthorized requests each map to
their contract status code without hurting any other request, and one
daemon serves concurrent threaded clients correctly.  The session-cache
staleness regressions (a re-registered model builder, a rotated registry
fingerprint) fail on the old trusting code.
"""

import http.client
import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from helpers import make_tiny_model
from repro.common.errors import ConfigError
from repro.models.registry import register_model
from repro.optimizations.base import OptimizationModel
from repro.scenarios import (
    MAX_REQUEST_BYTES,
    OptimizationRegistry,
    OptimizationSpec,
    PredictServer,
    PredictService,
    Scenario,
    ScenarioRunner,
    ServiceError,
    SweepStore,
    scenario_key,
)

MODEL = "tinysvc"


def build_tinysvc(batch_size=None):
    """Module-level builder: the service's workloads are tiny and fast."""
    return make_tiny_model(batch=batch_size or 4)


@pytest.fixture(scope="module", autouse=True)
def register_tiny_model():
    try:
        register_model(MODEL, build_tinysvc)
    except ConfigError:
        pass


# ------------------------------------------------------------ HTTP helpers

def post(url, path, payload, token=None, raw=None):
    """POST one request; returns ``(status, parsed-JSON body)``."""
    body = raw if raw is not None else json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url + path, data=body, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url, path):
    """GET one probe; returns ``(status, parsed-JSON body)``."""
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


SCENARIO = {"model": MODEL, "optimizations": ["amp"]}


# ----------------------------------------- determinism: warm == cold == CLI

def test_cold_then_warm_roundtrip_is_memoized_and_bit_identical(tmp_path):
    """The acceptance criterion: a warm POST /predict == the serial row."""
    serial = ScenarioRunner().run(Scenario.from_dict(SCENARIO))
    store = SweepStore(str(tmp_path / "store"))
    service = PredictService(store=store)
    with PredictServer(service) as server:
        status1, cold = post(server.url, "/predict", SCENARIO)
        status2, warm = post(server.url, "/predict", SCENARIO)
    assert status1 == 200 and status2 == 200
    assert cold["cached"] is False and warm["cached"] is True
    # bit-identical across the cold compute, the store-served warm
    # answer, and the serial ScenarioRunner path (`repro run`)
    assert cold["row"] == warm["row"] == serial.as_row()
    assert cold["values"] == warm["values"] == {
        "baseline_us": serial.baseline_us,
        "predicted_us": serial.predicted_us,
    }
    assert cold["key"] == warm["key"] == store.key(serial.scenario)


def test_sweep_written_entries_are_warm_service_hits(tmp_path):
    """Service-warm determinism path: sweep-computed rows serve warm,
    unchanged."""
    scenarios = [Scenario(model=MODEL, optimizations=["amp"]),
                 Scenario(model=MODEL)]
    store = SweepStore(str(tmp_path / "store"))
    swept = ScenarioRunner().run_grid(scenarios, parallel=1, store=store)
    service = PredictService(store=store)
    with PredictServer(service) as server:
        for scenario, outcome in zip(scenarios, swept):
            status, answer = post(server.url, "/predict", scenario.to_dict())
            assert status == 200
            assert answer["cached"] is True
            assert answer["row"] == outcome.as_row()
    # every answer came from the store: no session was ever built
    assert service.pool.stats()["built"] == 0


def test_service_writes_are_sweep_hits(tmp_path):
    """And the bridge runs both ways: service answers feed `repro sweep`."""
    store = SweepStore(str(tmp_path / "store"))
    with PredictServer(PredictService(store=store)) as server:
        status, answer = post(server.url, "/predict", SCENARIO)
        assert status == 200
    outcome, = ScenarioRunner().run_grid(
        [Scenario.from_dict(SCENARIO)], parallel=1, store=store)
    assert outcome.cached is True
    assert outcome.as_row() == answer["row"]


# ------------------------------------------------------ batch == N x single

def test_batch_equals_n_singles_bit_identically():
    """One /predict/batch == N /predict calls, byte for byte."""
    payloads = [{"model": MODEL, "optimizations": ["amp"]},
                {"model": MODEL},
                {"model": MODEL, "optimizations": ["fused_adam"]}]
    with PredictServer(PredictService()) as server:
        singles = [post(server.url, "/predict", p)[1] for p in payloads]
    with PredictServer(PredictService()) as server:
        status, batch = post(server.url, "/predict/batch",
                             {"scenarios": payloads})
    assert status == 200
    assert batch["count"] == len(payloads)
    assert batch["results"] == singles


def test_batch_grid_form_expands_server_side():
    """A {base, axes} body answers exactly like the expanded list."""
    grid = {"base": {"model": MODEL},
            "axes": {"batch_size": [2, 4]}}
    service = PredictService()
    with PredictServer(service) as server:
        status, batch = post(server.url, "/predict/batch", grid)
        assert status == 200
        assert batch["count"] == 2
        singles = [post(server.url, "/predict",
                        {"model": MODEL, "batch_size": b})[1]
                   for b in (2, 4)]
    assert [r["values"] for r in batch["results"]] == \
        [s["values"] for s in singles]


def test_batch_shares_one_warm_session_per_workload():
    """N same-workload scenarios cost one profiled session, not N."""
    service = PredictService()
    service.predict_batch({"scenarios": [
        {"model": MODEL},
        {"model": MODEL, "optimizations": ["amp"]},
        {"model": MODEL, "optimizations": ["fused_adam"]},
    ]})
    assert service.pool.stats()["built"] == 1


def test_cells_batch_runs_on_the_shared_lowering():
    """Named task-override cells answer like run_cells, bit-identically."""
    scenario = Scenario(model=MODEL)
    runner = ScenarioRunner()
    session = runner.session(scenario)
    task = session.graph.tasks()[0]
    cells = [{"label": "asis", "durations": {}},
             {"label": "free", "durations": {task.name: 0.0}}]
    service = PredictService()
    with PredictServer(service) as server:
        status, answer = post(server.url, "/predict/batch",
                              {"scenario": scenario.to_dict(),
                               "cells": cells})
    assert status == 200
    assert answer["count"] == 2
    assert answer["baseline_us"] == session.baseline_us
    asis, free = answer["results"]
    assert asis["label"] == "asis"
    assert asis["predicted_us"] == session.baseline_us
    assert free["predicted_us"] <= asis["predicted_us"]
    # bit-identical to the direct run_cells path on a fresh session
    from repro.core.compiled import CellDelta
    direct = runner.run_cells(scenario, [
        CellDelta(label="asis"),
        CellDelta(label="free", durations={task: 0.0}),
    ])
    assert [r["predicted_us"] for r in answer["results"]] == \
        [p.predicted_us for p in direct]


def test_cells_with_callable_schedule_policy_is_a_400_that_keeps_the_session(
        monkeypatch):
    """A policy factory returning a plain callable is bad input, not an
    engine failure: 400, and the warm session stays in the pool."""
    from repro.scenarios import (
        NAMED_SCHEDULE_POLICIES,
        register_schedule_policy,
    )

    def first_in_frontier(frontier, progress):
        return frontier[0]

    register_schedule_policy("legacy_fifo", lambda: first_in_frontier)
    try:
        service = PredictService()
        evicted = []
        monkeypatch.setattr(service.pool, "evict", evicted.append)
        cells = [{"label": "asis"}]
        with PredictServer(service) as server:
            ok_status, _ = post(server.url, "/predict/batch",
                                {"scenario": {"model": MODEL},
                                 "cells": cells})
            assert ok_status == 200
            status, body = post(server.url, "/predict/batch",
                                {"scenario": {"model": MODEL,
                                              "schedule_policy": "legacy_fifo"},
                                 "cells": cells})
        assert status == 400
        assert "legacy_fifo" in body["error"]
        assert evicted == []
        assert service.pool.stats()["built"] == 1
        assert service.pool.stats()["live"] == 1
    finally:
        del NAMED_SCHEDULE_POLICIES["legacy_fifo"]


def test_cells_with_unknown_task_name_is_a_400():
    service = PredictService()
    with pytest.raises(ServiceError) as excinfo:
        service.predict_batch({"scenario": {"model": MODEL},
                               "cells": [{"durations": {"nope": 1.0}}]})
    assert excinfo.value.status == 400
    assert "nope" in str(excinfo.value)


# ------------------------------------------------------------- LRU eviction

def test_lru_eviction_at_max_sessions():
    """The pool holds max_sessions warm workloads; LRU pays for the next."""
    service = PredictService(max_sessions=2)
    for batch in (2, 3, 4):  # three distinct workloads
        service.predict({"model": MODEL, "batch_size": batch})
    stats = service.pool.stats()
    assert stats["built"] == 3
    assert stats["live"] == 2
    assert stats["evicted_lru"] == 1
    # batch 2 was evicted (LRU); asking again rebuilds it
    service.predict({"model": MODEL, "batch_size": 2})
    assert service.pool.stats()["built"] == 4
    # batch 4 stayed warm through all of it
    service.predict({"model": MODEL, "batch_size": 4})
    assert service.pool.stats()["built"] == 4


def test_mru_workload_stays_warm():
    """Touching a workload saves it from eviction (it is truly LRU)."""
    service = PredictService(max_sessions=2)
    service.predict({"model": MODEL, "batch_size": 2})
    service.predict({"model": MODEL, "batch_size": 3})
    service.predict({"model": MODEL, "batch_size": 2})  # refresh 2
    service.predict({"model": MODEL, "batch_size": 4})  # evicts 3, not 2
    service.predict({"model": MODEL, "batch_size": 2})
    assert service.pool.stats()["built"] == 3


# -------------------------------------------------------- request rejection

def test_malformed_json_is_a_400():
    with PredictServer(PredictService()) as server:
        status, body = post(server.url, "/predict", None,
                            raw=b"{not json at all")
    assert status == 400
    assert "JSON" in body["error"]


def test_unknown_optimization_is_a_400_with_the_validation_message():
    with PredictServer(PredictService()) as server:
        status, body = post(server.url, "/predict",
                            {"model": MODEL, "optimizations": ["warpdrive"]})
    assert status == 400
    assert "warpdrive" in body["error"]


def test_unknown_scenario_field_is_a_400():
    with PredictServer(PredictService()) as server:
        status, body = post(server.url, "/predict",
                            {"model": MODEL, "telepathy": True})
    assert status == 400
    assert "telepathy" in body["error"]


def test_unknown_model_is_a_400():
    with PredictServer(PredictService()) as server:
        status, body = post(server.url, "/predict", {"model": "unobtanium"})
    assert status == 400
    assert "unobtanium" in body["error"]


def test_oversized_body_is_a_413():
    """An over-cap ``Content-Length`` is refused before a byte is read.

    The length is declared without sending the body: a client still
    uploading when the server answers and closes can see a broken pipe
    instead of the 413.
    """
    with PredictServer(PredictService()) as server:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=5.0)
        try:
            conn.putrequest("POST", "/predict", skip_accept_encoding=True)
            conn.putheader("Content-Length", str(MAX_REQUEST_BYTES + 1))
            conn.endheaders()
            assert conn.getresponse().status == 413
        finally:
            conn.close()


def test_unknown_endpoint_is_a_404():
    with PredictServer(PredictService()) as server:
        assert post(server.url, "/frobnicate", {})[0] == 404
        assert get(server.url, "/predict")[0] == 404


def test_a_rejected_request_hurts_no_other_request():
    """Per-request degradation: a 400 leaves the daemon fully serving."""
    service = PredictService()
    with PredictServer(service) as server:
        assert post(server.url, "/predict", {"model": "nope"})[0] == 400
        assert post(server.url, "/predict", None, raw=b"broken")[0] == 400
        status, answer = post(server.url, "/predict", SCENARIO)
    assert status == 200
    assert answer["row"][0] == MODEL
    errors = service.stats()["errors"]
    assert errors.get("400") == 2


# ---------------------------------------------------------------- auth gate

def test_auth_token_gates_predictions_but_not_probes():
    with PredictServer(PredictService(), auth_token="sesame") as server:
        assert post(server.url, "/predict", SCENARIO)[0] == 401
        assert post(server.url, "/predict", SCENARIO, token="wrong")[0] == 401
        assert post(server.url, "/predict/batch",
                    {"scenarios": [SCENARIO]})[0] == 401
        status, answer = post(server.url, "/predict", SCENARIO,
                              token="sesame")
        assert status == 200 and answer["row"][0] == MODEL
        # liveness and stats probes stay open for load balancers
        assert get(server.url, "/healthz")[0] == 200
        probe_status, stats = get(server.url, "/stats")
        assert probe_status == 200
        assert stats["auth_required"] is True


# ----------------------------------------------- engine failure degradation

class _ExplodingOptimization(OptimizationModel):
    """An optimization whose graph transform always crashes the engine."""

    name = "explode"

    def apply(self, graph, context):
        """Simulate an engine bug, not a scenario-validation failure."""
        raise RuntimeError("injected engine failure")


def _exploding_registry() -> OptimizationRegistry:
    """A private registry so the injected spec never leaks global state."""
    registry = OptimizationRegistry()
    registry.register(OptimizationSpec(
        key="explode", factory=_ExplodingOptimization,
        summary="always crashes (test-only)"))
    return registry


def test_engine_failure_is_a_500_that_evicts_only_that_session():
    """A crash costs one request: 500, session evicted, pool keeps going."""
    service = PredictService(registry=_exploding_registry())
    with PredictServer(service) as server:
        ok_status, _ = post(server.url, "/predict", {"model": MODEL})
        assert ok_status == 200
        boom_status, body = post(server.url, "/predict",
                                 {"model": MODEL,
                                  "optimizations": ["explode"]})
        assert boom_status == 500
        assert "engine failure" in body["error"]
        # the pool kept serving: same workload answers again (rebuilt)
        again_status, answer = post(server.url, "/predict", {"model": MODEL})
        assert again_status == 200 and answer["row"][0] == MODEL
    stats = service.pool.stats()
    assert stats["evicted_error"] == 1
    assert service.stats()["errors"].get("500") == 1


# ------------------------------------------------- staleness (regressions)

def test_runner_session_is_rebuilt_after_model_overwrite():
    """Fails on old code: a re-registered builder must not serve stale.

    ``ScenarioRunner`` caches sessions by (model, batch, config) — a name
    — so re-registering the model behind that name used to keep serving
    the *old* model's timings.  The runner now stamps each cached session
    with its builder's identity and rebuilds on mismatch.
    """
    register_model("tinyswap", lambda batch_size=None: make_tiny_model(
        batch=batch_size or 2), overwrite=True)
    runner = ScenarioRunner()
    scenario = Scenario(model="tinyswap")
    before = runner.run(scenario).baseline_us
    register_model("tinyswap", lambda batch_size=None: make_tiny_model(
        batch=batch_size or 16), overwrite=True)
    after = runner.run(scenario).baseline_us
    assert after != before
    # and the new session answers exactly like a cold runner would
    assert after == ScenarioRunner().run(scenario).baseline_us


def test_pool_evicts_stale_model_sessions():
    """The service-level half of the same regression, with its counter."""
    register_model("tinyswap2", lambda batch_size=None: make_tiny_model(
        batch=batch_size or 2), overwrite=True)
    service = PredictService()
    payload = {"model": "tinyswap2"}
    before = service.predict(payload)["values"]["baseline_us"]
    register_model("tinyswap2", lambda batch_size=None: make_tiny_model(
        batch=batch_size or 16), overwrite=True)
    after = service.predict(payload)["values"]["baseline_us"]
    assert after != before
    assert service.pool.stats()["evicted_stale_model"] == 1


def test_pool_flushes_when_the_registry_fingerprint_rotates():
    """Fails on old code: a salt change must not trust pooled sessions."""
    registry = _exploding_registry()
    service = PredictService(registry=registry)
    service.predict({"model": MODEL})
    salt_before = service.pool.salt
    registry.register(OptimizationSpec(
        key="newcomer", factory=_ExplodingOptimization,
        summary="rotates the fingerprint (test-only)"))
    service.predict({"model": MODEL})
    stats = service.pool.stats()
    assert service.pool.salt != salt_before
    assert stats["flushed_salt"] == 1
    assert stats["built"] == 2  # the workload was rebuilt, not trusted


def test_store_keys_rotate_with_the_pool():
    """After a fingerprint rotation the memo key changes too — no stale
    store hit can masquerade as a fresh answer."""
    registry = _exploding_registry()
    service = PredictService(registry=registry)
    scenario = Scenario(model=MODEL)
    key_before = service.key_for(scenario)
    registry.register(OptimizationSpec(
        key="newcomer", factory=_ExplodingOptimization,
        summary="rotates the fingerprint (test-only)"))
    assert service.key_for(scenario) != key_before


def test_service_refuses_a_store_keyed_by_another_registry(tmp_path):
    """One keying scheme: a store under a different registry is an error."""
    store = SweepStore(str(tmp_path / "store"))  # DEFAULT_REGISTRY
    with pytest.raises(ConfigError):
        PredictService(registry=_exploding_registry(), store=store)


# --------------------------------------------------------------- concurrency

def test_concurrent_threaded_clients_against_one_daemon(tmp_path):
    """Many clients, two workloads, one daemon: every answer is exact."""
    payloads = [{"model": MODEL, "optimizations": ["amp"]},
                {"model": MODEL, "batch_size": 2}]
    expected = [ScenarioRunner().run(Scenario.from_dict(p)).as_row()
                for p in payloads]
    store = SweepStore(str(tmp_path / "store"))
    service = PredictService(store=store, workers=4)
    failures = []

    def client(worker: int) -> None:
        for round_ in range(3):
            pick = (worker + round_) % len(payloads)
            try:
                status, answer = post(server.url, "/predict", payloads[pick])
                if status != 200 or answer["row"] != expected[pick]:
                    failures.append((worker, round_, status, answer))
            except Exception as exc:  # noqa: BLE001 — collected, not raised
                failures.append((worker, round_, repr(exc)))

    with PredictServer(service) as server:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not failures
    stats = service.stats()
    assert stats["requests"]["predict"] == 24
    assert stats["errors"] == {}
    # two workloads were ever profiled, no matter the client count
    assert service.pool.stats()["built"] <= 2
    assert stats["latency"]["p50_ms"] is not None
    assert stats["latency"]["p99_ms"] >= stats["latency"]["p50_ms"]


def test_keys_on_the_wire_are_sweep_store_keys(tmp_path):
    """Response keys == SweepStore keys (spot check; property-tested too)."""
    store = SweepStore(str(tmp_path / "store"))
    service = PredictService(store=store)
    answer = service.predict(SCENARIO)
    scenario = Scenario.from_dict(SCENARIO)
    assert answer["key"] == store.key(scenario)
    assert answer["key"] == scenario_key(scenario, service.registry)


# ------------------------------------------- memo hits and the spec cache

def _refuse_model_builds(monkeypatch):
    """Make every ``build_model`` binding under ``repro`` raise."""
    from repro.models import registry

    original = registry.build_model

    def refuse(*args, **kwargs):
        raise RuntimeError("build_model called on a memo hit")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "build_model", None) is original):
            monkeypatch.setattr(module, "build_model", refuse)


def test_memo_hits_build_no_model_spec(tmp_path, monkeypatch):
    """A hit is a lookup: with ``build_model`` raising, a warmed service
    still answers every single, list and grid hit with the serial rows."""
    payloads = [{"model": MODEL, "optimizations": ["amp"]},
                {"model": MODEL},
                {"model": MODEL, "batch_size": 2,
                 "optimizations": ["fused_adam"]}]
    grid = {"base": {"model": MODEL, "optimizations": ["amp"]},
            "axes": {"batch_size": [2, 4]}}
    expected = [ScenarioRunner().run(Scenario.from_dict(p)).as_row()
                for p in payloads]
    expected_grid = [ScenarioRunner().run(Scenario.from_dict(
        {"model": MODEL, "batch_size": b, "optimizations": ["amp"]}
    )).as_row() for b in (2, 4)]
    service = PredictService(store=SweepStore(str(tmp_path / "store")))
    warm = [service.predict(p) for p in payloads]
    warm_grid = service.predict_batch(grid)["results"]

    _refuse_model_builds(monkeypatch)
    singles = [service.predict(p) for p in payloads]
    listed = service.predict_batch({"scenarios": payloads})["results"]
    gridded = service.predict_batch(grid)["results"]
    assert all(a["cached"] for a in singles + listed + gridded)
    assert [a["row"] for a in singles] == expected
    assert [a["row"] for a in listed] == expected
    assert [a["row"] for a in gridded] == expected_grid
    # a hit answers exactly what the computed answer said, bar `cached`
    for computed, hit in zip(warm + warm_grid, singles + gridded):
        assert dict(computed, cached=True) == hit


def test_spec_cache_is_bounded_and_seeds_new_sessions():
    """At most ``max_sessions`` specs stay cached, however many batch
    sizes clients ask for; a new workload builds its spec once."""
    builds = []

    def counting(batch_size=None):
        builds.append(batch_size)
        return make_tiny_model(batch=batch_size or 4)

    register_model("tinyspec", counting, overwrite=True)
    service = PredictService(max_sessions=2)
    for batch in (2, 3, 4, 5, 6):
        service.predict({"model": "tinyspec", "batch_size": batch})
        assert service.pool.stats()["specs"] <= 2
    assert builds == [2, 3, 4, 5, 6]  # validation's spec feeds the session
    service.predict({"model": "tinyspec", "batch_size": 6,
                     "optimizations": ["amp"]})
    assert builds == [2, 3, 4, 5, 6]  # still cached
    service.predict({"model": "tinyspec", "batch_size": 2})
    assert builds == [2, 3, 4, 5, 6, 2]  # evicted long ago, rebuilt
    assert service.pool.stats()["specs"] == 2


def test_a_re_registered_failing_builder_turns_a_hit_into_a_400(tmp_path):
    """A cached spec is never trusted past a re-registration."""
    register_model("tinyswap3", lambda batch_size=None: make_tiny_model(
        batch=batch_size or 2), overwrite=True)
    service = PredictService(store=SweepStore(str(tmp_path / "store")))
    payload = {"model": "tinyswap3", "optimizations": ["amp"]}
    service.predict(payload)
    assert service.predict(payload)["cached"] is True

    def broken(batch_size=None):
        raise ConfigError("tinyswap3 was withdrawn")

    register_model("tinyswap3", broken, overwrite=True)
    with pytest.raises(ServiceError) as excinfo:
        service.predict(payload)
    assert excinfo.value.status == 400
    assert str(excinfo.value) == "tinyswap3 was withdrawn"


def test_unknown_model_is_a_400_with_the_registry_message():
    """The spec cache keeps the registry's message and caches nothing."""
    from repro.models.registry import build_model

    with pytest.raises(ConfigError) as expected:
        build_model("unobtanium")
    service = PredictService()
    with PredictServer(service) as server:
        status, body = post(server.url, "/predict", {"model": "unobtanium"})
    assert status == 400
    assert body["error"] == str(expected.value)
    assert service.pool.stats()["specs"] == 0
    assert service.pool.stats()["built"] == 0


def test_cells_graph_failure_is_a_500_that_evicts_the_session(monkeypatch):
    """Building the baseline graph for a ``cells`` grid is engine work: a
    failure there is a 500 that evicts the session, like on /predict."""
    import repro.analysis.session as session_module

    original = session_module.build_graph

    def broken(trace):
        raise RuntimeError("injected graph failure")

    body = {"scenario": {"model": MODEL}, "cells": [{"label": "asis"}]}
    service = PredictService()
    with PredictServer(service) as server:
        monkeypatch.setattr(session_module, "build_graph", broken)
        status, answer = post(server.url, "/predict/batch", body)
        assert status == 500
        assert "engine failure" in answer["error"]
        monkeypatch.setattr(session_module, "build_graph", original)
        status, answer = post(server.url, "/predict/batch", body)
        assert status == 200 and answer["count"] == 1
    stats = service.stats()
    assert stats["errors"] == {"500": 1}
    assert stats["sessions"]["evicted_error"] == 1
    assert stats["sessions"]["built"] == 2  # rebuilt, not the broken one


def test_spec_cache_holds_its_bound_under_concurrent_requests():
    """Threads racing over more batch sizes than the bound: every spec
    answers for its own batch size and the cache never outgrows it."""
    pool = PredictService(max_sessions=2).pool
    scenarios = [Scenario(model=MODEL, batch_size=b) for b in (2, 3, 4, 5, 6)]
    failures = []

    def client(worker: int) -> None:
        for round_ in range(40):
            scenario = scenarios[(worker + round_) % len(scenarios)]
            spec = pool.model(scenario)
            if spec.batch_size != scenario.batch_size:
                failures.append((scenario.batch_size, spec.batch_size))
            if pool.stats()["specs"] > 2:
                failures.append(("over bound", pool.stats()["specs"]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:5]
    assert pool.stats()["specs"] == 2
