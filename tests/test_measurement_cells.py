"""Engine ground truth rides the batch executor as ``(scenario, kind)`` cells.

Every ``groundtruth:*`` kind of
:data:`repro.framework.groundtruth.MEASUREMENTS` is a cell kind of
:func:`repro.scenarios.batch.run_batch`, so a measurement gets what a
prediction gets — store hits, spawn workers, crash recovery — and these
tests pin that it gets the *same numbers* on every path:

* serial cells equal the ``run_*`` functions they name;
* spawn workers and a chaos-killed pool give the serial values;
* the content keys and entry bytes of measured cells match stores
  written before measurements were cells, so those stores keep serving;
* the one trust check refuses ``NaN``/``Infinity`` entries of every kind.
"""

import math
import multiprocessing
import os

import pytest

from faults import KillPlan
from helpers import make_tiny_model, plant_entry
from repro.common.errors import ConfigError
from repro.experiments.common import cached_measurements
from repro.framework import groundtruth as gt
from repro.framework.paramserver import run_ps_baseline, run_ps_p3
from repro.models.registry import register_model
from repro.scenarios import (
    KILL_PLAN_ENV,
    OptimizationRegistry,
    PredictService,
    Scenario,
    ScenarioRunner,
    SweepStore,
    run_batch,
)
from repro.scenarios import runner as runner_module
from repro.scenarios.store import timings_ok

MODEL = "tinytruth"
POISON = "poisontruth"


def build_tinytruth(batch_size=None):
    """Module-level builder: spawn workers re-import it by name."""
    return make_tiny_model(batch=batch_size or 4)


def build_poisontruth(batch_size=None):
    """A workload whose every measurement fails, in workers and parent."""
    raise ValueError("this workload is poisoned")


@pytest.fixture(scope="module", autouse=True)
def register_models():
    # unregister on teardown: test_models.py asserts the exact zoo
    from repro.models import registry as model_registry
    for name, builder in ((MODEL, build_tinytruth),
                          (POISON, build_poisontruth)):
        try:
            register_model(name, builder)
        except ConfigError:
            pass
    yield
    for name in (MODEL, POISON):
        model_registry._BUILDERS.pop(name, None)
        model_registry._RUNTIME_NAMES.discard(name)


BASE = Scenario(model=MODEL).with_cluster(2, 1, bandwidth_gbps=10.0)

#: one cell of every measurement kind, on one small deployment
CELLS = [(BASE, kind) for kind in sorted(gt.MEASUREMENTS)]


def values_of(report):
    return [(cell.kind, cell.values["iteration_us"]) for cell in report.cells]


@pytest.fixture(scope="module")
def serial_values():
    return values_of(run_batch(CELLS, jobs=1))


def test_serial_cells_equal_the_run_functions(serial_values):
    model = BASE.build_model()
    config = BASE.build_config()
    cluster = BASE.build_cluster()
    expected = {
        gt.AMP_KIND: gt.run_amp(model, config),
        gt.FUSED_ADAM_KIND: gt.run_fused_adam(model, config),
        gt.RECONSTRUCT_BATCHNORM_KIND:
            gt.run_reconstructed_batchnorm(model, config),
        gt.DDP_SYNC_KIND: gt.run_distributed(
            model, cluster, config, sync_before_allreduce=True),
        gt.DDP_NOSYNC_KIND: gt.run_distributed(
            model, cluster, config, sync_before_allreduce=False),
        gt.PS_BASELINE_KIND: run_ps_baseline(model, cluster, config),
        gt.PS_P3_KIND: run_ps_p3(model, cluster, config),
    }
    assert serial_values == [(kind, expected[kind].iteration_us)
                             for _scenario, kind in CELLS]


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method")
def test_spawn_cells_equal_serial_and_serve_a_fork_rerun(serial_values,
                                                         tmp_path):
    store = SweepStore(str(tmp_path / "store"))
    spawned = run_batch(CELLS, store=store, jobs=2, start_method="spawn")
    assert spawned.start_method == "spawn"
    assert spawned.computed == len(CELLS)
    assert values_of(spawned) == serial_values
    warm = run_batch(CELLS, store=store, jobs=2, start_method="fork")
    assert warm.hits == len(CELLS) and warm.computed == 0
    assert values_of(warm) == serial_values


def test_chaos_killed_worker_cells_equal_serial(serial_values, tmp_path,
                                                monkeypatch):
    plan = KillPlan(cell=0, times=1, claim_dir=str(tmp_path / "claims"))
    monkeypatch.setenv(KILL_PLAN_ENV, plan.to_json())
    store = SweepStore(str(tmp_path / "store"))
    report = run_batch(CELLS, store=store, jobs=2)
    assert values_of(report) == serial_values
    assert report.pool_rebuilds >= 1 and report.failed == 0
    assert len(os.listdir(plan.claim_dir)) == 1  # the kill landed once


@pytest.mark.parametrize("jobs, start_method", [
    (1, None),
    pytest.param(2, "fork", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="platform has no fork start method")),
])
def test_cells_reuse_the_callers_profiled_session(serial_values, monkeypatch,
                                                  jobs, start_method):
    runner = ScenarioRunner()
    runner.session(BASE)

    def no_profiling(*args, **kwargs):
        raise AssertionError("workload profiled again")

    # a fork worker inherits the patch too: a profile there fails its
    # cell into a retry, so a clean report proves neither side profiled
    monkeypatch.setattr(runner_module.WhatIfSession, "from_model",
                        no_profiling)
    report = run_batch(CELLS, jobs=jobs, start_method=start_method,
                       runner=runner)
    assert values_of(report) == serial_values
    assert report.retried == 0 and report.failed == 0


def test_a_runner_on_another_registry_is_refused():
    with pytest.raises(ConfigError, match="share one optimization registry"):
        run_batch(CELLS[:1], runner=ScenarioRunner(OptimizationRegistry()))


def test_a_failing_measurement_raises_naming_its_cell():
    with pytest.raises(ConfigError, match=r"\[groundtruth:amp\].*poisoned"):
        cached_measurements([(Scenario(model=POISON), gt.AMP_KIND)])


# ----------------------------------------------------- store compatibility

#: entries as a store wrote them before measurements were batch cells
PINNED_ENTRIES = {
    "5cff4bd59ac9595a09d75cc7dfb6f99c": (
        Scenario(model="resnet50", optimizations=["amp"]), gt.AMP_KIND,
        b'{\n "checksum": "8a725ef92f86af6d",\n "format": 2,\n'
        b' "key": "5cff4bd59ac9595a09d75cc7dfb6f99c",\n'
        b' "kind": "groundtruth:amp",\n'
        b' "salt": "v2:93f4e70f73973225bda6e7cb53b9e265",\n'
        b' "scenario": {\n  "model": "resnet50"\n },\n'
        b' "values": {\n  "iteration_us": 128930.72065706983\n }\n}\n'),
    "6351181a6742e314518c535c29bfd79c": (
        Scenario(model="gnmt", optimizations=["distributed_training"])
        .with_cluster(2, 1, bandwidth_gbps=10), gt.DDP_SYNC_KIND,
        b'{\n "checksum": "f091f364345aad03",\n "format": 2,\n'
        b' "key": "6351181a6742e314518c535c29bfd79c",\n'
        b' "kind": "groundtruth:ddp-sync",\n'
        b' "salt": "v2:93f4e70f73973225bda6e7cb53b9e265",\n'
        b' "scenario": {\n  "cluster": {\n   "bandwidth_gbps": 10,\n'
        b'   "gpus_per_machine": 1,\n   "latency_us": 25.0,\n'
        b'   "machines": 2,\n   "per_primitive_overhead_us": 60.0\n  },\n'
        b'  "model": "gnmt"\n },\n'
        b' "values": {\n  "iteration_us": 843956.2976836666\n }\n}\n'),
}


def test_measurement_keys_are_pinned(tmp_path):
    store = SweepStore(str(tmp_path / "store"))
    assert store.key(Scenario(model="resnet50"), kind=gt.AMP_KIND) \
        == "5cff4bd59ac9595a09d75cc7dfb6f99c"
    gnmt = Scenario(model="gnmt").with_cluster(2, 1, bandwidth_gbps=10)
    assert store.key(gnmt, kind=gt.DDP_SYNC_KIND) \
        == "6351181a6742e314518c535c29bfd79c"


def test_remeasured_entries_keep_their_bytes_and_are_served(tmp_path):
    """A fresh measurement writes the bytes an older store holds, and a
    store holding them serves the measurement without an engine run."""
    store = SweepStore(str(tmp_path / "fresh"))
    cells = [(scenario, kind)
             for scenario, kind, _data in PINNED_ENTRIES.values()]
    measured = cached_measurements(cells, store=store)
    for key, (_scenario, _kind, data) in PINNED_ENTRIES.items():
        assert store.local.get(key) == data

    old = SweepStore(str(tmp_path / "old"))
    for key, (_scenario, _kind, data) in PINNED_ENTRIES.items():
        old.local.put(key, data)
    report = run_batch([(s.with_(optimizations=[]), kind)
                        for s, kind in cells], store=old)
    assert report.hits == len(cells) and report.computed == 0
    assert [c.values["iteration_us"] for c in report.cells] == measured


# --------------------------------------------------- non-finite entries

@pytest.mark.parametrize("kind", ["predict", gt.AMP_KIND])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trust_check_refuses_non_finite_timings(kind, bad):
    names = (("baseline_us", "predicted_us") if kind == "predict"
             else ("iteration_us",))
    assert timings_ok({name: 1.0 for name in names}, kind)
    for name in names:
        values = {other: 1.0 for other in names}
        values[name] = bad
        assert not timings_ok(values, kind)


@pytest.mark.parametrize("kind", ["predict", gt.AMP_KIND])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, 1])
def test_put_refuses_timings_it_would_not_serve(kind, bad, tmp_path):
    """``put`` fails loudly, naming the kind and the field, on a timing
    the trust check would refuse, and writes nothing."""
    names = (("baseline_us", "predicted_us") if kind == "predict"
             else ("iteration_us",))
    store = SweepStore(str(tmp_path / "store"))
    for name in names:
        values = {other: 1.0 for other in names}
        if bad is None:
            del values[name]
        else:
            values[name] = bad
        with pytest.raises(ValueError, match=f"{kind!r}.*{name!r}"):
            store.put(BASE, values, kind=kind)
    assert len(store) == 0
    # a finite timing beside a non-finite extra value is not JSON either
    with pytest.raises(ValueError):
        store.put(BASE, {**{name: 1.0 for name in names}, "note": math.nan},
                  kind=kind)
    assert len(store) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_are_recomputed_not_served(bad, tmp_path):
    predict = Scenario(model=MODEL, optimizations=["amp"])
    truth = (BASE, gt.AMP_KIND)
    reference = run_batch([predict, truth], jobs=1)

    store = SweepStore(str(tmp_path / "store"))
    plant_entry(store, predict, {"baseline_us": bad, "predicted_us": bad})
    plant_entry(store, BASE, {"iteration_us": bad}, kind=gt.AMP_KIND)
    report = run_batch([predict, truth], store=store, jobs=1)
    assert report.hits == 0 and report.computed == 2
    assert [c.values for c in report.cells] \
        == [c.values for c in reference.cells]
    # the recomputed entries replaced the bad ones
    assert timings_ok(store.get(predict))
    assert timings_ok(store.get(BASE, gt.AMP_KIND), gt.AMP_KIND)


def test_service_recomputes_a_non_finite_memo_entry(tmp_path):
    predict = Scenario(model=MODEL, optimizations=["amp"])
    store = SweepStore(str(tmp_path / "store"))
    plant_entry(store, predict,
                {"baseline_us": math.nan, "predicted_us": math.inf})
    answer = PredictService(store=store).predict(predict.to_dict())
    assert answer["cached"] is False
    assert all(math.isfinite(v) for v in answer["values"].values())
