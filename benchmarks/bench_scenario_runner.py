"""Scenario-layer benchmark: the declarative path must not tax the analysis.

Every experiment and CLI command now flows through the
:class:`~repro.scenarios.runner.ScenarioRunner`; this driver pins two
properties of that refactor:

* **identity** — a scenario prediction is bit-identical to hand-wiring the
  session/optimization objects (the pipeline is pure plumbing);
* **overhead** — resolving registry entries, validating the pipeline and
  dispatching through the runner costs a negligible fraction of one
  prediction (the simulate call dominates).
"""

import json
import os
import shutil
import tempfile
import time

from conftest import run_once
from repro.analysis.session import WhatIfSession
from repro.optimizations import AutomaticMixedPrecision
from repro.scenarios import Scenario, ScenarioGrid, ScenarioRunner, SweepStore

#: quick mode (CI smoke): a reduced grid, and only a >1x warm-cache gate
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: quick runs must not clobber the committed full-mode record
BENCH_SWEEP_JSON = os.path.join(
    os.path.dirname(__file__), os.pardir,
    "BENCH_sweep_quick.json" if QUICK else "BENCH_sweep.json")


def test_scenario_runner_identity_and_overhead(benchmark):
    def run():
        runner = ScenarioRunner()
        base = Scenario(model="resnet50", optimizations=["amp"])
        outcome = runner.run(base)

        session = WhatIfSession.from_model(outcome.model,
                                           config=outcome.config)
        legacy = session.predict(AutomaticMixedPrecision())

        # declarative dispatch overhead, isolated from session profiling:
        # re-run the already-cached scenario vs a direct predict
        t0 = time.perf_counter()
        for _ in range(5):
            runner.run(base)
        declarative_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            session.predict(AutomaticMixedPrecision())
        direct_s = time.perf_counter() - t0
        return outcome, legacy, declarative_s, direct_s

    outcome, legacy, declarative_s, direct_s = run_once(benchmark, run)
    assert outcome.baseline_us == legacy.baseline_us
    assert outcome.predicted_us == legacy.predicted_us
    # plumbing, not a second analysis pass: well under 2x a direct predict
    assert declarative_s < direct_s * 2.0, (declarative_s, direct_s)


def test_scenario_grid_matches_serial(benchmark):
    """Pool-parallel grids return exactly the serial predictions."""
    def run():
        base = Scenario(model="resnet50",
                        optimizations=["distributed_training"])
        scenarios = [base.with_cluster(machines, gpus, bandwidth_gbps=bw)
                     for bw in (10.0, 25.0)
                     for machines, gpus in ((2, 1), (4, 1), (4, 2))]
        parallel = ScenarioRunner().run_grid(scenarios)
        serial = [ScenarioRunner().run(s) for s in scenarios]
        return parallel, serial

    parallel, serial = run_once(benchmark, run)
    assert [o.predicted_us for o in parallel] == \
        [o.predicted_us for o in serial]


def test_spawn_sweep_rows_match_serial(benchmark):
    """Portability smoke: the spawn start method is a drop-in substrate.

    Runs a reduced grid on the batch executor under the spawn context
    (fresh worker interpreters rebuilding state from the WorkerManifest)
    and requires the rows to be bit-identical to a serial run, plus a
    warm store re-run to serve every cell.  CI runs this in the
    bench-sweep job so the macOS/Windows execution path cannot rot on
    Linux-only development.
    """
    base = Scenario(model="resnet50",
                    optimizations=["distributed_training"]).with_cluster(
                        2, 1, bandwidth_gbps=10.0)
    scenarios = ScenarioGrid(base=base, axes={
        "cluster.bandwidth_gbps": [10.0, 20.0],
        "cluster.machines": [2, 4],
    }).expand()
    tmp = tempfile.mkdtemp(prefix="bench-spawn-")
    try:
        def run():
            store = SweepStore(os.path.join(tmp, "store"))
            spawned = ScenarioRunner().run_grid(scenarios, parallel=2,
                                                store=store,
                                                start_method="spawn")
            warm = ScenarioRunner().run_grid(scenarios, store=store)
            runner = ScenarioRunner()
            serial = [runner.run(s) for s in scenarios]
            return spawned, warm, serial

        spawned, warm, serial = run_once(benchmark, run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    serial_rows = [o.as_row() for o in serial]
    assert [o.as_row() for o in spawned] == serial_rows
    assert [o.as_row() for o in warm] == serial_rows
    assert all(not o.cached for o in spawned)
    assert all(o.cached for o in warm)


def _sweep_grid() -> ScenarioGrid:
    """The pinned fig8-style grid the cold/warm sweep numbers refer to."""
    base = Scenario(model="resnet50",
                    optimizations=["distributed_training"]).with_cluster(
                        2, 1, bandwidth_gbps=10.0)
    axes = {
        "model": ["resnet50"] if QUICK else ["resnet50", "gnmt"],
        "cluster.bandwidth_gbps": [10.0, 20.0] if QUICK
        else [10.0, 20.0, 40.0],
        "cluster.gpus_per_machine": [1] if QUICK else [1, 2],
        "cluster.machines": [2, 4],
    }
    return ScenarioGrid(base=base, axes=axes)


def test_sweep_store_cold_vs_warm(benchmark):
    """Cold vs warm wall-clock of the store-backed batch executor.

    Cold profiles every workload and simulates every cell through the
    process pool; warm serves every cell from the store.  Rows must be
    bit-identical across the serial, pool and cached paths, and the warm
    re-run must be the promised multiple faster (≥5x full mode, >1x in
    the reduced CI smoke grid).
    """
    scenarios = _sweep_grid().expand()
    tmp = tempfile.mkdtemp(prefix="bench-sweep-")
    try:
        def run():
            store = SweepStore(os.path.join(tmp, "store"))
            t0 = time.perf_counter()
            cold = ScenarioRunner().run_grid(scenarios, parallel=4,
                                             store=store)
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = ScenarioRunner().run_grid(scenarios, parallel=4,
                                             store=store)
            warm_s = time.perf_counter() - t0
            runner = ScenarioRunner()
            serial = [runner.run(s) for s in scenarios]
            return cold, warm, serial, cold_s, warm_s

        cold, warm, serial, cold_s, warm_s = run_once(benchmark, run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    serial_rows = [o.as_row() for o in serial]
    assert [o.as_row() for o in cold] == serial_rows
    assert [o.as_row() for o in warm] == serial_rows
    assert all(not o.cached for o in cold)
    assert all(o.cached for o in warm)

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    payload = {
        "grid": "fig8-style: model x bandwidth x (machines x gpus), "
                "distributed_training stack",
        "mode": "quick" if QUICK else "full",
        "cells": len(scenarios),
        "jobs": 4,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(speedup, 1),
        "protocol": "single cold run (profile+simulate, pool of 4) vs "
                    "warm store re-run of the identical grid",
    }
    with open(BENCH_SWEEP_JSON, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    assert speedup > (1.0 if QUICK else 5.0), payload
