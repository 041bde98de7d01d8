"""The what-if query path stays quiet for the garbage collector.

A profiled bert_large session holds ~131k tracked objects, so every
collection a query triggers is expensive and a full one costs tens of
milliseconds.  A warm query must therefore allocate almost no tracked
containers: the engine keeps no per-task interval tuples, the lowering
and its splice keep successors in one flat CSR instead of a list per
task, and a ``SimulationResult`` exposes ``start_us``/``thread_busy`` as
lazy views over the run's columns instead of dicts built per run.

The views must still read exactly like the eager dicts they replace —
same items, same order, equal both ways — also after the transaction
that produced them has rolled back.
"""

import gc

import pytest

from helpers import naive_simulate
from repro.analysis.session import WhatIfSession
from repro.core.simulate import simulate
from repro.framework.config import TrainingConfig
from repro.framework.engine import Engine
from repro.hw.device import GPU_2080TI
from repro.hw.network import NetworkSpec
from repro.hw.topology import ClusterSpec
from repro.models.registry import build_model
from repro.optimizations import AutomaticMixedPrecision, DistributedTraining

#: one query per simulate path: AMP patches the base lowering's columns,
#: DDP splices a new all-reduce channel into it
QUERIES = {
    "amp": (AutomaticMixedPrecision, None),
    "ddp": (DistributedTraining,
            ClusterSpec(4, 2, GPU_2080TI, NetworkSpec(bandwidth_gbps=10))),
}


@pytest.fixture(scope="module")
def session():
    trace = Engine(model=build_model("bert_large"),
                   config=TrainingConfig()).run_iteration()
    session = WhatIfSession.from_trace(trace)
    session.baseline_result  # noqa: B018  (graph + base lowering)
    return session


def _collections(fn):
    """``fn()`` run from an empty young generation; returns the number of
    collections it fired per generation."""
    fired = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            fired[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        fn()
    finally:
        gc.callbacks.remove(count)
    return fired


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_warm_query_fires_at_most_one_young_collection(session, kind):
    if not gc.isenabled():
        pytest.skip("the collector is disabled")
    model, cluster = QUERIES[kind]

    def query():
        return session.predict(model(), cluster=cluster)

    query()  # warm: first-use caches are not the query path
    young, middle, full = _collections(query)
    assert young <= 1 and middle == 0 and full == 0, \
        f"a warm {kind} query fired {young}/{middle}/{full} collections " \
        "(gen 0/1/2)"


def _assert_views_read_like(result, eager_starts, eager_busy):
    for view, eager in ((result.start_us, eager_starts),
                        (result.thread_busy, eager_busy)):
        assert len(view) == len(eager)
        assert list(view.items()) == list(eager.items())
        assert view == eager and eager == view
        assert not (view != eager or eager != view)
        assert all(key in view for key in eager)


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_result_views_equal_eager_dicts_after_rollback(session, kind):
    model, cluster = QUERIES[kind]
    with session.graph.overlay() as working:
        outcome = model().apply(working, session.context(cluster))
        result = simulate(outcome.graph, outcome.scheduler)
        starts, _, busy = naive_simulate(working)
        # the eager dicts in the order the result used to build them:
        # tasks thread-major, threads sorted, empty threads included
        eager_starts = {task: starts[task] for thread in working.threads()
                        for task in working.tasks_on(thread)}
        assert list(busy) == working.threads()
        _assert_views_read_like(result, eager_starts, busy)
        durations = {task: task.duration for task in eager_starts}
    # the rollback dropped DDP's channel and restored AMP's durations;
    # the views still read the run's own columns
    assert len(session.graph) < len(durations) or any(
        task.duration != durations[task] for task in session.graph.tasks())
    _assert_views_read_like(result, eager_starts, busy)
