"""Importable test helpers shared across the suite.

Test modules must import shared model builders (and the
:func:`naive_simulate` oracle) from here rather than from
``conftest``: a bare ``from conftest import ...`` resolves against whichever
conftest pytest put on ``sys.path`` first (historically this picked up
``benchmarks/conftest.py`` when running from the repo root, breaking
collection).
"""

import json

from repro.models.base import ModelSpec
from repro.models.blocks import (
    batchnorm_layer,
    conv_layer,
    linear_layer,
    loss_layer,
    relu_layer,
)
from repro.scenarios.store import (
    RESULT_SCHEMA_VERSION,
    _entry_checksum,
    store_salt,
)


def make_tiny_model(batch: int = 4, optimizer: str = "adam") -> ModelSpec:
    """A small but structurally complete CNN training workload."""
    layers = [
        conv_layer("conv1", batch, 3, 32, 32, 16, 3, 1, 1),
        batchnorm_layer("bn1", batch, 16, 32, 32),
        relu_layer("relu1", batch * 16 * 32 * 32),
        conv_layer("conv2", batch, 16, 32, 32, 32, 3, 2, 1),
        batchnorm_layer("bn2", batch, 32, 16, 16),
        relu_layer("relu2", batch * 32 * 16 * 16),
        linear_layer("fc", batch, 32 * 16 * 16, 10),
        loss_layer("loss", batch, 10),
    ]
    return ModelSpec(
        name="tinycnn",
        layers=layers,
        batch_size=batch,
        input_sample_bytes=3 * 32 * 32 * 4,
        default_optimizer=optimizer,
        application="testing",
    )


def naive_simulate(graph, key=None):
    """Frontier-scan Algorithm 1: the test-only oracle for the engine.

    Written independently of :mod:`repro.core.compiled` against the
    public graph API, scanning the whole frontier every dispatch
    (O(N * F)).  ``key(task)`` is the secondary sort key after feasible
    start (0 for the default schedule); ties beyond that break on the
    task's stable ordinal — its thread-major position (threads sorted,
    tasks in thread order) — matching the engine's allocation-independent
    tie-break.

    Returns ``(start_us, makespan_us, thread_busy)``: per-task starts, the
    end of the last task, and each thread's ``(start, end)`` busy
    intervals of positive-duration tasks in dispatch order.
    """
    key = key or (lambda task: 0.0)
    refs, ready, ordinal = {}, {}, {}
    for thread in graph.threads():
        tasks = graph.tasks_on(thread)
        ordered = graph.is_ordered(thread)
        for i, task in enumerate(tasks):
            ordinal[task] = len(ordinal)
            refs[task] = len(graph.predecessors(task)) + (
                1 if ordered and i > 0 else 0)
            ready[task] = 0.0
    frontier = [task for task in refs if refs[task] == 0]
    progress = {t: 0.0 for t in graph.threads()}
    busy = {t: [] for t in graph.threads()}
    start_us = {}
    while frontier:
        task = min(
            frontier,
            key=lambda t: (max(progress[t.thread], ready[t]),
                           key(t), ordinal[t]),
        )
        frontier.remove(task)
        start = max(progress[task.thread], ready[task])
        start_us[task] = start
        end = start + task.duration
        progress[task.thread] = end + task.gap
        if task.duration > 0:
            busy[task.thread].append((start, end))
        released = list(graph.successors(task))
        if graph.is_ordered(task.thread):
            nxt = graph.thread_successor(task)
            if nxt is not None:
                released.append(nxt)
        for child in released:
            ready[child] = max(ready[child], end)
            refs[child] -= 1
            if refs[child] == 0:
                frontier.append(child)
    assert len(start_us) == len(graph), "reference deadlocked"
    makespan = max((s + t.duration for t, s in start_us.items()), default=0.0)
    return start_us, makespan, busy


def plant_entry(store, scenario, values, kind="predict"):
    """Write a hand-made entry into ``store``'s local tier, laid out and
    checksummed as ``SweepStore.put`` would but without its value checks
    (how a test plants an entry ``put`` refuses to write)."""
    key = store.key(scenario, kind=kind)
    payload = {
        "format": RESULT_SCHEMA_VERSION,
        "key": key,
        "kind": kind,
        "salt": store_salt(store.registry),
        "scenario": scenario.to_dict(),
        "values": dict(values),
    }
    payload["checksum"] = _entry_checksum(payload)
    store.local.put(key, (json.dumps(payload, indent=1, sort_keys=True)
                          + "\n").encode("utf-8"))
    return key
