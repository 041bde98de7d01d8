"""Tests for the Algorithm-1 simulator, including hypothesis properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.core.graph import DependencyGraph
from repro.core.simulate import (
    SchedulePolicy,
    make_priority_scheduler,
    simulate,
)
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name="t", thread=None, duration=1.0, gap=0.0,
              kind=TaskKind.CPU, priority=0):
    return Task(name=name, kind=kind, thread=thread or cpu_thread(0),
                duration=duration, gap=gap, priority=priority)


class TestSequentialSemantics:
    def test_single_thread_serializes(self):
        g = DependencyGraph()
        a = g.append(make_task("a", duration=3.0))
        b = g.append(make_task("b", duration=2.0))
        res = simulate(g)
        assert res.start_us[a] == 0.0
        assert res.start_us[b] == 3.0
        assert res.makespan_us == 5.0

    def test_gap_delays_successor_but_not_makespan(self):
        g = DependencyGraph()
        a = g.append(make_task("a", duration=3.0, gap=4.0))
        b = g.append(make_task("b", duration=2.0))
        res = simulate(g)
        assert res.start_us[b] == 7.0
        assert res.makespan_us == 9.0

    def test_trailing_gap_excluded_from_makespan(self):
        g = DependencyGraph()
        g.append(make_task("a", duration=3.0, gap=100.0))
        assert simulate(g).makespan_us == 3.0

    def test_independent_threads_overlap(self):
        g = DependencyGraph()
        g.append(make_task("cpu", duration=5.0))
        g.append(make_task("gpu", thread=gpu_stream(0), duration=5.0,
                           kind=TaskKind.GPU_KERNEL))
        assert simulate(g).makespan_us == 5.0


class TestDependencies:
    def test_cross_thread_dependency_respected(self):
        g = DependencyGraph()
        launch = g.append(make_task("launch", duration=2.0))
        kernel = g.append(make_task("kernel", thread=gpu_stream(0),
                                    duration=3.0, kind=TaskKind.GPU_KERNEL))
        g.add_dependency(launch, kernel)
        res = simulate(g)
        assert res.start_us[kernel] == 2.0
        assert res.makespan_us == 5.0

    def test_sync_pattern(self):
        """CPU -> GPU -> CPU (sync) reproduces a blocking wait."""
        g = DependencyGraph()
        launch = g.append(make_task("launch", duration=1.0))
        sync = g.append(make_task("sync", duration=1.0))
        kernel = g.append(make_task("kernel", thread=gpu_stream(0),
                                    duration=10.0, kind=TaskKind.GPU_KERNEL))
        g.add_dependency(launch, kernel)
        g.add_dependency(kernel, sync)
        res = simulate(g)
        assert res.start_us[sync] == 11.0
        assert res.makespan_us == 12.0

    @pytest.mark.parametrize("unordered, scheduler", [
        (False, None),
        (True, None),
        (True, make_priority_scheduler(lambda t: t.is_comm)),
    ], ids=["ordered-cross-thread", "unordered-channel",
            "unordered-channel-priority"])
    def test_deadlock_detected(self, unordered, scheduler):
        """A cycle deadlocks the worklist and per-thread dispatch, with and
        without a policy."""
        g = DependencyGraph()
        if unordered:
            channel = comm_channel(0)
            g.mark_unordered(channel)
            a = g.append(make_task("a", thread=channel, kind=TaskKind.COMM))
            b = g.append(make_task("b", thread=channel, kind=TaskKind.COMM))
        else:
            a = g.append(make_task("a", thread=cpu_thread(0)))
            b = g.append(make_task("b", thread=gpu_stream(0),
                                   kind=TaskKind.GPU_KERNEL))
        g.add_dependency(a, b)
        g.add_dependency(b, a)
        with pytest.raises(SimulationError, match="deadlock"):
            simulate(g, scheduler)

    @pytest.mark.parametrize("scheduler", [
        None, make_priority_scheduler(lambda t: t.is_comm),
    ], ids=["default", "priority"])
    def test_partial_deadlock_counts_executed_tasks(self, scheduler):
        """An ordered CPU chain feeds a two-task cycle on an unordered
        channel: the chain and a free channel task run, then the cycle
        blocks, and the message counts exactly the tasks that ran."""
        g = DependencyGraph()
        channel = comm_channel(0)
        g.mark_unordered(channel)
        chain = [g.append(make_task(f"c{i}")) for i in range(3)]
        a = g.append(make_task("a", thread=channel, kind=TaskKind.COMM))
        b = g.append(make_task("b", thread=channel, kind=TaskKind.COMM))
        g.append(make_task("free", thread=channel, kind=TaskKind.COMM))
        g.add_dependency(chain[-1], a)
        g.add_dependency(a, b)
        g.add_dependency(b, a)
        with pytest.raises(SimulationError,
                           match=r"deadlock: executed 4 of 6 tasks"):
            simulate(g, scheduler)

    def test_empty_graph(self):
        assert simulate(DependencyGraph()).makespan_us == 0.0


class TestSchedulers:
    def test_bad_scheduler_rejected(self):
        """A plain callable is not a schedule policy on any entry point."""
        from helpers import make_tiny_model
        from repro.analysis.session import WhatIfSession
        from repro.core.compiled import CellDelta, compiled_for, simulate_many

        g = DependencyGraph()
        g.append(make_task("a"))

        def bad(frontier, progress):
            return frontier[0]

        match = "subclass .*SchedulePolicy and override key"
        with pytest.raises(TypeError, match=match):
            simulate(g, bad)
        with pytest.raises(TypeError, match=match):
            simulate_many(compiled_for(g), [CellDelta()], bad)
        session = WhatIfSession.from_model(make_tiny_model())
        with pytest.raises(TypeError, match=match):
            session.simulate_many([CellDelta()], bad)

    def test_priority_scheduler_orders_unordered_channel(self):
        g = DependencyGraph()
        ch = comm_channel(0)
        g.mark_unordered(ch)
        low = g.append(make_task("low", thread=ch, duration=5.0,
                                 kind=TaskKind.COMM, priority=1))
        high = g.append(make_task("high", thread=ch, duration=5.0,
                                  kind=TaskKind.COMM, priority=9))
        res = simulate(g, make_priority_scheduler(lambda t: t.is_comm))
        assert res.start_us[high] < res.start_us[low]

    @pytest.mark.parametrize("bad_key", [float("nan"), None, "high"],
                             ids=["nan", "none", "str"])
    def test_bad_policy_key_rejected(self, bad_key):
        """A key that is not an int or a float, or is NaN, would leave the
        dispatch order undefined; it is a TypeError naming the policy
        class and the offending task."""
        class OddKeys(SchedulePolicy):
            def key(self, task):
                return bad_key if task.name == "c2" else 1.0

        g = DependencyGraph()
        ch = comm_channel(0)
        g.mark_unordered(ch)
        for i in range(4):
            g.append(make_task(f"c{i}", thread=ch, kind=TaskKind.COMM))
        with pytest.raises(TypeError, match=r"OddKeys\.key .*task 'c2'"):
            simulate(g, OddKeys())

    def test_bool_and_int_policy_keys_accepted(self):
        class MixedKeys(SchedulePolicy):
            def key(self, task):
                return {"a": True, "b": 0, "c": -2.5}[task.name]

        g = DependencyGraph()
        ch = comm_channel(0)
        g.mark_unordered(ch)
        tasks = [g.append(make_task(name, thread=ch, kind=TaskKind.COMM))
                 for name in "abc"]
        res = simulate(g, MixedKeys())
        assert [res.start_us[t] for t in tasks] == [2.0, 1.0, 0.0]

    def test_default_scheduler_is_fifo_on_unordered_ties(self):
        g = DependencyGraph()
        ch = comm_channel(0)
        g.mark_unordered(ch)
        first = g.append(make_task("first", thread=ch, duration=5.0,
                                   kind=TaskKind.COMM))
        second = g.append(make_task("second", thread=ch, duration=5.0,
                                    kind=TaskKind.COMM))
        res = simulate(g)
        assert res.start_us[first] < res.start_us[second]

    def test_priority_does_not_preempt_earlier_feasible(self):
        g = DependencyGraph()
        ch = comm_channel(0)
        g.mark_unordered(ch)
        gate = g.append(make_task("gate", duration=10.0))
        ready_now = g.append(make_task("now", thread=ch, duration=5.0,
                                       kind=TaskKind.COMM, priority=0))
        later = g.append(make_task("later", thread=ch, duration=5.0,
                                   kind=TaskKind.COMM, priority=100))
        g.add_dependency(gate, later)
        res = simulate(g, make_priority_scheduler(lambda t: t.is_comm))
        assert res.start_us[ready_now] == 0.0


class TestSimulationResult:
    def test_thread_busy_intervals(self):
        g = DependencyGraph()
        g.append(make_task("a", duration=2.0))
        g.append(make_task("b", duration=3.0))
        res = simulate(g)
        assert res.thread_busy[cpu_thread(0)] == [(0.0, 2.0), (2.0, 5.0)]

    def test_critical_tasks_sorted_by_duration(self):
        g = DependencyGraph()
        g.append(make_task("short", duration=1.0))
        g.append(make_task("long", duration=9.0))
        top = simulate(g).critical_tasks(top=1)
        assert top[0].name == "long"


# --------------------------------------------------------------- properties

@st.composite
def random_graph(draw):
    """A random DAG over 2 ordered threads + cross edges (forward only)."""
    g = DependencyGraph()
    n_cpu = draw(st.integers(min_value=1, max_value=8))
    n_gpu = draw(st.integers(min_value=1, max_value=8))
    cpu_tasks = [g.append(make_task(f"c{i}", duration=draw(
        st.floats(min_value=0.0, max_value=10.0)), gap=draw(
        st.floats(min_value=0.0, max_value=3.0)))) for i in range(n_cpu)]
    gpu_tasks = [g.append(make_task(f"g{i}", thread=gpu_stream(0),
                                    kind=TaskKind.GPU_KERNEL, duration=draw(
        st.floats(min_value=0.0, max_value=10.0)))) for i in range(n_gpu)]
    # cross edges mimic launch/sync structure: launches in non-decreasing
    # CPU order (cpu[i] -> gpu[j]), syncs only to CPU tasks after every
    # launch issued so far (gpu[j] -> cpu[k]) — guarantees acyclicity
    last_launch = 0
    for j in range(n_gpu):
        i = draw(st.integers(min_value=last_launch, max_value=n_cpu - 1))
        last_launch = i
        g.add_dependency(cpu_tasks[i], gpu_tasks[j])
        if draw(st.booleans()) and last_launch + 1 < n_cpu:
            k = draw(st.integers(min_value=last_launch + 1,
                                 max_value=n_cpu - 1))
            g.add_dependency(gpu_tasks[j], cpu_tasks[k])
    return g


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_simulation_respects_all_dependencies(g):
    g.validate()
    res = simulate(g)
    for task in g.tasks():
        for child in g.successors(task):
            assert res.start_us[child] >= res.end_us(task) - 1e-9
        nxt = g.thread_successor(task)
        if nxt is not None:
            assert (res.start_us[nxt]
                    >= res.end_us(task) + task.gap - 1e-9)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_makespan_bounds(g):
    res = simulate(g)
    # lower bound: longest single task; upper bound: sum of everything
    longest = max((t.duration for t in g.tasks()), default=0.0)
    total = sum(t.duration + t.gap for t in g.tasks())
    assert longest - 1e-9 <= res.makespan_us <= total + 1e-9


@settings(max_examples=30, deadline=None)
@given(random_graph())
def test_simulation_deterministic(g):
    r1 = simulate(g)
    r2 = simulate(g)
    assert r1.makespan_us == r2.makespan_us
