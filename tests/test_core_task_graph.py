"""Tests for repro.core.task and repro.core.graph."""

import pytest

from repro.common.errors import ConfigError, GraphConsistencyError
from repro.core.graph import DependencyGraph
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name="t", kind=TaskKind.CPU, thread=None, duration=1.0, **kw):
    return Task(name=name, kind=kind, thread=thread or cpu_thread(0),
                duration=duration, **kw)


class TestTask:
    def test_identity_semantics(self):
        a = make_task()
        b = make_task()
        assert a != b
        assert len({a, b}) == 2

    def test_rejects_negative_duration(self):
        with pytest.raises(ConfigError):
            make_task(duration=-1.0)

    def test_rejects_negative_gap(self):
        with pytest.raises(ConfigError):
            make_task(gap=-1.0)

    @pytest.mark.parametrize("field", ["duration", "gap"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_duration_and_gap(self, field, value):
        # NaN used to slip past a ``< 0`` check and drop out of the
        # makespan: a CPU chain [nan, 2.0] simulated to 2.0
        with pytest.raises(ConfigError, match="finite"):
            make_task(**{field: value})

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scale_duration_rejects_non_finite_factor(self, factor):
        t = make_task(duration=10.0)
        with pytest.raises(ConfigError, match="finite"):
            t.scale_duration(factor)
        assert t.duration == 10.0

    def test_kind_helpers(self):
        assert make_task(kind=TaskKind.GPU_KERNEL, thread=gpu_stream(0)).is_gpu
        assert make_task(kind=TaskKind.MEMCPY, thread=gpu_stream(0)).is_gpu
        assert make_task(kind=TaskKind.CPU).is_cpu
        assert make_task(kind=TaskKind.DATALOAD).is_cpu
        assert make_task(kind=TaskKind.COMM, thread=comm_channel(0)).is_comm

    def test_scale_duration(self):
        t = make_task(duration=10.0)
        t.scale_duration(0.5)
        assert t.duration == 5.0
        with pytest.raises(ConfigError):
            t.scale_duration(-1.0)


class TestGraphMutation:
    def test_append_and_len(self):
        g = DependencyGraph()
        g.append(make_task("a"))
        g.append(make_task("b"))
        assert len(g) == 2

    def test_double_append_rejected(self):
        g = DependencyGraph()
        t = g.append(make_task())
        with pytest.raises(GraphConsistencyError):
            g.append(t)

    def test_insert_after_orders_correctly(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        c = g.append(make_task("c"))
        b = g.insert_after(a, make_task("b"))
        assert [t.name for t in g.tasks_on(cpu_thread(0))] == ["a", "b", "c"]
        assert g.thread_successor(a) is b
        assert g.thread_predecessor(c) is b

    def test_insert_before(self):
        g = DependencyGraph()
        b = g.append(make_task("b"))
        a = g.insert_before(b, make_task("a"))
        assert [t.name for t in g.tasks_on(cpu_thread(0))] == ["a", "b"]

    def test_insert_forces_anchor_thread(self):
        g = DependencyGraph()
        a = g.append(make_task("a", thread=gpu_stream(1),
                               kind=TaskKind.GPU_KERNEL))
        b = make_task("b", thread=cpu_thread(0))
        g.insert_after(a, b)
        assert b.thread == gpu_stream(1)

    def test_remove_heals_thread_order(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b"))
        c = g.append(make_task("c"))
        g.remove(b)
        assert g.thread_successor(a) is c

    def test_remove_rewires_explicit_edges(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b", thread=gpu_stream(0),
                               kind=TaskKind.GPU_KERNEL))
        c = g.append(make_task("c", thread=comm_channel(0),
                               kind=TaskKind.COMM))
        g.add_dependency(a, b)
        g.add_dependency(b, c)
        g.remove(b)
        assert c in g.successors(a)

    def test_remove_without_rewire(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b", thread=gpu_stream(0),
                               kind=TaskKind.GPU_KERNEL))
        c = g.append(make_task("c", thread=comm_channel(0),
                               kind=TaskKind.COMM))
        g.add_dependency(a, b)
        g.add_dependency(b, c)
        g.remove(b, rewire=False)
        assert c not in g.successors(a)

    def test_remove_unknown_rejected(self):
        g = DependencyGraph()
        with pytest.raises(GraphConsistencyError):
            g.remove(make_task())

    def test_self_dependency_rejected(self):
        g = DependencyGraph()
        t = g.append(make_task())
        with pytest.raises(GraphConsistencyError):
            g.add_dependency(t, t)

    def test_select(self):
        g = DependencyGraph()
        g.append(make_task("sgemm_1"))
        g.append(make_task("relu_1"))
        assert len(g.select(lambda t: "sgemm" in t.name)) == 1


class TestGraphValidation:
    def test_backward_edge_within_thread_rejected(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b"))
        g.add_dependency(b, a)
        with pytest.raises(GraphConsistencyError):
            g.validate()

    def test_cross_thread_cycle_detected(self):
        g = DependencyGraph()
        a = g.append(make_task("a", thread=cpu_thread(0)))
        b = g.append(make_task("b", thread=gpu_stream(0),
                               kind=TaskKind.GPU_KERNEL))
        g.add_dependency(a, b)
        g.add_dependency(b, a)
        with pytest.raises(GraphConsistencyError):
            g.validate()

    def test_valid_graph_passes(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b", thread=gpu_stream(0),
                               kind=TaskKind.GPU_KERNEL))
        g.add_dependency(a, b)
        g.validate()

    def test_unordered_thread_allows_any_edge_direction(self):
        g = DependencyGraph()
        ch = comm_channel(0)
        g.mark_unordered(ch)
        a = g.append(make_task("a", thread=ch, kind=TaskKind.COMM))
        b = g.append(make_task("b", thread=ch, kind=TaskKind.COMM))
        g.add_dependency(b, a)  # against insertion order: fine when unordered
        g.validate()


class TestGraphCopy:
    def test_copy_is_deep(self):
        g = DependencyGraph()
        a = g.append(make_task("a", duration=5.0))
        clone = g.copy()
        clone.tasks()[0].duration = 99.0
        assert a.duration == 5.0

    def test_copy_preserves_edges(self):
        g = DependencyGraph()
        a = g.append(make_task("a"))
        b = g.append(make_task("b", thread=gpu_stream(0),
                               kind=TaskKind.GPU_KERNEL))
        g.add_dependency(a, b)
        clone = g.copy()
        ca, cb = clone.tasks_on(cpu_thread(0))[0], clone.tasks_on(gpu_stream(0))[0]
        assert cb in clone.successors(ca)

    def test_copy_remaps_task_valued_metadata(self):
        g = DependencyGraph()
        a = g.append(make_task("launch"))
        b = g.append(make_task("kernel", thread=gpu_stream(0),
                               kind=TaskKind.GPU_KERNEL))
        a.metadata["launches"] = b
        b.metadata["launched_by"] = a
        clone = g.copy()
        ca = clone.tasks_on(cpu_thread(0))[0]
        cb = clone.tasks_on(gpu_stream(0))[0]
        assert ca.metadata["launches"] is cb
        assert cb.metadata["launched_by"] is ca

    def test_copy_preserves_unordered_marks(self):
        g = DependencyGraph()
        g.mark_unordered(comm_channel(0))
        g.append(make_task("c", thread=comm_channel(0), kind=TaskKind.COMM))
        assert not g.copy().is_ordered(comm_channel(0))
