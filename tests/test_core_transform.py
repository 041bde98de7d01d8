"""Tests for the graph-transformation primitives."""

import pytest

from repro.common.errors import GraphConsistencyError
from repro.core import transform
from repro.core.construction import build_graph
from repro.core.graph import DependencyGraph
from repro.core.simulate import simulate
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread


@pytest.fixture
def tiny_graph(tiny_trace):
    return build_graph(tiny_trace)


class TestSelect:
    def test_select_gpu_tasks(self, tiny_graph):
        gpu = transform.select_gpu_tasks(tiny_graph)
        assert gpu
        assert all(t.is_gpu for t in gpu)

    def test_select_by_name(self, tiny_graph):
        gemm = transform.select_by_name(tiny_graph, "sgemm", "scudnn")
        assert gemm
        assert all("sgemm" in t.name or "scudnn" in t.name for t in gemm)

    def test_select_by_layer(self, tiny_graph):
        conv1 = transform.select_by_layer(tiny_graph, lambda l: l == "conv1")
        assert conv1
        assert all(t.layer == "conv1" for t in conv1)

    def test_select_by_layer_with_phase(self, tiny_graph):
        fwd = transform.select_by_layer(tiny_graph, lambda l: l == "conv1",
                                        phase="forward")
        assert fwd
        assert all(t.phase == "forward" for t in fwd)

    def test_select_by_phase(self, tiny_graph):
        wu = transform.select_by_phase(tiny_graph, "weight_update")
        assert wu
        assert all(t.phase == "weight_update" for t in wu)


class TestScaleShrink:
    def test_scale(self, tiny_graph):
        tasks = transform.select_gpu_tasks(tiny_graph)
        before = transform.total_duration(tasks)
        count = transform.scale_durations(tasks, 0.5)
        assert count == len(tasks)
        assert transform.total_duration(tasks) == pytest.approx(before / 2)

    def test_shrink(self, tiny_graph):
        tasks = transform.select_gpu_tasks(tiny_graph)
        before = transform.total_duration(tasks)
        transform.shrink_durations(tasks, 4.0)
        assert transform.total_duration(tasks) == pytest.approx(before / 4)

    def test_shrink_rejects_nonpositive(self, tiny_graph):
        with pytest.raises(GraphConsistencyError):
            transform.shrink_durations([], 0.0)

    def test_shrinking_gpu_tasks_reduces_makespan(self, tiny_graph):
        baseline = simulate(tiny_graph).makespan_us
        working = tiny_graph.copy()
        transform.shrink_durations(transform.select_gpu_tasks(working), 2.0)
        assert simulate(working).makespan_us < baseline


class TestRemoveGpuTask:
    def test_removes_kernel_and_launch(self, tiny_graph):
        gpu = transform.select_gpu_tasks(tiny_graph)
        victim = next(t for t in gpu if t.phase == "weight_update")
        launch = victim.metadata["launched_by"]
        n = len(tiny_graph)
        transform.remove_gpu_task(tiny_graph, victim)
        assert len(tiny_graph) == n - 2
        assert victim not in tiny_graph
        assert launch not in tiny_graph

    def test_keep_launch_option(self, tiny_graph):
        victim = transform.select_gpu_tasks(tiny_graph)[0]
        launch = victim.metadata["launched_by"]
        transform.remove_gpu_task(tiny_graph, victim, remove_launch=False)
        assert launch in tiny_graph

    def test_rejects_cpu_task(self, tiny_graph):
        cpu = next(t for t in tiny_graph.tasks() if t.is_cpu)
        with pytest.raises(GraphConsistencyError):
            transform.remove_gpu_task(tiny_graph, cpu)

    def test_removal_reduces_makespan(self, tiny_graph):
        baseline = simulate(tiny_graph).makespan_us
        working = tiny_graph.copy()
        wu = [t for t in transform.select_by_phase(working, "weight_update")
              if t.is_gpu]
        for task in wu[:-1]:
            transform.remove_gpu_task(working, task)
        assert simulate(working).makespan_us < baseline

    def test_bulk_removal_matches_one_by_one(self, tiny_graph):
        one_by_one = tiny_graph.copy()
        wu = [t for t in transform.select_by_phase(one_by_one,
                                                   "weight_update")
              if t.is_gpu]
        for task in wu[:-1]:
            transform.remove_gpu_task(one_by_one, task)
        bulk = tiny_graph.copy()
        wu = [t for t in transform.select_by_phase(bulk, "weight_update")
              if t.is_gpu]
        transform.remove_gpu_tasks(bulk, wu[:-1])
        bulk.validate()
        assert [t.name for t in bulk.tasks()] == \
            [t.name for t in one_by_one.tasks()]
        assert simulate(bulk).makespan_us == simulate(one_by_one).makespan_us

    def test_bulk_removal_rejects_a_cpu_task_before_removing(self,
                                                            tiny_graph):
        gpu = transform.select_gpu_tasks(tiny_graph)[:3]
        cpu = next(t for t in tiny_graph.tasks() if t.is_cpu)
        n = len(tiny_graph)
        with pytest.raises(GraphConsistencyError, match="not a GPU task"):
            transform.remove_gpu_tasks(tiny_graph, gpu + [cpu])
        assert len(tiny_graph) == n


class TestInsertGpuTask:
    def test_inserts_kernel_with_launch(self, tiny_graph):
        anchor_gpu = transform.select_gpu_tasks(tiny_graph)[0]
        anchor_cpu = anchor_gpu.metadata["launched_by"]
        n = len(tiny_graph)
        new = transform.insert_gpu_task(
            tiny_graph, cpu_anchor=anchor_cpu, gpu_anchor=anchor_gpu,
            kernel_name="extra_kernel", duration_us=42.0)
        assert len(tiny_graph) == n + 2
        assert new.thread == anchor_gpu.thread
        assert tiny_graph.thread_successor(anchor_gpu) is new
        launch = new.metadata["launched_by"]
        assert new in tiny_graph.successors(launch)
        tiny_graph.validate()

    def test_insertion_increases_makespan(self, tiny_graph):
        baseline = simulate(tiny_graph).makespan_us
        anchor_gpu = transform.select_gpu_tasks(tiny_graph)[0]
        anchor_cpu = anchor_gpu.metadata["launched_by"]
        transform.insert_gpu_task(
            tiny_graph, cpu_anchor=anchor_cpu, gpu_anchor=anchor_gpu,
            kernel_name="overhead", duration_us=10_000.0)
        assert simulate(tiny_graph).makespan_us > baseline

    def test_append_to_stream_when_no_anchor(self, tiny_graph):
        anchor_cpu = next(t for t in tiny_graph.tasks() if t.is_cpu)
        new = transform.insert_gpu_task(
            tiny_graph, cpu_anchor=anchor_cpu, gpu_anchor=None,
            kernel_name="tail_kernel", duration_us=5.0)
        stream_tasks = tiny_graph.tasks_on(new.thread)
        assert stream_tasks[-1] is new


class TestInsertCommTask:
    def test_insert_with_dependencies(self, tiny_graph):
        bwd_gpu = [t for t in transform.select_by_phase(tiny_graph, "backward")
                   if t.is_gpu]
        wu_cpu = transform.select_by_phase(tiny_graph, "weight_update")[0]
        comm = transform.insert_comm_task(
            tiny_graph, comm_channel(0), "allreduce", duration_us=100.0,
            depends_on=[bwd_gpu[-1]], successors=[wu_cpu], size_bytes=1e6)
        assert comm.is_comm
        assert comm in tiny_graph.successors(bwd_gpu[-1])
        assert wu_cpu in tiny_graph.successors(comm)
        tiny_graph.validate()

    def test_channel_ordering_by_insertion(self):
        g = DependencyGraph()
        first = transform.insert_comm_task(g, comm_channel(0), "a", 10.0)
        second = transform.insert_comm_task(g, comm_channel(0), "b", 10.0)
        res = simulate(g)
        assert res.start_us[second] >= res.end_us(first)


class TestUtilities:
    def test_total_duration(self):
        tasks = [Task(name="t", kind=TaskKind.CPU, thread=cpu_thread(0),
                      duration=float(i)) for i in range(4)]
        assert transform.total_duration(tasks) == 6.0

    def test_first_in_thread_order(self, tiny_graph):
        wu = transform.select_by_phase(tiny_graph, "weight_update")
        cpu_wu = [t for t in wu if t.is_cpu]
        first = transform.first_in_thread_order(tiny_graph, cpu_wu)
        order = tiny_graph.tasks_on(first.thread)
        assert order.index(first) == min(order.index(t) for t in cpu_wu)

    def test_first_in_thread_order_rejects_empty(self, tiny_graph):
        with pytest.raises(GraphConsistencyError):
            transform.first_in_thread_order(tiny_graph, [])
