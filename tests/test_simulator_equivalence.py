"""Property tests: the simulation engines match a naive reference.

The array engine behind :func:`repro.core.simulate.simulate` (and the
retained frontier-scan engine for legacy callables) must be
*behavior-identical* to Algorithm 1's frontier-scan formulation — same
``start_us`` for every task, same makespan — including on graphs with
unordered communication channels (where dispatch order matters) and under
P3's priority policy.
The reference implementation here is written independently against the
public graph API, scanning the whole frontier every dispatch.
"""

from hypothesis import given, settings, strategies as st

from repro.core.graph import DependencyGraph
from repro.core.simulate import (
    PrioritySchedulePolicy,
    earliest_start_scheduler,
    make_priority_scheduler,
    simulate,
)
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name, thread, duration, gap=0.0, kind=TaskKind.CPU, priority=0):
    return Task(name=name, kind=kind, thread=thread, duration=duration,
                gap=gap, priority=priority)


def naive_simulate(graph, key=None):
    """Frontier-scan Algorithm 1, written independently of the package.

    ``key(task)`` is the secondary sort key after feasible start (0 for
    the default schedule); ties beyond that break on the task's stable
    ordinal — its thread-major position (threads sorted, tasks in thread
    order) — matching the engines' allocation-independent tie-break.
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
    return start_us, makespan


@st.composite
def random_graph(draw):
    """Random DAG: ordered CPU+GPU threads, an unordered comm channel."""
    g = DependencyGraph()
    n_cpu = draw(st.integers(min_value=1, max_value=8))
    n_gpu = draw(st.integers(min_value=0, max_value=8))
    n_comm = draw(st.integers(min_value=0, max_value=6))
    dur = st.floats(min_value=0.0, max_value=10.0)
    gap = st.floats(min_value=0.0, max_value=3.0)
    cpu = [g.append(make_task(f"c{i}", cpu_thread(0), draw(dur), draw(gap)))
           for i in range(n_cpu)]
    gpu = [g.append(make_task(f"g{i}", gpu_stream(0), draw(dur),
                              kind=TaskKind.GPU_KERNEL))
           for i in range(n_gpu)]
    # launch/sync-like cross edges, forward-only for acyclicity
    last_launch = 0
    for j in range(n_gpu):
        i = draw(st.integers(min_value=last_launch, max_value=n_cpu - 1))
        last_launch = i
        g.add_dependency(cpu[i], gpu[j])
        if draw(st.booleans()) and last_launch + 1 < n_cpu:
            k = draw(st.integers(min_value=last_launch + 1,
                                 max_value=n_cpu - 1))
            g.add_dependency(gpu[j], cpu[k])
    if n_comm:
        channel = comm_channel(0)
        g.mark_unordered(channel)
        for i in range(n_comm):
            task = g.append(make_task(
                f"m{i}", channel, draw(dur), kind=TaskKind.COMM,
                priority=draw(st.integers(min_value=0, max_value=5))))
            # gate some transfers on compute finishing (like push-after-bwd)
            if gpu and draw(st.booleans()):
                g.add_dependency(gpu[draw(st.integers(
                    min_value=0, max_value=n_gpu - 1))], task)
            elif draw(st.booleans()):
                g.add_dependency(cpu[draw(st.integers(
                    min_value=0, max_value=n_cpu - 1))], task)
    return g


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_event_driven_matches_reference_default_schedule(g):
    g.validate()
    result = simulate(g)
    ref_start, ref_makespan = naive_simulate(g)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_event_driven_matches_reference_priority_schedule(g):
    def prioritized(task):
        return task.is_comm

    result = simulate(g, make_priority_scheduler(prioritized))
    ref_start, ref_makespan = naive_simulate(
        g, key=lambda t: -float(t.priority) if prioritized(t) else 0.0)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_heap_engine_matches_legacy_callable_paths(g):
    """The retained legacy frontier engine agrees with the heap engine."""
    assert (simulate(g).start_us
            == simulate(g, earliest_start_scheduler).start_us)
    policy = PrioritySchedulePolicy(lambda t: t.is_comm)
    assert (simulate(g, policy).start_us
            == simulate(g, policy.__call__).start_us)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_simulation_leaves_no_scratch_state(g):
    simulate(g)
    simulate(g, earliest_start_scheduler)
    for task in g.tasks():
        assert "_ready_us" not in task.metadata


# ---------------------------------------------------------------------------
# compiled array engine, lowered explicitly
# ---------------------------------------------------------------------------


def _assert_same_result(compiled_result, reference_result):
    assert compiled_result.makespan_us == reference_result.makespan_us
    assert compiled_result.start_us == reference_result.start_us
    assert compiled_result.thread_busy == reference_result.thread_busy


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_array_engine_matches_reference_default_schedule(g):
    from repro.core.compiled import CompiledGraph

    result = CompiledGraph.build(g).run()
    ref_start, ref_makespan = naive_simulate(g)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_array_engine_matches_reference_priority_schedule(g):
    from repro.core.compiled import CompiledGraph

    policy = make_priority_scheduler(lambda t: t.is_comm)
    result = CompiledGraph.build(g).run(policy)
    ref_start, ref_makespan = naive_simulate(
        g, key=lambda t: -float(t.priority) if t.is_comm else 0.0)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_array_engine_matches_object_engine_bitwise(g):
    """Full-result identity with the object-graph reference engine (the
    frontier scan behind legacy callables): starts, makespan, busy
    intervals."""
    from repro.core.compiled import CompiledGraph

    object_result = simulate(g, earliest_start_scheduler)
    _assert_same_result(CompiledGraph.build(g).run(), object_result)


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_array_engine_no_numpy_fallback(g):
    """The array('d')/array('q') column fallback is bit-identical."""
    import array
    import repro.core.compiled as compiled_mod

    object_result = simulate(g)
    saved_np = compiled_mod._np
    compiled_mod._np = None
    try:
        compiled = compiled_mod.CompiledGraph.build(g)
        assert isinstance(compiled.duration, array.array)
        assert isinstance(compiled.succ_indptr, array.array)
        assert isinstance(compiled.pred_indptr, array.array)
        _assert_same_result(compiled.run(), object_result)
    finally:
        compiled_mod._np = saved_np
