"""Property tests: the simulation engine matches a naive oracle.

The array engine behind :func:`repro.core.simulate.simulate` must be
*behavior-identical* to Algorithm 1's frontier-scan formulation — same
``start_us`` for every task, same makespan, same per-thread busy
intervals — including on graphs with unordered communication channels
(where dispatch order matters) and under P3's priority policy.
The oracle (:func:`helpers.naive_simulate`) is written independently
against the public graph API, scanning the whole frontier every dispatch.
"""

from hypothesis import given, settings, strategies as st

from helpers import naive_simulate
from repro.core.graph import DependencyGraph
from repro.core.simulate import (
    PrioritySchedulePolicy,
    make_priority_scheduler,
    simulate,
)
from repro.core.task import Task, TaskKind
from repro.tracing.records import comm_channel, cpu_thread, gpu_stream


def make_task(name, thread, duration, gap=0.0, kind=TaskKind.CPU, priority=0):
    return Task(name=name, kind=kind, thread=thread, duration=duration,
                gap=gap, priority=priority)


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


@st.composite
def wide_random_graph(draw):
    """Random DAG over many lanes: 1-3 CPU threads, 0-3 GPU streams and
    0-3 unordered channels, with frequent ties.

    Tasks are created one at a time on a drawn lane, and every explicit
    edge runs from an earlier task to a later one, so the graph (with the
    ordered threads' chains, which also follow creation order) is acyclic.
    Some ordered-thread tasks wait on channel tasks (the pull ->
    first-forward shape) and some channel tasks on compute (push after
    backward).  Durations, gaps and priorities come from small integer
    sets often enough that equal feasible starts and equal policy keys
    are common, which exercises every tie-break.
    """
    g = DependencyGraph()
    cpus = [cpu_thread(i) for i in range(draw(st.integers(1, 3)))]
    gpus = [gpu_stream(i) for i in range(draw(st.integers(0, 3)))]
    channels = [comm_channel(i) for i in range(draw(st.integers(0, 3)))]
    for channel in channels:
        g.mark_unordered(channel)
    ordered = cpus + gpus
    # most graphs draw every duration and gap from small integers
    small = st.sampled_from([0.0, 1.0, 2.0])
    if draw(st.integers(min_value=0, max_value=3)):
        dur, gap = small, st.sampled_from([0.0, 0.0, 0.0, 1.0])
    else:
        dur = st.one_of(small, st.floats(min_value=0.0, max_value=10.0))
        gap = st.one_of(st.just(0.0), small,
                        st.floats(min_value=0.0, max_value=3.0))
    tasks, comm, compute = [], [], []
    for i in range(draw(st.integers(min_value=1, max_value=40))):
        # half the tasks land on a channel when there is one
        if channels and draw(st.booleans()):
            lane, kind = draw(st.sampled_from(channels)), TaskKind.COMM
        else:
            lane = draw(st.sampled_from(ordered))
            kind = TaskKind.GPU_KERNEL if lane in gpus else TaskKind.CPU
        task = g.append(make_task(
            f"t{i}", lane, draw(dur), draw(gap), kind=kind,
            priority=draw(st.integers(min_value=0, max_value=3))))
        if kind == TaskKind.COMM:
            # a push waits on compute; a pull is free to start
            if compute and draw(st.booleans()):
                g.add_dependency(draw(st.sampled_from(compute)), task)
            comm.append(task)
        else:
            if tasks and draw(st.booleans()):
                g.add_dependency(draw(st.sampled_from(tasks)), task)
            # the pull -> first-forward shape
            if comm and draw(st.booleans()):
                g.add_dependency(draw(st.sampled_from(comm)), task)
            compute.append(task)
        tasks.append(task)
    return g


@settings(max_examples=150, deadline=None)
@given(wide_random_graph())
def test_wide_graph_matches_oracle_default_and_priority(g):
    """Per-thread dispatch over many ordered threads and unordered
    channels matches the oracle in full, with and without a policy."""
    g.validate()
    _assert_matches_oracle(simulate(g), naive_simulate(g))
    policy = PrioritySchedulePolicy(lambda t: t.is_comm)
    _assert_matches_oracle(simulate(g, policy),
                           naive_simulate(g, key=policy.key))


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_event_driven_matches_reference_default_schedule(g):
    g.validate()
    result = simulate(g)
    ref_start, ref_makespan, _ = naive_simulate(g)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_event_driven_matches_reference_priority_schedule(g):
    def prioritized(task):
        return task.is_comm

    result = simulate(g, make_priority_scheduler(prioritized))
    ref_start, ref_makespan, _ = naive_simulate(
        g, key=lambda t: -float(t.priority) if prioritized(t) else 0.0)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


def _assert_matches_oracle(result, oracle):
    start_us, makespan, busy = oracle
    assert result.makespan_us == makespan
    assert result.start_us == start_us
    assert result.thread_busy == busy


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_heap_engine_matches_legacy_callable_paths(g):
    """The ``simulate()`` entry point under the default and the priority
    policy matches the oracle in full: starts, makespan, busy intervals."""
    _assert_matches_oracle(simulate(g), naive_simulate(g))
    policy = PrioritySchedulePolicy(lambda t: t.is_comm)
    _assert_matches_oracle(simulate(g, policy),
                           naive_simulate(g, key=policy.key))


# ---------------------------------------------------------------------------
# compiled array engine, lowered explicitly
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_array_engine_matches_reference_default_schedule(g):
    from repro.core.compiled import CompiledGraph

    result = CompiledGraph.build(g).run()
    ref_start, ref_makespan, _ = naive_simulate(g)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=120, deadline=None)
@given(random_graph())
def test_array_engine_matches_reference_priority_schedule(g):
    from repro.core.compiled import CompiledGraph

    policy = make_priority_scheduler(lambda t: t.is_comm)
    result = CompiledGraph.build(g).run(policy)
    ref_start, ref_makespan, _ = naive_simulate(
        g, key=lambda t: -float(t.priority) if t.is_comm else 0.0)
    assert result.makespan_us == ref_makespan
    for task, start in ref_start.items():
        assert result.start_us[task] == start


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_array_engine_matches_object_engine_bitwise(g):
    """Full-result identity of an explicit lowering with the oracle, which
    walks the object graph: starts, makespan, busy intervals."""
    from repro.core.compiled import CompiledGraph

    _assert_matches_oracle(CompiledGraph.build(g).run(), naive_simulate(g))


@settings(max_examples=60, deadline=None)
@given(random_graph())
def test_array_engine_no_numpy_fallback(g):
    """The array('d')/array('q') column fallback is bit-identical."""
    import array
    import repro.core.compiled as compiled_mod

    oracle = naive_simulate(g)
    saved_np = compiled_mod._np
    compiled_mod._np = None
    try:
        compiled = compiled_mod.CompiledGraph.build(g)
        assert isinstance(compiled.duration, array.array)
        assert isinstance(compiled.succ_indptr, array.array)
        assert isinstance(compiled.pred_indptr, array.array)
        _assert_matches_oracle(compiled.run(), oracle)
    finally:
        compiled_mod._np = saved_np
