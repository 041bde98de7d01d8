"""Graph-transformation primitives (paper Sections 3-4.4).

Daydream models optimizations as combinations of a small primitive set:

* ``select``             — pick tasks of interest (by predicate, name
                           substring, layer, or phase);
* ``scale`` / ``shrink`` — change task durations;
* ``insert`` / ``remove``— add or delete tasks, keeping launch APIs and
                           their GPU kernels consistent;
* ``schedule``           — override the simulator's scheduling policy
                           (handled in :mod:`repro.core.simulate`).

These functions mutate a graph in place.  A what-if session applies them
inside a journaled transaction on its base graph (``with graph.overlay()
as g:``), which rolls every change back on exit, so one baseline profile
answers many questions; :func:`remove_gpu_tasks` removes a whole task set
as one journal record.
"""

from typing import Callable, Iterable, List, Optional

from repro.common.errors import GraphConsistencyError
from repro.core.graph import DependencyGraph
from repro.core.task import GPU_KINDS, Task, TaskKind
from repro.tracing.records import ExecutionThread

# ----------------------------------------------------------------- selection

def select_gpu_tasks(graph: DependencyGraph) -> List[Task]:
    """All GPU-side tasks (kernels + memory copies)."""
    return graph.select(lambda t: t.is_gpu)


def select_by_name(graph: DependencyGraph, *substrings: str) -> List[Task]:
    """Tasks whose name contains any of the given substrings."""
    return graph.select(lambda t: any(s in t.name for s in substrings))


def select_by_layer(
    graph: DependencyGraph,
    layer_predicate: Callable[[str], bool],
    phase: Optional[str] = None,
) -> List[Task]:
    """Tasks mapped to layers matching a predicate (and optionally a phase)."""
    return graph.select(
        lambda t: t.layer is not None and layer_predicate(t.layer)
        and (phase is None or t.phase == phase)
    )


def select_by_phase(graph: DependencyGraph, phase: str) -> List[Task]:
    """Tasks mapped to one training phase."""
    return graph.select(lambda t: t.phase == phase)


# -------------------------------------------------------------- scale/shrink

def scale_durations(tasks: Iterable[Task], factor: float) -> int:
    """Multiply task durations by ``factor``; returns the task count."""
    count = 0
    for task in tasks:
        task.scale_duration(factor)
        count += 1
    return count


def shrink_durations(tasks: Iterable[Task], divisor: float) -> int:
    """Divide task durations by ``divisor`` (the paper's shrink primitive)."""
    if divisor <= 0:
        raise GraphConsistencyError("shrink divisor must be positive")
    return scale_durations(tasks, 1.0 / divisor)


# ------------------------------------------------------------- insert/remove

def remove_gpu_tasks(graph: DependencyGraph, gpu_tasks: Iterable[Task],
                     remove_launch: bool = True) -> None:
    """Remove GPU tasks and (by default) their CPU launch APIs, at once.

    Mirrors the paper's Figure 4(b): deleting a GPU kernel also deletes the
    ``cudaLaunchKernel`` that triggered it, since a fused/removed kernel is
    never launched.  The launch's gap is preserved on its thread predecessor
    only implicitly — removing the launch removes its trailing gap, which is
    exactly the CPU time the optimization eliminates.

    The kernels plus every launch still in the graph go through one
    :meth:`DependencyGraph.remove_many` (rewiring), so removing thousands of
    kernels is one splice pass and one journal record.  A task that is not
    a GPU task raises before anything is removed.
    """
    doomed = list(gpu_tasks)
    for task in doomed:
        if task.kind not in GPU_KINDS:
            raise GraphConsistencyError(f"not a GPU task: {task!r}")
    if remove_launch:
        for task in doomed[:]:
            launch = task.metadata.get("launched_by")
            if isinstance(launch, Task) and launch in graph:
                doomed.append(launch)
    graph.remove_many(doomed)


def remove_gpu_task(graph: DependencyGraph, gpu_task: Task,
                    remove_launch: bool = True) -> None:
    """Remove one GPU task (and its launch): see :func:`remove_gpu_tasks`."""
    remove_gpu_tasks(graph, (gpu_task,), remove_launch)


def insert_gpu_task(
    graph: DependencyGraph,
    cpu_anchor: Task,
    gpu_anchor: Optional[Task],
    kernel_name: str,
    duration_us: float,
    launch_duration_us: float = 9.0,
    kind: TaskKind = TaskKind.GPU_KERNEL,
    layer: Optional[str] = None,
    phase: Optional[str] = None,
) -> Task:
    """Insert a GPU task plus its CPU launch API (paper Figure 4(b)).

    Args:
        graph: the graph to mutate.
        cpu_anchor: CPU task after which the new launch API is inserted.
        gpu_anchor: GPU task after which the new kernel is inserted in its
            stream's order; ``None`` appends to the stream of the anchor's
            correlated kernel (or the first GPU stream).
        kernel_name: name of the new kernel.
        duration_us: estimated kernel duration.
        launch_duration_us: duration of the inserted ``cudaLaunchKernel``.

    Returns:
        The inserted GPU task (its launch is reachable via metadata).
    """
    launch = Task(
        name="cudaLaunchKernel", kind=TaskKind.CPU, thread=cpu_anchor.thread,
        duration=launch_duration_us, layer=layer, phase=phase,
        metadata={"inserted": True},
    )
    graph.insert_after(cpu_anchor, launch)

    if gpu_anchor is None:
        gpu_threads = [t for t in graph.threads() if t.is_gpu]
        if not gpu_threads:
            raise GraphConsistencyError("graph has no GPU stream to insert into")
        stream = gpu_threads[0]
        gpu_task = Task(
            name=kernel_name, kind=kind, thread=stream, duration=duration_us,
            layer=layer, phase=phase, metadata={"inserted": True},
        )
        graph.append(gpu_task)
    else:
        gpu_task = Task(
            name=kernel_name, kind=kind, thread=gpu_anchor.thread,
            duration=duration_us, layer=layer, phase=phase,
            metadata={"inserted": True},
        )
        graph.insert_after(gpu_anchor, gpu_task)

    graph.add_dependency(launch, gpu_task)
    launch.metadata["launches"] = gpu_task
    gpu_task.metadata["launched_by"] = launch
    return gpu_task


def insert_comm_task(
    graph: DependencyGraph,
    channel: ExecutionThread,
    name: str,
    duration_us: float,
    after: Optional[Task] = None,
    depends_on: Iterable[Task] = (),
    successors: Iterable[Task] = (),
    size_bytes: float = 0.0,
    priority: int = 0,
) -> Task:
    """Insert a communication primitive on a channel.

    Args:
        channel: target communication channel (created on first use).
        after: position in the channel's order (append when ``None``).
        depends_on: tasks that must finish first (e.g. the backward kernels
            producing the gradients).
        successors: tasks gated by this primitive (e.g. weight update).
    """
    task = Task(
        name=name, kind=TaskKind.COMM, thread=channel, duration=duration_us,
        size_bytes=size_bytes, priority=priority, metadata={"inserted": True},
    )
    if after is None:
        graph.append(task)
    else:
        graph.insert_after(after, task)
    for dep in depends_on:
        graph.add_dependency(dep, task)
    for succ in successors:
        graph.add_dependency(task, succ)
    return task


# ------------------------------------------------------------------ utilities

def total_duration(tasks: Iterable[Task]) -> float:
    """Sum of task durations (used by fusion estimates)."""
    return sum(t.duration for t in tasks)


def first_in_thread_order(graph: DependencyGraph, tasks: Iterable[Task]) -> Task:
    """The earliest of ``tasks`` in its thread's program order."""
    candidates = list(tasks)
    if not candidates:
        raise GraphConsistencyError("empty task set")
    per_thread: dict = {}
    for task in candidates:
        per_thread.setdefault(task.thread, []).append(task)
    # prefer the first thread's earliest task deterministically
    thread = sorted(per_thread)[0]
    order = {t: i for i, t in enumerate(graph.tasks_on(thread))}
    return min(per_thread[thread], key=lambda t: order[t])
