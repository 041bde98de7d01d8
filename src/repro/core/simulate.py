"""Execution simulation — the paper's Algorithm 1, event-driven.

The simulator traverses the dependency graph, dispatching each task to its
execution thread:

* ``u.start = max(P[thread], max over parents of parent end)``;
* ``P[thread] = u.start + u.duration + u.gap``;
* a task becomes dispatchable when its explicit parents *and* its thread
  predecessor have executed.

The production engine is the compiled array engine
(:mod:`repro.core.compiled`): the graph is lowered once per mutation
generation to flat arrays, and a lazy-deletion min-heap keyed on each
dispatchable task's *feasible start* (plus a policy key and the task's
stable ordinal) runs over integers — O(N log N) instead of the naive
per-dispatch frontier scan's O(N * F).  A popped entry whose thread made
progress since it was pushed is stale; it is re-pushed with its recomputed
feasible start (feasible starts only grow, so lazy reinsertion is exact).

Ties in ``(feasible_start, policy_key)`` break on the task's **stable
ordinal** (thread-major position; see
:func:`repro.core.compiled.stable_ordinals`) in every engine, so dispatch
order — and therefore every simulated timestamp — is a pure function of
the graph *data*, never of allocation addresses or frontier-entry history.

The ``schedule`` step (Algorithm 1 line 9) stays pluggable two ways:

* a :class:`SchedulePolicy` ranks dispatchable tasks via a secondary key
  (after feasible start, before ordinal order) and runs on the array
  engine — this is how P3's priority queue (``make_priority_scheduler``)
  and other Schedule-primitive overrides plug in;
* a legacy callable ``(frontier, progress) -> task`` (the seed protocol)
  still works and routes to the reference frontier-scan engine, since an
  arbitrary function of the whole frontier cannot be heapified.

Both engines implement identical semantics; the equivalence is
property-tested against an independent reference in the test suite.
"""

import heapq
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.compiled import compiled_for, simulate_transacted
from repro.core.graph import DependencyGraph
from repro.core.task import Task
from repro.tracing.records import ExecutionThread

#: Legacy scheduler protocol: picks the next task to dispatch from the
#: frontier, given the frontier and the per-thread progress map.
Scheduler = Callable[[List[Task], Dict[ExecutionThread, float]], Task]


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        start_us: simulated start time of every task.
        makespan_us: end of the last task (excluding its trailing gap) —
            the predicted iteration time.
        thread_busy: per-thread busy intervals ``(start, end)`` for
            breakdown analysis.
        ordinals: the stable task ordinals this run dispatched under
            (thread-major; see :func:`repro.core.compiled.stable_ordinals`).
            Used to order duration ties deterministically in
            :meth:`critical_tasks`.
    """

    start_us: Dict[Task, float]
    makespan_us: float
    thread_busy: Dict[ExecutionThread, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    ordinals: Optional[Dict[Task, int]] = None

    def end_us(self, task: Task) -> float:
        """Simulated completion time of a task."""
        return self.start_us[task] + task.duration

    def critical_tasks(self, top: int = 10) -> List[Task]:
        """The ``top`` tasks by duration — a quick bottleneck view.

        Duration ties break by stable ordinal (earlier ordinal first)
        when this result carries them, so the ranking is a pure function
        of the graph data — never of dict insertion or allocation order.
        """
        if self.ordinals is not None:
            ordinals = self.ordinals
            return heapq.nlargest(
                top, self.start_us,
                key=lambda t: (t.duration, -ordinals.get(t, 0)))
        return heapq.nlargest(top, self.start_us, key=lambda t: t.duration)


class SchedulePolicy:
    """A heap-friendly scheduling policy (the paper's Schedule primitive).

    The array engine orders dispatchable tasks by
    ``(feasible_start, policy.key(task), stable_ordinal)``; subclasses
    override :meth:`key` to reorder ties without forfeiting the O(N log N)
    engine.  The default key (0 for every task) reproduces the
    earliest-feasible-start, ordinal-tie-break baseline schedule.
    """

    def key(self, task: Task) -> float:
        """Secondary sort key; smaller dispatches first among feasible ties."""
        return 0.0


class PrioritySchedulePolicy(SchedulePolicy):
    """P3-style priority override (paper Appendix Algorithm 7).

    Among dispatchable tasks, the earliest feasible start still wins (work
    conservation), but when several prioritized tasks could start at the
    same instant the one with the highest ``task.priority`` goes first.

    Instances are also callable with the legacy ``(frontier, progress)``
    protocol so code written against the seed API keeps working.
    """

    def __init__(self, is_prioritized: Callable[[Task], bool]) -> None:
        self._is_prioritized = is_prioritized

    def key(self, task: Task) -> float:
        return -float(task.priority) if self._is_prioritized(task) else 0.0

    def __call__(self, frontier: List[Task],
                 progress: Dict[ExecutionThread, float]) -> Task:
        best: Optional[Task] = None
        best_key: Optional[Tuple[float, float]] = None
        for task in frontier:
            feasible = max(progress.get(task.thread, 0.0),
                           task.metadata["_ready_us"])
            key = (feasible, self.key(task))
            if best_key is None or key < best_key:
                best, best_key = task, key
        assert best is not None
        return best


def make_priority_scheduler(
    is_prioritized: Callable[[Task], bool],
) -> PrioritySchedulePolicy:
    """Build the P3 priority schedule override (see
    :class:`PrioritySchedulePolicy`)."""
    return PrioritySchedulePolicy(is_prioritized)


def earliest_start_scheduler(
    frontier: List[Task], progress: Dict[ExecutionThread, float]
) -> Task:
    """Default schedule as a legacy callable: earliest feasible start,
    stable-ordinal tie-break (the reference engine keeps its frontier
    ordinal-sorted, so first-wins scanning ties on ordinals).  Retained for
    the reference engine and API compatibility; the default simulate path
    uses the array engine instead."""
    best = frontier[0]
    best_time = max(progress.get(best.thread, 0.0), best.metadata["_ready_us"])
    for task in frontier[1:]:
        feasible = max(progress.get(task.thread, 0.0), task.metadata["_ready_us"])
        if feasible < best_time:
            best = task
            best_time = feasible
    return best


def simulate(
    graph: DependencyGraph,
    scheduler: Optional[Scheduler] = None,
) -> SimulationResult:
    """Run Algorithm 1 over the graph and return predicted timings.

    ``scheduler`` may be a :class:`SchedulePolicy` (the compiled array
    engine, O(N log N)) or a legacy ``(frontier, progress) -> task``
    callable (reference engine, O(N * F)).  ``None`` uses the default
    earliest-start policy.

    Policy runs always use the compiled array engine
    (:mod:`repro.core.compiled`) on the graph's cached lowering, lowering
    it first when a mutation made it stale.  Inside an open what-if
    transaction (``DependencyGraph.overlay``) the base lowering is patched
    or the transacted graph relowered, never cached
    (:func:`repro.core.compiled.simulate_transacted`).

    Raises:
        SimulationError: if the graph deadlocks (cycle), or a custom
            scheduler returns a task that is not in the frontier.
    """
    if scheduler is None:
        scheduler = _DEFAULT_POLICY
    if isinstance(scheduler, SchedulePolicy):
        if graph._journal is not None:
            return simulate_transacted(graph, scheduler)
        return compiled_for(graph).run(scheduler)
    return _simulate_reference(graph, scheduler)


_DEFAULT_POLICY = SchedulePolicy()


def _simulate_reference(
    graph: DependencyGraph, scheduler: Scheduler
) -> SimulationResult:
    """The seed frontier-scan engine, kept for legacy callable schedulers."""
    # reference counts: explicit preds + one for the thread predecessor.
    # The walk is thread-major, so enumeration order IS stable-ordinal order.
    refs: Dict[Task, int] = {}
    thread_next: Dict[Task, Optional[Task]] = {}
    ordinals: Dict[Task, int] = {}
    for thread in graph.threads():
        ordered = graph.is_ordered(thread)
        prev: Optional[Task] = None
        for i, task in enumerate(graph.iter_tasks_on(thread)):
            ordinals[task] = len(ordinals)
            refs[task] = len(graph.predecessors(task)) + (
                1 if ordered and i > 0 else 0)
            thread_next[task] = None
            if ordered and prev is not None:
                thread_next[prev] = task
            task.metadata["_ready_us"] = 0.0
            prev = task

    # the frontier is kept sorted by stable ordinal (refs iterates in
    # insertion = ordinal order; releases insort below), so a scheduler
    # scanning it first-wins breaks feasible-start ties exactly like the
    # array engine's ordinal tie-break
    frontier: List[Task] = [t for t, r in refs.items() if r == 0]
    progress: Dict[ExecutionThread, float] = {t: 0.0 for t in graph.threads()}
    start_us: Dict[Task, float] = {}
    busy: Dict[ExecutionThread, List[Tuple[float, float]]] = {
        t: [] for t in graph.threads()
    }
    total = len(graph)

    try:
        while frontier:
            task = scheduler(frontier, progress)
            try:
                frontier.remove(task)
            except ValueError:
                raise SimulationError(
                    f"scheduler returned a task outside the frontier: {task!r}"
                ) from None
            start = max(progress[task.thread], task.metadata["_ready_us"])
            start_us[task] = start
            end = start + task.duration
            progress[task.thread] = end + task.gap
            if task.duration > 0:
                busy[task.thread].append((start, end))

            def _release(child: Task) -> None:
                child.metadata["_ready_us"] = max(
                    child.metadata["_ready_us"], end)
                refs[child] -= 1
                if refs[child] == 0:
                    insort(frontier, child, key=ordinals.__getitem__)

            for child in graph.successors(task):
                _release(child)
            nxt = thread_next[task]
            if nxt is not None:
                # thread order: predecessor completion gates the successor,
                # but the gap is enforced via thread progress, not readiness
                nxt.metadata["_ready_us"] = max(nxt.metadata["_ready_us"], end)
                refs[nxt] -= 1
                if refs[nxt] == 0:
                    insort(frontier, nxt, key=ordinals.__getitem__)
    finally:
        # scrub the scratch metadata even when the scheduler or a deadlock
        # raises mid-run — over *every* task, not just the executed ones
        for task in refs:
            task.metadata.pop("_ready_us", None)

    if len(start_us) != total:
        raise SimulationError(
            f"deadlock: executed {len(start_us)} of {total} tasks "
            "(dependency cycle)"
        )
    makespan = max((start_us[t] + t.duration for t in start_us), default=0.0)
    return SimulationResult(start_us=start_us, makespan_us=makespan,
                            thread_busy=busy, ordinals=ordinals)
