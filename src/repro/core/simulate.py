"""Execution simulation — the paper's Algorithm 1, event-driven.

The simulator traverses the dependency graph, dispatching each task to its
execution thread:

* ``u.start = max(P[thread], max over parents of parent end)``;
* ``P[thread] = u.start + u.duration + u.gap``;
* a task becomes dispatchable when its explicit parents *and* its thread
  predecessor have executed.

The one engine is the compiled array engine (:mod:`repro.core.compiled`):
the graph is lowered once per mutation generation to flat arrays, and each
step dispatches the task with the least *feasible start* (then policy key,
then stable ordinal), over integers — a worklist when every thread is
ordered, otherwise exact per-thread dispatch: one global heap holding
each thread's own argmin as its only live candidate
(:func:`repro.core.compiled._run_arrays` states the invariant and why it
is exact).  O((N + E) log N) instead of a per-dispatch frontier scan's
O(N * F).

Ties in ``(feasible_start, policy_key)`` break on the task's **stable
ordinal** (thread-major position, assigned by
:meth:`repro.core.compiled.CompiledGraph.build`), so dispatch order — and
therefore every simulated timestamp — is a pure function of the graph
*data*, never of allocation addresses.

The ``schedule`` step (Algorithm 1 line 9) is pluggable through a
:class:`SchedulePolicy`: it ranks dispatchable tasks via a secondary key
(after feasible start, before ordinal order).  This is how P3's priority
queue (``make_priority_scheduler``) and other Schedule-primitive overrides
plug in.  The engine's semantics are property-tested against an
independent frontier-scan oracle in the test suite.
"""

import heapq
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.compiled import compiled_for, simulate_transacted
from repro.core.graph import DependencyGraph
from repro.core.task import Task
from repro.tracing.records import ExecutionThread


class _StartTimes(Mapping):
    """``task -> simulated start``: a read-only view of one run's starts
    column, iterating in ordinal order."""

    __slots__ = ("_tasks", "_ordinal", "_starts")

    def __init__(self, tasks: List[Task], ordinal: Dict[Task, int],
                 starts: List[float]) -> None:
        self._tasks = tasks
        self._ordinal = ordinal
        self._starts = starts

    def __getitem__(self, task: Task) -> float:
        return self._starts[self._ordinal[task]]

    def __contains__(self, task: object) -> bool:
        return task in self._ordinal

    def __iter__(self):
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __repr__(self) -> str:
        return repr(dict(self))


class _ThreadBusy(Mapping):
    """``thread -> busy intervals``: a read-only view over every thread of
    one run, in thread order, derived on access from the run's starts and
    its own duration column (so it outlives a rolled-back transaction).

    A thread's intervals are ``(start, start + duration)`` of its
    positive-duration tasks in dispatch order: ordinal order on an ordered
    thread; start order on an unordered one, because each dispatch on a
    thread starts no earlier than the previous one ended (gaps are
    ``>= 0``), so one thread's intervals never overlap.
    """

    __slots__ = ("_threads", "_ordered", "_thread_idx", "_starts",
                 "_duration", "_index")

    def __init__(self, threads: List[ExecutionThread], ordered: List[bool],
                 thread_idx: List[int], starts: List[float],
                 duration: Sequence[float]) -> None:
        self._threads = threads
        self._ordered = ordered
        self._thread_idx = thread_idx
        self._starts = starts
        self._duration = duration
        self._index = {t: ti for ti, t in enumerate(threads)}

    def __getitem__(self, thread: ExecutionThread
                    ) -> List[Tuple[float, float]]:
        ti = self._index[thread]
        # ordinals are thread-major, so a thread's tasks are one block
        lo = bisect_left(self._thread_idx, ti)
        hi = bisect_left(self._thread_idx, ti + 1, lo)
        busy = [(s, s + d) for s, d in zip(self._starts[lo:hi],
                                           self._duration[lo:hi])
                if d > 0.0]
        if not self._ordered[ti]:
            busy.sort()
        return busy

    def __iter__(self):
        return iter(self._threads)

    def __len__(self) -> int:
        return len(self._threads)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    The per-task and per-thread attributes are read-only ``Mapping``
    views over the run's columns, not dicts built per run: a query
    allocates no per-task container.  They iterate like the dicts they
    replace and compare equal to them.

    Attributes:
        start_us: simulated start time of every task, in ordinal order.
        makespan_us: end of the last task (excluding its trailing gap) —
            the predicted iteration time.
        thread_busy: per-thread busy intervals ``(start, end)`` of the
            positive-duration tasks, in dispatch order, for breakdown
            analysis; every thread of the run, in thread order, empty
            threads included.  Derived from the durations the run
            simulated, not the tasks' current ones.
        ordinals: the stable task ordinals this run dispatched under
            (thread-major; see :class:`repro.core.compiled.CompiledGraph`).
            Used to order duration ties deterministically in
            :meth:`critical_tasks`.
    """

    start_us: Mapping[Task, float]
    makespan_us: float
    ordinals: Dict[Task, int]
    thread_busy: Mapping[ExecutionThread, List[Tuple[float, float]]] = field(
        default_factory=dict
    )

    def end_us(self, task: Task) -> float:
        """Simulated completion time of a task."""
        return self.start_us[task] + task.duration

    def critical_tasks(self, top: int = 10) -> List[Task]:
        """The ``top`` tasks by duration — a quick bottleneck view.

        Duration ties break by stable ordinal (earlier ordinal first), so
        the ranking is a pure function of the graph data — never of dict
        insertion or allocation order.
        """
        ordinals = self.ordinals
        return heapq.nlargest(top, self.start_us,
                              key=lambda t: (t.duration, -ordinals[t]))


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
    """

    def __init__(self, is_prioritized: Callable[[Task], bool]) -> None:
        self._is_prioritized = is_prioritized

    def key(self, task: Task) -> float:
        return -float(task.priority) if self._is_prioritized(task) else 0.0


def make_priority_scheduler(
    is_prioritized: Callable[[Task], bool],
) -> PrioritySchedulePolicy:
    """Build the P3 priority schedule override (see
    :class:`PrioritySchedulePolicy`)."""
    return PrioritySchedulePolicy(is_prioritized)


def simulate(
    graph: DependencyGraph,
    scheduler: Optional[SchedulePolicy] = None,
) -> SimulationResult:
    """Run Algorithm 1 over the graph and return predicted timings.

    ``scheduler`` is a :class:`SchedulePolicy`; ``None`` uses the default
    earliest-start policy.  The compiled array engine
    (:mod:`repro.core.compiled`) runs on the graph's cached lowering,
    lowering it first when a mutation made it stale.  Inside an open
    what-if transaction (``DependencyGraph.overlay``) the base lowering is
    patched or spliced, or the transacted graph relowered, never cached
    (:func:`repro.core.compiled.simulate_transacted`).

    Raises:
        TypeError: if ``scheduler`` is neither ``None`` nor a
            :class:`SchedulePolicy`.
        SimulationError: if the graph deadlocks (cycle).
    """
    if graph._journal is not None:
        return simulate_transacted(graph, scheduler)
    return compiled_for(graph).run(scheduler)
