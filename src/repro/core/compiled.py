"""Compiled simulation core: struct-of-arrays lowering + array engine.

Walking the object graph per dispatched task means Python attribute
lookups and dict probes in the hot loop.  This module lowers a
:class:`~repro.core.graph.DependencyGraph` once into flat, densely indexed
arrays and runs Algorithm 1 over integers — the one engine behind every
``simulate()``:

* **stable ordinals** — every task gets a dense ordinal assigned
  thread-major (threads in sorted order, tasks in linked-list order
  within each thread).  Ordinals are a pure function of the graph *data*,
  never of allocation addresses, and the engine breaks feasible-start
  ties on them — which is what makes simulation results
  allocation-independent (the historical fig10 "last-ulp tie" drift came
  from ``id()``-ordered successor-set iteration);
* **struct-of-arrays** — per-ordinal ``duration`` / ``gap`` /
  ``thread_idx`` float/int arrays plus CSR successor/predecessor index
  arrays.  Arrays are numpy when available and stdlib ``array.array``
  otherwise (the dependency stays soft; semantics are identical because
  the hot loop runs over plain-list views either way — CPython indexes
  lists faster than it unboxes numpy scalars);
* **the array engine** — a lazy-deletion min-heap over
  ``(feasible_start, policy_key, ordinal)`` integer entries.  No Task
  object is touched between heapify and the final result assembly;
* **batched multi-simulate** — :func:`simulate_many` amortizes the
  lowering across every cell of a what-if grid that shares a baseline:
  each :class:`CellDelta` patches sparse per-task duration/gap overrides
  onto copies of the baseline arrays and re-runs only the engine loop.

Invalidation contract (see ``docs/perf.md``): a compiled graph is cached
on its ``DependencyGraph`` keyed by the graph's mutation generation.
Structural mutations (append/insert/remove/edges/``mark_unordered``) bump
the generation directly; in-place ``Task`` field writes bump it through
the write stamp the lowering pass leaves on each task (``Task.__setattr__``
consults it before the write lands).  A stale cache is therefore
impossible — at worst a conservative bump forces one redundant
relowering.  Inside an open what-if transaction
(``DependencyGraph.overlay``) nothing is cached: :func:`simulate_transacted`
patches or relowers per run, and closing the transaction restores the
base lowering together with the generation.
"""

import heapq
import os
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.core.graph import _FIELD, _WriteStamp
from repro.core.task import Task
from repro.tracing.records import ExecutionThread

if os.environ.get("REPRO_FORCE_NO_NUMPY"):  # the no-numpy CI matrix leg
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - exercised via the env gate
        _np = None


def _float_array(values: Sequence[float]):
    """A float64 struct-of-arrays column (numpy, or ``array('d')``)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.float64)
    return array("d", values)


def _int_array(values: Sequence[int]):
    """A signed index column (numpy int64, or ``array('q')``)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return array("q", values)


#: shared empty successor row (never mutated by the engine)
_EMPTY_ROW: List[int] = []


@dataclass
class CompiledGraph:
    """A dependency graph lowered to flat arrays, ready for the array engine.

    Attributes (all task columns are indexed by stable ordinal):
        tasks: ordinal → Task (for result assembly only).
        ordinal: Task → ordinal.
        duration / gap: float64 columns.
        thread_idx / tnext: dense thread index of each task, and the
            ordinal of its thread successor (−1 when the thread is
            unordered or the task is last on its thread).
        indegree: explicit predecessors + 1 for a gated thread
            predecessor — the simulator's initial reference counts.
        succ_indptr / succ_indices: CSR explicit-successor lists, each
            row sorted by ordinal.
        pred_indptr / pred_indices: CSR explicit-predecessor lists.
        threads / ordered: dense thread table and per-thread order flags.
        generation: the graph mutation generation this lowering captured.
    """

    tasks: List[Task]
    ordinal: Dict[Task, int]
    duration: object
    gap: object
    thread_idx: object
    tnext: object
    indegree: object
    succ_indptr: object
    succ_indices: object
    threads: List[ExecutionThread]
    ordered: List[bool]
    generation: int = 0
    # predecessor CSR is derived from the successor CSR on first access
    # (an O(E) counting pass), so the common compile-and-run path never
    # pays for it
    _pred_csr: Optional[Tuple[object, object]] = field(
        default=None, repr=False)
    # plain-list views for the hot loop (CPython list indexing beats both
    # numpy scalar unboxing and array.array getitem)
    _duration_l: List[float] = field(default_factory=list, repr=False)
    _gap_l: List[float] = field(default_factory=list, repr=False)
    _thread_idx_l: List[int] = field(default_factory=list, repr=False)
    _tnext_l: List[int] = field(default_factory=list, repr=False)
    _indegree_l: List[int] = field(default_factory=list, repr=False)
    _succ_rows: List[List[int]] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.tasks)

    @classmethod
    def build(cls, graph) -> "CompiledGraph":
        """Lower ``graph`` to struct-of-arrays form.  O(N + E)."""
        threads = graph.threads()
        ordered = [graph.is_ordered(t) for t in threads]

        # one linked-list walk per thread assigns ordinals, reads every
        # per-task field, and leaves the write stamp; within a thread
        # ordinals are consecutive, so an ordered thread's successor link
        # is simply ``i + 1``.  A graph inside an open transaction is not
        # stamped: its base tasks still carry the stamp that journals their
        # writes, and the lowering is never cached
        stamp = _WriteStamp(graph) if graph._journal is None else None
        tasks: List[Task] = []
        ordinal: Dict[Task, int] = {}
        duration: List[float] = []
        gap: List[float] = []
        thread_idx: List[int] = []
        tnext: List[int] = []
        indegree: List[int] = []
        nxt_link = graph._next
        heads = graph._heads
        pred = graph._pred
        append = tasks.append
        for ti, thread in enumerate(threads):
            is_ordered = ordered[ti]
            task = heads.get(thread)
            first = True
            i = len(tasks)
            while task is not None:
                ordinal[task] = i
                append(task)
                d = task.__dict__
                if stamp is not None:
                    d["_sim_stamp"] = stamp
                duration.append(d["duration"])
                gap.append(d["gap"])
                thread_idx.append(ti)
                deg = len(pred[task])
                if is_ordered and not first:
                    deg += 1
                indegree.append(deg)
                first = False
                i += 1
                task = nxt_link[task]
                tnext.append(i if is_ordered and task is not None else -1)
        n = len(tasks)

        succ = graph._succ
        succ_rows: List[List[int]] = []
        succ_indptr = [0] * (n + 1)
        succ_indices: List[int] = []
        rows_append = succ_rows.append
        for i, task in enumerate(tasks):
            # adjacency rows are overwhelmingly empty or single-element;
            # specializing those sizes skips most of the sort calls
            succs = succ[task]
            m = len(succs)
            if m == 0:
                rows_append(_EMPTY_ROW)
            elif m == 1:
                (s,) = succs
                row = [ordinal[s]]
                rows_append(row)
                succ_indices.append(row[0])
            else:
                row = sorted(ordinal[s] for s in succs)
                rows_append(row)
                succ_indices.extend(row)
            succ_indptr[i + 1] = len(succ_indices)

        compiled = cls(
            tasks=tasks,
            ordinal=ordinal,
            duration=_float_array(duration),
            gap=_float_array(gap),
            thread_idx=_int_array(thread_idx),
            tnext=_int_array(tnext),
            indegree=_int_array(indegree),
            succ_indptr=_int_array(succ_indptr),
            succ_indices=_int_array(succ_indices),
            threads=threads,
            ordered=ordered,
            generation=getattr(graph, "_generation", 0),
        )
        compiled._duration_l = duration
        compiled._gap_l = gap
        compiled._thread_idx_l = thread_idx
        compiled._tnext_l = tnext
        compiled._indegree_l = indegree
        compiled._succ_rows = succ_rows
        return compiled

    # ------------------------------------------------------- derived columns

    @property
    def pred_indptr(self):
        return self._pred_csr_pair()[0]

    @property
    def pred_indices(self):
        return self._pred_csr_pair()[1]

    def _pred_csr_pair(self) -> Tuple[object, object]:
        """Transpose the successor CSR into the predecessor CSR.  O(N + E).

        Rows come out ordinal-sorted automatically because the outer loop
        visits sources in ordinal order.
        """
        if self._pred_csr is None:
            n = len(self.tasks)
            counts = [0] * (n + 1)
            for row in self._succ_rows:
                for c in row:
                    counts[c + 1] += 1
            for i in range(1, n + 1):
                counts[i] += counts[i - 1]
            indices = [0] * counts[n]
            cursor = counts[:]
            for i, row in enumerate(self._succ_rows):
                for c in row:
                    indices[cursor[c]] = i
                    cursor[c] += 1
            self._pred_csr = (_int_array(counts), _int_array(indices))
        return self._pred_csr

    # ----------------------------------------------------------- simulation

    def policy_keys(self, policy) -> Optional[List[float]]:
        """Per-ordinal secondary sort keys for a ``SchedulePolicy``.

        ``None`` means every key is 0.0 (no policy, or the default one),
        letting the engine skip the column entirely.

        Raises:
            TypeError: if ``policy`` is neither ``None`` nor a
                ``SchedulePolicy``.
        """
        from repro.core.simulate import SchedulePolicy
        if policy is None or type(policy) is SchedulePolicy:
            return None
        if not isinstance(policy, SchedulePolicy):
            raise TypeError(
                f"scheduler must be a SchedulePolicy, got {policy!r}; "
                "subclass repro.core.simulate.SchedulePolicy and override "
                "key(task) to reorder dispatch")
        key = policy.key
        return [key(task) for task in self.tasks]

    def run(self, policy=None,
            duration: Optional[List[float]] = None,
            gap: Optional[List[float]] = None):
        """Run Algorithm 1 over the arrays; returns a SimulationResult.

        ``duration``/``gap`` override the baseline columns (plain lists,
        ordinal-indexed) — this is how :func:`simulate_many` re-runs the
        engine under a cell's sparse delta without re-lowering.  A
        ``policy`` that is not a ``SchedulePolicy`` raises ``TypeError``.
        """
        from repro.core.simulate import SimulationResult
        pkeys = self.policy_keys(policy)
        starts, makespan, busy_lists = _run_arrays(
            len(self.tasks),
            duration if duration is not None else self._duration_l,
            gap if gap is not None else self._gap_l,
            self._thread_idx_l, self._tnext_l, self._indegree_l,
            self._succ_rows, len(self.threads), pkeys,
            all(self.ordered),
        )
        return SimulationResult(
            start_us=dict(zip(self.tasks, starts)),
            makespan_us=makespan,
            thread_busy=dict(zip(self.threads, busy_lists)),
            ordinals=self.ordinal,
        )


def _run_arrays(n: int, dur: List[float], gap: List[float],
                thread_idx: List[int], tnext: List[int],
                indegree: List[int], succ_rows: List[List[int]],
                n_threads: int, pkeys: Optional[List[float]],
                all_ordered: bool = False,
                ) -> Tuple[List[float], float, List[List[Tuple[float, float]]]]:
    """The array engine inner loop: integer heap entries, no Task objects.

    Heap entries are ``(feasible_start, policy_key, ordinal)`` (the policy
    column is dropped when every key is 0.0).  Ordinals are unique, so
    tuple comparison never needs a fourth element, and the ordinal
    tie-break makes dispatch order a pure function of the graph data.
    Stale entries (thread advanced since push) are re-pushed with their
    recomputed feasible start — exact, since feasible starts only grow.

    When every thread is *ordered* the heap disappears entirely
    (``all_ordered``): a task's start is ``max(thread progress, ready)``
    and both are final by the time its last predecessor executes — the
    chain edge pins each thread's dispatch order, so the global pop order
    carries no information and a plain worklist computes the identical
    fixpoint (same starts, same per-thread busy order, same makespan).
    Scheduling only has degrees of freedom on unordered channels, which
    is exactly when the heap paths below run.
    """
    indeg = indegree[:]
    ready = [0.0] * n
    starts = [0.0] * n
    progress = [0.0] * n_threads
    busy_lists: List[List[Tuple[float, float]]] = [[] for _ in range(n_threads)]
    executed = 0
    makespan = 0.0
    push = heapq.heappush
    pop = heapq.heappop

    if all_ordered:
        stack = [i for i in range(n) if indeg[i] == 0]
        append = stack.append
        while stack:
            i = stack.pop()
            ti = thread_idx[i]
            cur = progress[ti]
            rd = ready[i]
            feasible = cur if cur > rd else rd
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            if d > 0.0:
                busy_lists[ti].append((feasible, end))
            executed += 1
            for c in succ_rows[i]:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    append(c)
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    append(c)
    elif pkeys is None:
        heap = [(0.0, i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        while heap:
            feasible, i = pop(heap)
            ti = thread_idx[i]
            cur = progress[ti]
            if cur > feasible:
                push(heap, (cur, i))
                continue
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            if d > 0.0:
                busy_lists[ti].append((feasible, end))
            executed += 1
            for c in succ_rows[i]:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[thread_idx[c]]
                    rc = ready[c]
                    push(heap, (cf if cf > rc else rc, c))
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[ti]
                    rc = ready[c]
                    push(heap, (cf if cf > rc else rc, c))
    else:
        heap3 = [(0.0, pkeys[i], i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap3)
        while heap3:
            feasible, pk, i = pop(heap3)
            ti = thread_idx[i]
            cur = progress[ti]
            if cur > feasible:
                push(heap3, (cur, pk, i))
                continue
            starts[i] = feasible
            d = dur[i]
            end = feasible + d
            if end > makespan:
                makespan = end
            progress[ti] = end + gap[i]
            if d > 0.0:
                busy_lists[ti].append((feasible, end))
            executed += 1
            for c in succ_rows[i]:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[thread_idx[c]]
                    rc = ready[c]
                    push(heap3, (cf if cf > rc else rc, pkeys[c], c))
            c = tnext[i]
            if c >= 0:
                if ready[c] < end:
                    ready[c] = end
                r = indeg[c] - 1
                indeg[c] = r
                if r == 0:
                    cf = progress[ti]
                    rc = ready[c]
                    push(heap3, (cf if cf > rc else rc, pkeys[c], c))

    if executed != n:
        raise SimulationError(
            f"deadlock: executed {executed} of {n} tasks (dependency cycle)"
        )
    return starts, makespan, busy_lists


def compiled_for(graph) -> CompiledGraph:
    """The cached :class:`CompiledGraph` of ``graph``, relowered when stale.

    Validity is keyed on the graph's mutation generation: structural
    mutations bump it directly, and in-place task field writes bump it
    through the write stamps :meth:`CompiledGraph.build` leaves behind.
    Inside an open what-if transaction a stale lowering is rebuilt but not
    cached (the transaction restores the base lowering on exit).
    """
    compiled = graph._compiled
    if compiled is not None and compiled.generation == graph._generation:
        return compiled
    compiled = CompiledGraph.build(graph)
    if graph._journal is None:
        graph._compiled = compiled
    return compiled


def simulate_transacted(graph, policy):
    """Simulate a graph inside its open what-if transaction.

    The base lowering the transaction opened on is reused whenever the
    structure is untouched: when the journal holds only task field writes,
    its duration/gap columns are copied and the written tasks patched in
    by ordinal (the :func:`simulate_many` path; the lowering reads no other
    task field, and policy keys are taken at run time).  Any structural
    record relowers the transacted graph once, without caching.  Returns a
    ``SimulationResult`` bit-identical to lowering the graph from scratch.
    """
    base = graph._compiled
    if base.generation == graph._generation:
        return base.run(policy)
    journal = graph._journal
    written = []
    i = len(journal) - 1
    while i >= 0:
        kind = journal[i]
        if kind != _FIELD:
            return CompiledGraph.build(graph).run(policy)
        written.append(journal[i - 3])
        i -= 4  # task, field name, prior value, kind
    ordinal = base.ordinal
    duration = base._duration_l[:]
    gap = base._gap_l[:]
    for task in written:
        # a task removed before the transaction can still carry an old
        # stamp of this graph; it is not simulated, so it is not patched
        i = ordinal.get(task)
        if i is not None:
            duration[i] = task.duration
            gap[i] = task.gap
    return base.run(policy, duration=duration, gap=gap)


# -------------------------------------------------------- batched multi-sim


@dataclass(frozen=True)
class CellDelta:
    """One what-if cell as sparse overrides onto a shared baseline.

    ``durations``/``gaps`` map tasks of the *baseline* graph to their
    overridden values; everything unmentioned keeps the baseline value.
    Cells are cheap: :func:`simulate_many` patches them onto copies of
    the compiled baseline's columns without touching the graph.
    """

    label: str = "delta"
    durations: Dict[Task, float] = field(default_factory=dict)
    gaps: Dict[Task, float] = field(default_factory=dict)

    @classmethod
    def scale_durations(cls, tasks: Iterable[Task], factor: float,
                        label: str = "scaled") -> "CellDelta":
        """Scale the duration of each task by ``factor`` (≥ 0)."""
        if factor < 0:
            raise SimulationError("duration scale factor must be >= 0")
        return cls(label=label,
                   durations={t: t.duration * factor for t in tasks})


def simulate_many(compiled: CompiledGraph, cells: Sequence[CellDelta],
                  policy=None) -> List[object]:
    """Simulate every cell of a shared-baseline grid on one lowering.

    The baseline columns are copied per cell (O(N) list copies — numpy
    bulk copies when available), each cell's sparse overrides are patched
    in by ordinal (O(|delta|)), and only the engine loop re-runs.  Cells
    referencing tasks outside the baseline raise ``SimulationError``.

    Returns one ``SimulationResult`` per cell, in cell order,
    bit-identical to lowering and simulating each patched graph from
    scratch.  A ``policy`` that is not a ``SchedulePolicy`` raises
    ``TypeError``.
    """
    ordinal = compiled.ordinal
    results = []
    for cell in cells:
        duration = gap = None
        if cell.durations:
            duration = compiled._duration_l[:]
            try:
                for task, value in cell.durations.items():
                    duration[ordinal[task]] = value
            except KeyError:
                raise SimulationError(
                    f"cell {cell.label!r} overrides a task outside the "
                    "compiled baseline") from None
        if cell.gaps:
            gap = compiled._gap_l[:]
            try:
                for task, value in cell.gaps.items():
                    gap[ordinal[task]] = value
            except KeyError:
                raise SimulationError(
                    f"cell {cell.label!r} overrides a task outside the "
                    "compiled baseline") from None
        results.append(compiled.run(policy, duration=duration, gap=gap))
    return results
